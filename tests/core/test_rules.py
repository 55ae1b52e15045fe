"""Unit tests for association rules and rule sets."""

import pytest

from repro.core.rules import AssociationRule, RuleKind, RuleSet
from repro.errors import ItemKindError
from repro.mining.itemsets import ItemVocabulary


def rule(lhs=(0, 1), rhs=2, union=4, lhs_count=5, db=10,
         kind=RuleKind.DATA_TO_ANNOTATION):
    return AssociationRule(kind=kind, lhs=tuple(lhs), rhs=rhs,
                           union_count=union, lhs_count=lhs_count,
                           db_size=db)


class TestValidation:
    def test_empty_lhs_rejected(self):
        with pytest.raises(ItemKindError):
            rule(lhs=())

    def test_rhs_in_lhs_rejected(self):
        with pytest.raises(ItemKindError):
            rule(lhs=(1, 2), rhs=2)

    def test_non_canonical_lhs_rejected(self):
        with pytest.raises(ItemKindError):
            rule(lhs=(1, 0))

    def test_union_bounded_by_lhs_count(self):
        with pytest.raises(ItemKindError):
            rule(union=6, lhs_count=5)

    def test_lhs_count_bounded_by_db(self):
        with pytest.raises(ItemKindError):
            rule(lhs_count=11, db=10)


class TestStatistics:
    def test_support_and_confidence(self):
        r = rule(union=4, lhs_count=5, db=10)
        assert r.support == pytest.approx(0.4)
        assert r.confidence == pytest.approx(0.8)

    def test_support_never_exceeds_confidence(self):
        r = rule(union=3, lhs_count=4, db=20)
        assert r.support <= r.confidence

    def test_zero_db(self):
        r = rule(union=0, lhs_count=0, db=0)
        assert r.support == 0.0
        assert r.confidence == 0.0

    def test_lift_uses_rhs_lower_bound(self):
        r = rule(union=4, lhs_count=5, db=10)
        # rhs rate lower bound = 4/10; lift = 0.8 / 0.4 = 2.0
        assert r.lift == pytest.approx(2.0)

    def test_with_counts(self):
        updated = rule().with_counts(union_count=5, lhs_count=6, db_size=12)
        assert (updated.union_count, updated.lhs_count, updated.db_size) \
            == (5, 6, 12)
        assert updated.lhs == rule().lhs

    def test_key_and_union_itemset(self):
        r = rule()
        assert r.key == (RuleKind.DATA_TO_ANNOTATION, (0, 1), 2)
        assert r.union_itemset == (0, 1, 2)


class TestRender:
    def test_figure7_format(self):
        vocabulary = ItemVocabulary()
        value_28 = vocabulary.intern_data("28")
        value_85 = vocabulary.intern_data("85")
        annotation = vocabulary.intern_annotation("Annot_1")
        r = AssociationRule(kind=RuleKind.DATA_TO_ANNOTATION,
                            lhs=tuple(sorted((value_28, value_85))),
                            rhs=annotation,
                            union_count=4194, lhs_count=4342, db_size=10000)
        assert r.render(vocabulary) == "28 85 ==> Annot_1, 0.9659, 0.4194"


class TestRuleSet:
    def test_add_get_discard(self):
        rules = RuleSet()
        r = rule()
        rules.add(r)
        assert rules.get(r.key) is r
        assert len(rules) == 1
        removed = rules.discard(r.key)
        assert removed is r
        assert len(rules) == 0
        assert rules.discard(r.key) is None

    def test_add_replaces_same_key(self):
        rules = RuleSet()
        rules.add(rule(union=3))
        rules.add(rule(union=4))
        assert len(rules) == 1
        assert rules.get(rule().key).union_count == 4

    def test_catalog_follows_discards(self):
        rules = RuleSet([rule()])
        assert len(rules.catalog().mentioning(0)) == 1
        rules.discard(rule().key)
        assert list(rules.catalog().mentioning(0)) == []

    def test_sorted_rules_deterministic(self):
        rules = RuleSet([
            rule(lhs=(1,), rhs=5, union=2, lhs_count=3),
            rule(lhs=(0,), rhs=5, union=2, lhs_count=3),
            rule(lhs=(0, 1), rhs=5, union=2, lhs_count=3),
        ])
        ordered = [r.lhs for r in rules.sorted_rules()]
        assert ordered == [(0,), (1,), (0, 1)]

    def test_same_rules_counts_matter(self):
        left = RuleSet([rule(union=4)])
        right = RuleSet([rule(union=3)])
        assert not left.same_rules(right)
        right = RuleSet([rule(union=4)])
        assert left.same_rules(right)

    def test_diff_keys(self):
        left = RuleSet([rule()])
        right = RuleSet([rule(lhs=(7,), union=2, lhs_count=3)])
        only_left, only_right = left.diff_keys(right)
        assert only_left == {rule().key}
        assert only_right == {(RuleKind.DATA_TO_ANNOTATION, (7,), 2)}
