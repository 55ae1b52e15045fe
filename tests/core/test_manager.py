"""Unit and scenario tests for the annotation rule manager."""

import pytest

from repro.core.engine import CorrelationEngine
from repro.core.rules import RuleKind
from repro.errors import MaintenanceError
from tests.conftest import assert_equivalent_to_remine, make_relation


def manager_over_reference(**kwargs):
    manager = CorrelationEngine(
        make_relation(), min_support=0.25, min_confidence=0.6,
        validate=True, **kwargs)
    manager.mine()
    return manager


class TestLifecycle:
    def test_rules_before_mine_raises(self):
        manager = CorrelationEngine(make_relation(), min_support=0.3,
                                    min_confidence=0.6)
        with pytest.raises(MaintenanceError):
            _ = manager.rules

    def test_apply_before_mine_raises(self):
        manager = CorrelationEngine(make_relation(), min_support=0.3,
                                    min_confidence=0.6)
        with pytest.raises(MaintenanceError):
            manager.add_annotations([(0, "Z")])

    def test_mine_reports_rules(self):
        manager = manager_over_reference()
        assert manager.revision == 1  # the mine commits one revision
        assert len(manager.rules) > 0
        assert manager.is_mined

    def test_out_of_band_mutation_detected(self):
        manager = manager_over_reference()
        manager.relation.insert(("99",))
        with pytest.raises(MaintenanceError):
            manager.add_annotations([(0, "Z")])

    def test_unknown_event_rejected(self):
        manager = manager_over_reference()
        with pytest.raises(MaintenanceError):
            manager.apply(object())

    def test_each_applied_event_bumps_the_revision(self):
        manager = manager_over_reference()
        manager.add_annotations([(3, "A")])
        manager.insert_unannotated([("7", "8")])
        assert manager.revision == 1 + 2


class TestCase3AddAnnotations:
    def test_equivalence_after_batch(self):
        manager = manager_over_reference()
        manager.add_annotations([(3, "A"), (5, "A"), (0, "B")])
        assert_equivalent_to_remine(manager)

    def test_duplicate_annotation_is_noop(self):
        manager = manager_over_reference()
        report = manager.add_annotations([(0, "A")])  # tuple 0 already has A
        assert report.tuples_scanned == 0
        assert report.patterns_touched == 0
        assert_equivalent_to_remine(manager)

    def test_new_annotation_vocabulary_entry(self):
        manager = manager_over_reference()
        manager.add_annotations([(tid, "Fresh") for tid in range(6)])
        assert_equivalent_to_remine(manager)
        tokens = {manager.vocabulary.item(rule.rhs).token
                  for rule in manager.rules}
        assert "Fresh" in tokens  # frequent enough to head rules

    def test_confidence_can_drop_rule(self):
        # A2A rule A=>B: adding A to tuples without B lowers confidence.
        rows = [(("1",), ("A", "B"))] * 4 + [(("2",), ())] * 4
        manager = CorrelationEngine(make_relation(rows),
                                    min_support=0.3, min_confidence=0.9,
                                    validate=True)
        manager.mine()
        key = None
        for rule in manager.rules_of_kind(RuleKind.ANNOTATION_TO_ANNOTATION):
            if manager.vocabulary.item(rule.rhs).token == "B":
                key = rule.key
        assert key is not None
        report = manager.add_annotations([(4, "A"), (5, "A")])
        assert key in {dropped for dropped in report.rules_dropped}
        assert_equivalent_to_remine(manager)

    def test_report_timings_populated(self):
        manager = manager_over_reference()
        report = manager.add_annotations([(3, "A")])
        assert report.duration_seconds > 0
        assert report.event == "add-annotations"


class TestCase1AddAnnotatedTuples:
    def test_equivalence(self):
        manager = manager_over_reference()
        manager.insert_annotated([
            (("1", "2"), ("A",)),
            (("9", "9"), ("C", "D")),
        ])
        assert_equivalent_to_remine(manager)

    def test_new_rules_can_appear(self):
        manager = manager_over_reference()
        report = manager.insert_annotated(
            [(("1", "7"), ("A",))] * 10)
        assert report.event == "add-annotated-tuples"
        # The batch makes value "7" frequent and perfectly correlated
        # with annotation A -> a brand-new rule must be discovered.
        added_tokens = {
            manager.vocabulary.render(rule.lhs)
            for rule in report.rules_added
        }
        assert any("7" in tokens for tokens in added_tokens)
        assert_equivalent_to_remine(manager)


class TestCase2AddUnannotatedTuples:
    def test_equivalence(self):
        manager = manager_over_reference()
        manager.insert_unannotated([("1", "2"), ("4", "3"), ("9", "9")])
        assert_equivalent_to_remine(manager)

    def test_no_new_rules_ever(self):
        manager = manager_over_reference()
        report = manager.insert_unannotated([("1", "2")] * 10)
        assert report.rules_added == []
        assert_equivalent_to_remine(manager)

    def test_support_dilution_drops_rules(self):
        manager = manager_over_reference()
        report = manager.insert_unannotated([("x", "y")] * 40)
        assert len(report.rules_dropped) > 0
        assert len(manager.rules) == 0
        assert_equivalent_to_remine(manager)


class TestRemovalExtensions:
    def test_remove_annotations_equivalence(self):
        manager = manager_over_reference()
        manager.remove_annotations([(0, "A"), (1, "B")])
        assert_equivalent_to_remine(manager)

    def test_remove_missing_annotation_is_noop(self):
        manager = manager_over_reference()
        report = manager.remove_annotations([(3, "A")])  # tuple 3 has none
        assert report.tuples_scanned == 0
        assert_equivalent_to_remine(manager)

    def test_remove_tuples_equivalence(self):
        manager = manager_over_reference()
        manager.remove_tuples([0, 5])
        assert_equivalent_to_remine(manager)

    def test_shrinking_db_can_create_rules(self):
        # Removing tuples shrinks |DB|, raising supports of survivors.
        rows = [(("1",), ("A",))] * 3 + [(("2",), ())] * 7
        manager = CorrelationEngine(make_relation(rows),
                                    min_support=0.4, min_confidence=0.6,
                                    validate=True)
        manager.mine()
        assert len(manager.rules) == 0
        report = manager.remove_tuples([9, 8, 7, 6])
        assert len(report.rules_added) > 0
        assert_equivalent_to_remine(manager)

    def test_delete_then_update_sequence(self):
        manager = manager_over_reference()
        manager.remove_tuples([2])
        manager.add_annotations([(3, "B")])
        manager.insert_annotated([(("1", "3"), ("A", "B"))])
        assert_equivalent_to_remine(manager)


class TestSignature:
    def test_signature_is_vocabulary_independent(self):
        left = manager_over_reference()
        # Same logical relation, rows inserted in a different order.
        rows = list(reversed([
            (("1", "2"), ("A",)),
            (("1", "3"), ("A", "B")),
            (("1", "2"), ("A",)),
            (("4", "2"), ()),
            (("1", "3"), ("A", "B")),
            (("4", "3"), ("B",)),
            (("1", "5"), ("A",)),
            (("4", "5"), ()),
        ]))
        right = CorrelationEngine(make_relation(rows),
                                  min_support=0.25, min_confidence=0.6)
        right.mine()
        assert left.signature() == right.signature()

    def test_verify_against_remine_result(self):
        manager = manager_over_reference()
        result = manager.verify_against_remine()
        assert result.equivalent
        assert bool(result)
        assert "identical" in result.explain()


class TestMaxLength:
    def test_max_length_limits_lhs(self):
        manager = CorrelationEngine(make_relation(),
                                    min_support=0.1, min_confidence=0.5,
                                    max_length=2, validate=True)
        manager.mine()
        assert all(len(rule.lhs) <= 1 for rule in manager.rules)
        manager.add_annotations([(3, "A")])
        assert_equivalent_to_remine(manager)
