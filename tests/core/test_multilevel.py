"""Unit tests for multi-level rule mining (Han & Fu style)."""

import pytest

from repro.core.engine import CorrelationEngine
from repro.core.multilevel import MultiLevelMiner
from repro.errors import GeneralizationError
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from tests.conftest import make_relation


def build_manager():
    """Two sibling concepts under one parent; the parent is frequent
    everywhere the children are, so parent rules have higher support."""
    rows = []
    rows += [(("1", "2"), ("Annot_a",))] * 3   # concept A
    rows += [(("1", "2"), ("Annot_b",))] * 3   # concept B
    rows += [(("1", "3"), ("Annot_a",))] * 2
    rows += [(("4", "2"), ())] * 4
    relation = make_relation(rows)
    hierarchy = ConceptHierarchy.from_edges([
        ("ConceptA", "Parent"), ("ConceptB", "Parent")])
    generalizer = Generalizer(
        relation.registry,
        GeneralizationRuleSet([
            GeneralizationRule("ConceptA",
                               IdMatcher(frozenset({"Annot_a"}))),
            GeneralizationRule("ConceptB",
                               IdMatcher(frozenset({"Annot_b"}))),
        ]),
        hierarchy)
    manager = CorrelationEngine(relation, min_support=0.15,
                                min_confidence=0.5,
                                generalizer=generalizer)
    manager.mine()
    return manager, hierarchy


class TestConstruction:
    def test_requires_generalizer(self):
        manager = CorrelationEngine(make_relation(), min_support=0.3,
                                    min_confidence=0.6)
        manager.mine()
        with pytest.raises(GeneralizationError):
            MultiLevelMiner(manager, ConceptHierarchy())

    def test_validates_tolerance(self):
        manager, hierarchy = build_manager()
        with pytest.raises(GeneralizationError):
            MultiLevelMiner(manager, hierarchy, redundancy_tolerance=-1)


class TestLeveledRules:
    def test_levels_assigned(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.3)
        leveled = miner.leveled_rules()
        assert leveled, "label rules expected"
        by_label = {}
        for entry in leveled:
            label = manager.vocabulary.item(entry.rule.rhs).token
            by_label.setdefault(label, entry.level)
        if "Parent" in by_label:
            assert by_label["Parent"] == 0
        if "ConceptA" in by_label:
            assert by_label["ConceptA"] == 1

    def test_per_level_floor_is_decayed(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.4,
                                decay=0.5)
        for entry in miner.leveled_rules():
            label = manager.vocabulary.item(entry.rule.rhs).token
            expected = 0.4 * (0.5 ** hierarchy.level_of(label))
            assert entry.min_support_at_level == pytest.approx(expected)
            assert entry.rule.support >= expected - 1e-9

    def test_strict_base_excludes_deep_levels(self):
        """At a base support only the parent can meet (ConceptA sits at
        5/12 ≈ 0.417), child rules must be filtered out at decay=1.0
        (no per-level reduction) but kept at decay=0.5."""
        manager, hierarchy = build_manager()
        strict = MultiLevelMiner(manager, hierarchy, base_support=0.45,
                                 decay=1.0)
        strict_labels = {
            manager.vocabulary.item(entry.rule.rhs).token
            for entry in strict.leveled_rules()}
        relaxed = MultiLevelMiner(manager, hierarchy, base_support=0.45,
                                  decay=0.5)
        relaxed_labels = {
            manager.vocabulary.item(entry.rule.rhs).token
            for entry in relaxed.leveled_rules()}
        assert strict_labels <= relaxed_labels
        assert "ConceptA" not in strict_labels
        assert "Parent" in strict_labels
        assert "ConceptA" in relaxed_labels

    def test_raw_annotation_rules_ignored(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.1)
        for entry in miner.leveled_rules():
            item = manager.vocabulary.item(entry.rule.rhs)
            assert item.kind.name == "LABEL"


class TestRedundancy:
    def test_child_rule_pruned_when_parent_explains_it(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.1,
                                redundancy_tolerance=1.0)  # prune all kids
        kept_labels = {
            manager.vocabulary.item(entry.rule.rhs).token
            for entry in miner.non_redundant()}
        # With tolerance 1.0 every child with a same-LHS parent rule
        # is redundant; only parent-level (or orphan-LHS) rules remain.
        leveled_labels = {
            manager.vocabulary.item(entry.rule.rhs).token
            for entry in miner.leveled_rules()}
        if "Parent" in leveled_labels:
            assert "Parent" in kept_labels

    def test_zero_tolerance_keeps_informative_children(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.1,
                                redundancy_tolerance=0.0)
        kept = miner.non_redundant()
        leveled = miner.leveled_rules()
        # Exact-confidence duplicates only are pruned.
        assert len(kept) <= len(leveled)

    def test_by_level_grouping(self):
        manager, hierarchy = build_manager()
        miner = MultiLevelMiner(manager, hierarchy, base_support=0.1)
        grouped = miner.by_level()
        for level, entries in grouped.items():
            assert all(entry.level == level for entry in entries)
            confidences = [entry.rule.confidence for entry in entries]
            assert confidences == sorted(confidences, reverse=True)
