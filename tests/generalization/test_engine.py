"""Unit and integration tests for the generalization engine."""

import pytest

from repro.core.engine import CorrelationEngine
from repro.core.rules import RuleKind
from repro.errors import GeneralizationError
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
    KeywordMatcher,
)
from repro.mining.itemsets import ItemKind
from repro.relation.annotation import Annotation
from repro.relation.relation import AnnotatedRelation
from tests.conftest import assert_equivalent_to_remine


def build_generalizer(relation, hierarchy=None):
    rules = GeneralizationRuleSet([
        GeneralizationRule("Concept_X",
                           IdMatcher(frozenset({"Annot_1", "Annot_5"}))),
        GeneralizationRule("Invalidation",
                           KeywordMatcher(frozenset({"invalid", "wrong"}))),
    ])
    return Generalizer(relation.registry, rules, hierarchy)


class TestLabelsFor:
    def test_id_and_keyword_mapping(self):
        relation = AnnotatedRelation()
        relation.insert(("1",))
        relation.registry.register(Annotation("Annot_1"))
        relation.registry.register(Annotation("Annot_9",
                                              text="wrong value"))
        generalizer = build_generalizer(relation)
        assert generalizer.labels_for({"Annot_1"}) == {"Concept_X"}
        assert generalizer.labels_for({"Annot_9"}) == {"Invalidation"}
        assert generalizer.labels_for({"Annot_1", "Annot_9"}) \
            == {"Concept_X", "Invalidation"}

    def test_at_most_once(self):
        relation = AnnotatedRelation()
        relation.registry.register(Annotation("Annot_1"))
        relation.registry.register(Annotation("Annot_5"))
        generalizer = build_generalizer(relation)
        # Both raw annotations map to Concept_X -> one label, not two.
        assert generalizer.labels_for({"Annot_1", "Annot_5"}) \
            == {"Concept_X"}

    def test_hierarchy_closure_applied(self):
        relation = AnnotatedRelation()
        relation.registry.register(Annotation("Annot_1"))
        hierarchy = ConceptHierarchy.from_edges([
            ("Concept_X", "Metadata")])
        generalizer = build_generalizer(relation, hierarchy)
        assert generalizer.labels_for({"Annot_1"}) \
            == {"Concept_X", "Metadata"}

    def test_collision_with_label_rejected_lazily(self):
        relation = AnnotatedRelation()
        relation.registry.register(Annotation("Concept_X"))
        rules = GeneralizationRuleSet([
            GeneralizationRule("Other", IdMatcher(frozenset({"Annot_1"})))])
        generalizer = Generalizer(relation.registry, rules)
        generalizer.rules.add(
            GeneralizationRule("Concept_X",
                               IdMatcher(frozenset({"Annot_2"}))))
        with pytest.raises(GeneralizationError):
            generalizer.labels_for({"Concept_X"})

    def test_collision_at_construction(self):
        relation = AnnotatedRelation()
        relation.registry.register(Annotation("Concept_X"))
        with pytest.raises(GeneralizationError):
            build_generalizer(relation)

    def test_cache_invalidation(self):
        relation = AnnotatedRelation()
        relation.registry.register(Annotation("Annot_7"))
        generalizer = build_generalizer(relation)
        assert generalizer.labels_for({"Annot_7"}) == frozenset()
        generalizer.rules.add(GeneralizationRule(
            "Late", IdMatcher(frozenset({"Annot_7"}))))
        # Memoized: still empty until the cache is invalidated.
        assert generalizer.labels_for({"Annot_7"}) == frozenset()
        generalizer.invalidate_cache()
        assert generalizer.labels_for({"Annot_7"}) == {"Late"}


class TestApplyToRelation:
    def test_labels_written(self):
        relation = AnnotatedRelation()
        relation.insert(("1",), ("Annot_1",))
        relation.insert(("2",))
        generalizer = build_generalizer(relation)
        changed = generalizer.apply_to_relation(relation)
        assert changed == 1
        assert relation.tuple(0).labels == {"Concept_X"}
        assert relation.tuple(1).labels == set()

    def test_reapply_is_idempotent(self):
        relation = AnnotatedRelation()
        relation.insert(("1",), ("Annot_1",))
        generalizer = build_generalizer(relation)
        generalizer.apply_to_relation(relation)
        assert generalizer.apply_to_relation(relation) == 0


class TestManagerIntegration:
    def _relation(self):
        relation = AnnotatedRelation()
        # The "Invalidation" concept arrives under two raw ids, each
        # individually below threshold; the label aggregates them.
        relation.registry.register(Annotation("Annot_bad1",
                                              text="invalid entry"))
        relation.registry.register(Annotation("Annot_bad2",
                                              text="wrong measurement"))
        for _ in range(3):
            relation.insert(("1", "2"), ("Annot_bad1",))
        for _ in range(3):
            relation.insert(("1", "3"), ("Annot_bad2",))
        for _ in range(4):
            relation.insert(("4", "2"))
        return relation

    def test_generalized_rules_surface(self):
        relation = self._relation()
        generalizer = build_generalizer(relation)
        manager = CorrelationEngine(relation, min_support=0.5,
                                    min_confidence=0.9,
                                    generalizer=generalizer,
                                    validate=True)
        manager.mine()
        label_rules = [
            rule for rule in manager.rules
            if manager.vocabulary.item(rule.rhs).kind is ItemKind.LABEL
        ]
        assert label_rules, "generalized label should head a rule"
        raw_rules = [
            rule for rule in manager.rules
            if manager.vocabulary.item(rule.rhs).kind is ItemKind.ANNOTATION
        ]
        assert not raw_rules, "raw annotations are below threshold"

    def test_incremental_labels_under_case3(self):
        relation = self._relation()
        generalizer = build_generalizer(relation)
        manager = CorrelationEngine(relation, min_support=0.4,
                                    min_confidence=0.8,
                                    generalizer=generalizer,
                                    validate=True)
        manager.mine()
        # Annotating an un-annotated tuple must also attach the label
        # incrementally and stay equivalent to a full re-mine.
        manager.add_annotations([(6, "Annot_bad1"), (7, "Annot_bad2")])
        assert relation.tuple(6).labels == {"Invalidation"}
        assert_equivalent_to_remine(manager)

    def test_label_removal_under_detach(self):
        relation = self._relation()
        generalizer = build_generalizer(relation)
        manager = CorrelationEngine(relation, min_support=0.4,
                                    min_confidence=0.8,
                                    generalizer=generalizer,
                                    validate=True)
        manager.mine()
        manager.remove_annotations([(0, "Annot_bad1")])
        assert relation.tuple(0).labels == set()
        assert_equivalent_to_remine(manager)
