"""Integration tests: full pipelines over synthetic workloads."""

import pytest

from repro.core.engine import CorrelationEngine
from repro.core.rules import RuleKind
from repro.exploitation.curation import CurationSession
from repro.exploitation.ranking import rank
from repro.exploitation.recommender import MissingAnnotationRecommender
from repro.generalization.engine import Generalizer
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from repro.synth import workloads
from repro.synth.generator import generate_annotation_batch, hide_annotations
from tests.conftest import assert_equivalent_to_remine


class TestWorkloadLifecycle:
    """Mine -> update -> verify, over a realistic synthetic workload."""

    @pytest.fixture
    def manager(self):
        workload = workloads.dev_scale()
        manager = CorrelationEngine(
            workload.relation,
            min_support=workload.min_support,
            min_confidence=workload.min_confidence,
            validate=True)
        manager.mine()
        return manager

    def test_mixed_event_sequence_stays_equivalent(self, manager):
        relation = manager.relation
        manager.add_annotations(
            generate_annotation_batch(relation, size=25, seed=1))
        manager.insert_annotated([
            (("c0v0", "c1v0", "c2v0", "c3v0"), ("Annot_1",))] * 5)
        manager.insert_unannotated([("c0v5", "c1v5", "c2v5", "c3v5")] * 5)
        manager.remove_annotations([(0, annotation)
                                    for annotation in sorted(
                                        relation.tuple(0).annotation_ids)]
                                   or [(0, "Annot_1")])
        manager.remove_tuples([1, 2])
        manager.add_annotations(
            generate_annotation_batch(relation, size=25, seed=2))
        assert_equivalent_to_remine(manager)

    def test_many_small_batches_equal_one_large(self):
        first = workloads.dev_scale()
        second = workloads.dev_scale()
        small = CorrelationEngine(
            first.relation, min_support=0.3, min_confidence=0.7)
        small.mine()
        large = CorrelationEngine(
            second.relation, min_support=0.3, min_confidence=0.7)
        large.mine()
        batch = generate_annotation_batch(first.relation, size=40, seed=7)
        for pair in batch:
            small.add_annotations([pair])
        large.add_annotations(batch)
        assert small.signature() == large.signature()

    def test_near_miss_promoted_by_annotations(self, manager):
        # A data-to-annotation near-miss whose LHS alone meets support
        # becomes valid once enough LHS tuples carry its RHS annotation.
        thresholds = manager.thresholds
        promotable = sorted(
            (rule for rule in manager.candidates.values()
             if rule.kind is RuleKind.DATA_TO_ANNOTATION
             and thresholds.meets_support(rule.lhs_count, rule.db_size)),
            key=lambda rule: rule.lhs_count - rule.union_count)
        assert promotable, "workload has no promotable near-miss"
        target = promotable[0]
        token = manager.vocabulary.item(target.rhs).token
        lacking = sorted(manager.index.tids_of_itemset(target.lhs)
                         - manager.index.tids(target.rhs))
        added = 0
        while target.key not in manager.rules:
            assert target.key in manager.candidates
            manager.add_annotations([(lacking[added], token)])
            added += 1
        assert added > 0
        assert target.key not in manager.candidates
        assert manager.rules.get(target.key).union_count == (
            target.union_count + added)
        assert_equivalent_to_remine(manager)


class TestGeneralizationPipeline:
    def test_sparse_concept_only_visible_generalized(self):
        workload = workloads.sparse_annotations(n_tuples=600)
        relation = workload.relation
        raw = CorrelationEngine(
            relation, min_support=workload.min_support,
            min_confidence=workload.min_confidence)
        raw.mine()
        raw_rule_count = len(raw.rules)

        variants = frozenset(
            annotation.annotation_id for annotation in relation.registry
            if annotation.annotation_id.startswith("Annot_inv"))
        generalizer = Generalizer(
            relation.registry,
            GeneralizationRuleSet(
                [GeneralizationRule("Invalidation", IdMatcher(variants))]))
        generalized = CorrelationEngine(
            relation.copy(), min_support=workload.min_support,
            min_confidence=workload.min_confidence,
            generalizer=generalizer)
        generalized.mine()
        label_rules = [
            rule for rule in generalized.rules
            if generalized.vocabulary.item(rule.rhs).token == "Invalidation"
        ]
        assert label_rules, "label-level rule should surface"
        assert len(generalized.rules) > raw_rule_count


class TestExploitationPipeline:
    def test_hidden_annotations_recovered(self):
        workload = workloads.dev_scale(n_tuples=600)
        relation = workload.relation
        hidden = set(hide_annotations(relation, fraction=0.15, seed=3))
        manager = CorrelationEngine(relation, min_support=0.25,
                                    min_confidence=0.6)
        manager.mine()
        recommendations = rank(
            MissingAnnotationRecommender(manager).scan())
        predicted = {(recommendation.tid, recommendation.annotation_id)
                     for recommendation in recommendations}
        recovered = predicted & hidden
        # The planted structure is strong; a healthy fraction of the
        # hidden attachments must be recommended back.
        assert len(recovered) >= len(hidden) * 0.3

    def test_curation_commit_then_recommend_for_inserted_tuple(self):
        workload = workloads.dev_scale(n_tuples=400)
        manager = CorrelationEngine(workload.relation,
                                    min_support=0.25,
                                    min_confidence=0.6)
        manager.mine()
        recommender = MissingAnnotationRecommender(manager)
        session = CurationSession(manager)
        session.accept_all(recommender.scan()[:20], min_confidence=0.8)
        session.commit()
        tid = manager.relation.tid_range
        manager.insert_unannotated([("c0v0", "c1v0", "c2v0", "c3v0")])
        recommendations = recommender.for_tuple(tid)
        assert {r.annotation_id for r in recommendations} == {
            r.annotation_id for r in recommender.scan() if r.tid == tid}
        for recommendation in recommendations:
            assert recommendation.revision == manager.revision
            assert not manager.relation.tuple(tid).has_annotation(
                recommendation.annotation_id)
        assert_equivalent_to_remine(manager)


class TestRuleKindsSeparation:
    def test_d2a_lhs_is_data_a2a_lhs_is_annotations(self):
        workload = workloads.dense_correlations(n_tuples=600)
        manager = CorrelationEngine(
            workload.relation, min_support=0.2, min_confidence=0.6)
        manager.mine()
        for rule in manager.rules_of_kind(RuleKind.DATA_TO_ANNOTATION):
            assert all(not manager.vocabulary.is_annotation_like(item)
                       for item in rule.lhs)
            assert manager.vocabulary.is_annotation_like(rule.rhs)
        for rule in manager.rules_of_kind(
                RuleKind.ANNOTATION_TO_ANNOTATION):
            assert all(manager.vocabulary.is_annotation_like(item)
                       for item in rule.lhs)
