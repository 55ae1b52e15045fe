"""Tests for the named benchmark workloads."""

import pytest

from repro.core.engine import CorrelationEngine
from repro.core.rules import RuleKind
from repro.mining.itemsets import ItemKind
from repro.synth import workloads


def mine(workload, **overrides):
    manager = CorrelationEngine(
        workload.relation,
        min_support=overrides.get("min_support", workload.min_support),
        min_confidence=overrides.get("min_confidence",
                                 workload.min_confidence))
    manager.mine()
    return manager


class TestDevScale:
    def test_builds_and_mines(self):
        workload = workloads.dev_scale()
        assert len(workload.relation) == 400
        manager = mine(workload)
        assert len(manager.rules) > 0

    def test_planted_d2a_discovered(self):
        workload = workloads.dev_scale()
        manager = mine(workload)
        rhs_tokens = {manager.vocabulary.item(rule.rhs).token
                      for rule in manager.rules_of_kind(
                          RuleKind.DATA_TO_ANNOTATION)}
        assert "Annot_1" in rhs_tokens

    def test_planted_a2a_discovered(self):
        workload = workloads.dev_scale()
        manager = mine(workload)
        pairs = {
            (manager.vocabulary.render(rule.lhs),
             manager.vocabulary.item(rule.rhs).token)
            for rule in manager.rules_of_kind(
                RuleKind.ANNOTATION_TO_ANNOTATION)
        }
        assert ("Annot_1", "Annot_3") in pairs


class TestPaperScale:
    @pytest.fixture(scope="class")
    def workload(self):
        # Smaller instance of the same configuration for test speed.
        return workloads.paper_scale(n_tuples=1500)

    def test_paper_thresholds(self, workload):
        assert workload.min_support == 0.4
        assert workload.min_confidence == 0.8

    def test_figure7_shaped_rule_present(self, workload):
        manager = mine(workload)
        # The headline planted rule: two-value LHS -> Annot_1 with
        # support ~0.42 and confidence >0.9 (paper Figure 7's first row).
        matches = [
            rule for rule in manager.rules_of_kind(
                RuleKind.DATA_TO_ANNOTATION)
            if manager.vocabulary.item(rule.rhs).token == "Annot_1"
            and len(rule.lhs) == 2
        ]
        assert matches
        best = max(matches, key=lambda rule: rule.confidence)
        assert best.support == pytest.approx(0.43, abs=0.05)
        assert best.confidence > 0.9


class TestSparseAnnotations:
    def test_raw_rules_absent_generalized_possible(self):
        workload = workloads.sparse_annotations(n_tuples=800)
        manager = mine(workload)
        raw_rhs = {manager.vocabulary.item(rule.rhs).token
                   for rule in manager.rules
                   if manager.vocabulary.item(rule.rhs).kind
                   is ItemKind.ANNOTATION}
        # Each raw variant sits at ~7% support, far below 15%.
        assert not any(token.startswith("Annot_inv") for token in raw_rhs)


class TestDenseCorrelations:
    def test_rule_count_grows_as_support_drops(self):
        workload = workloads.dense_correlations(n_tuples=800)
        high = mine(workload, min_support=0.4)
        low = mine(workload, min_support=0.2)
        assert len(low.rules) >= len(high.rules)


@pytest.mark.parametrize("build", [
    workloads.paper_scale, workloads.dev_scale,
    workloads.sparse_annotations, workloads.dense_correlations,
], ids=lambda build: build.__name__)
class TestDeterminism:
    """A workload is a function of its size and seed: the benchmarks and
    the written datasets depend on it."""

    @staticmethod
    def rows(workload):
        return [(row.values, row.annotations) for row in workload.relation]

    def test_same_seed_same_relation(self, build):
        assert self.rows(build(n_tuples=80, seed=3)) == \
            self.rows(build(n_tuples=80, seed=3))

    def test_seed_changes_the_relation(self, build):
        assert self.rows(build(n_tuples=80, seed=1)) != \
            self.rows(build(n_tuples=80, seed=2))
