"""Unit tests for the application text reports."""

import types

from repro.app.report import (
    candidates_report,
    closest_to_valid,
    history_report,
    maintenance_report_line,
    rules_report,
    table_report,
)
from repro.baselines.remine import remine
from repro.core.engine import engine
from repro.core.maintenance import MaintenanceReport
from repro.core.rules import AssociationRule, RuleKind
from repro.core.stats import Thresholds
from repro.mining.itemsets import ItemVocabulary
from repro.synth import workloads
from repro.synth.generator import generate_annotation_batch
from tests.conftest import make_relation


def near_miss(lhs=(0,), rhs=1, union=3, lhs_count=4, db=10):
    return AssociationRule(kind=RuleKind.DATA_TO_ANNOTATION,
                           lhs=tuple(lhs), rhs=rhs, union_count=union,
                           lhs_count=lhs_count, db_size=db)


def holding(rules, thresholds, tokens):
    """The three engine attributes ``closest_to_valid`` reads, over
    hand-built near-misses and a vocabulary interning ``tokens`` in
    order (ids 0, 1, ...)."""
    vocabulary = ItemVocabulary()
    for token in tokens:
        vocabulary.intern_data(token)
    return types.SimpleNamespace(
        candidates={rule.key: rule for rule in rules},
        thresholds=thresholds, vocabulary=vocabulary)


class TestRulesReport:
    def test_groups_by_kind(self, mined_manager):
        text = rules_report(mined_manager)
        assert "data-to-annotation" in text
        assert "annotation-to-annotation" in text
        assert "==>" in text

    def test_limit(self, mined_manager):
        text = rules_report(mined_manager, limit=1)
        assert text.count("==>") <= 2  # one per kind

    def test_compressed_not_longer(self, mined_manager):
        full = rules_report(mined_manager)
        compressed = rules_report(mined_manager, compress=True)
        assert compressed.count("==>") <= full.count("==>")


class TestClosestToValid:
    def test_ranking_by_gap(self):
        thresholds = Thresholds(0.4, 0.8, margin=0.5)
        close = near_miss(lhs=(0,), union=3, lhs_count=4)  # sup .3 conf .75
        far = near_miss(lhs=(2,), union=2, lhs_count=4)    # sup .2 conf .50
        ranked = closest_to_valid(
            holding([far, close], thresholds, "abc"))
        assert [rule.key for rule, _, _ in ranked] == [close.key, far.key]

    def test_gaps_returned_with_each_rule(self):
        thresholds = Thresholds(0.4, 0.8, margin=0.5)
        [(rule, support_gap, confidence_gap)] = closest_to_valid(
            holding([near_miss()], thresholds, "ab"))
        assert support_gap == thresholds.min_support - rule.support
        assert confidence_gap == thresholds.min_confidence - rule.confidence

    def test_limit(self):
        rules = [near_miss(lhs=(item,)) for item in range(2, 7)]
        assert len(closest_to_valid(
            holding(rules, Thresholds(0.4, 0.8), "abcdefg"), limit=2)) == 2

    def test_ties_break_on_tokens_not_ids_or_insertion(self):
        # Equal gaps: the order follows the LHS token, whatever the item
        # ids or the order the near-misses were stored in.
        thresholds = Thresholds(0.4, 0.8)
        rules = [near_miss(lhs=(item,)) for item in (2, 3, 4)]
        for order in (rules, rules[::-1]):
            ranked = closest_to_valid(holding(order, thresholds, "xyzcb"))
            assert [rule.lhs for rule, _, _ in ranked] == [(4,), (3,), (2,)]


class TestCandidatesReport:
    def test_mentions_band_and_gaps(self):
        # A=1 sits in the band: support 1/4 < .3, confidence 1/2 < .6.
        manager = engine(make_relation(
            [(("1",), ("A",)), (("1",), ()), (("2",), ()), (("2",), ())]),
            min_support=0.3, min_confidence=0.6, margin=0.5)
        manager.mine()
        assert len(manager.candidates) > 0
        text = candidates_report(manager)
        assert "margin band" in text
        assert "needs +0.050 support, +0.100 confidence" in text

    def test_empty_store(self, reference_relation):
        # margin=1.0 keeps nothing below the thresholds.
        manager = engine(reference_relation, min_support=0.25,
                         min_confidence=0.6, margin=1.0)
        manager.mine()
        assert len(manager.candidates) == 0
        assert "no candidate rules" in candidates_report(manager)

    def test_ranking_independent_of_maintenance_history(self):
        workload = workloads.paper_scale(2000)
        incremental = engine(workload.relation, min_support=0.1,
                             min_confidence=0.6)
        incremental.mine()
        for seed in range(5):
            incremental.add_annotations(generate_annotation_batch(
                incremental.relation, size=40, seed=seed))
        fresh = remine(incremental.relation, min_support=0.1,
                       min_confidence=0.6)
        assert incremental.signature() == fresh.signature()
        assert len(incremental.candidates) == len(fresh.candidates) > 10
        assert candidates_report(incremental) == candidates_report(fresh)


class TestTableReport:
    def test_counts_and_frequencies(self, mined_manager):
        text = table_report(mined_manager)
        assert "pattern table:" in text
        assert f"database size: {mined_manager.db_size}" in text
        assert "most frequent annotations:" in text


class TestHistory:
    def test_line_format(self):
        report = MaintenanceReport(event="add-annotations", db_size=42)
        line = maintenance_report_line(report)
        assert "add-annotations" in line
        assert "db=42" in line

    def test_empty_history(self):
        assert "no maintenance activity" in history_report([])

    def test_block_has_header_and_rows(self):
        reports = [MaintenanceReport(event="mine", db_size=10),
                   MaintenanceReport(event="add-annotations", db_size=10)]
        text = history_report(reports)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "event" in lines[0]
