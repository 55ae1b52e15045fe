"""Unit tests for the deep consistency audit."""

from repro.core.audit import audit
from repro.core.engine import CorrelationEngine
from tests.conftest import make_relation


def mined_manager():
    manager = CorrelationEngine(make_relation(), min_support=0.25,
                                min_confidence=0.6)
    manager.mine()
    return manager


class TestConsistentState:
    def test_fresh_mine_is_consistent(self):
        report = audit(mined_manager())
        assert report.consistent, report.summary()
        assert report.checks_run > 10

    def test_after_every_event_kind(self):
        manager = mined_manager()
        manager.add_annotations([(3, "A")])
        manager.insert_annotated([(("9", "9"), ("C",))])
        manager.insert_unannotated([("8", "8")])
        manager.remove_annotations([(0, "A")])
        manager.remove_tuples([4])
        report = audit(manager)
        assert report.consistent, report.summary()

    def test_summary_text(self):
        report = audit(mined_manager())
        assert "consistent" in report.summary()

    def test_max_pattern_checks_caps_work(self):
        full = audit(mined_manager())
        capped = audit(mined_manager(), max_pattern_checks=2)
        assert capped.checks_run < full.checks_run
        assert capped.consistent


class TestCorruptionDetection:
    def test_detects_corrupted_pattern_count(self):
        manager = mined_manager()
        itemset = next(iter(manager.table))
        manager.table.counts[itemset] += 1
        report = audit(manager)
        assert not report.consistent
        assert any("stored count" in finding
                   for finding in report.findings)

    def test_detects_corrupted_index(self):
        manager = mined_manager()
        item = manager.index.items()[0]
        # The miners' view is a read-only proxy, so corrupt the storage
        # directly.
        manager.index._bitmaps.add(item, 9999)
        report = audit(manager)
        assert not report.consistent
        assert any("index" in finding for finding in report.findings)

    def test_detects_a_tid_missing_from_the_index(self):
        manager = mined_manager()
        item = manager.index.items()[0]
        tid = min(manager.index.tids(item))
        manager.index._bitmaps.discard(item, tid)
        report = audit(manager)
        assert not report.consistent
        assert any("missing/incomplete in the index" in finding
                   for finding in report.findings)

    def test_detects_corrupted_transaction(self):
        manager = mined_manager()
        ghost = manager.vocabulary.intern_data("ghost-value")
        manager.database.extend_transaction(0, [ghost])
        report = audit(manager)
        assert not report.consistent

    def test_detects_stale_rules(self):
        manager = mined_manager()
        stale = next(iter(manager.rules))
        manager.rules.add(stale.with_counts(
            union_count=max(0, stale.union_count - 1)))
        report = audit(manager)
        assert not report.consistent
        assert any("rule set diverges" in finding
                   for finding in report.findings)

    def test_detects_db_size_drift(self):
        manager = mined_manager()
        manager.relation._live += 1  # simulate a size accounting bug
        report = audit(manager)
        assert not report.consistent
        manager.relation._live -= 1
