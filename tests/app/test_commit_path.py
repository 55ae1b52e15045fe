"""One commit path per session: a batch is checked before it is
journaled, the engine's revision is the session's only revision, and
every commit publishes one snapshot that reads take without a lock."""

import os
import threading

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    RemoveAnnotations,
)
from repro.errors import MaintenanceError, SessionError
from tests.conftest import make_relation

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)
POISON = AddAnnotations.build([(999, "A")])   # unknown tuple id


def journaled_service(tmp_path):
    return CorrelationService(config=ENGINE,
                              journal_dir=tmp_path / "journal")


def fail_next_refresh(monkeypatch, engine):
    """Make the engine's next rule refresh raise once — after the batch
    has mutated the relation, index and pattern table."""
    real = engine._refresh_rules_scoped
    armed = [True]

    def refresh(report, dirty):
        if armed:
            armed.clear()
            raise RuntimeError("injected refresh failure")
        return real(report, dirty)

    monkeypatch.setattr(engine, "_refresh_rules_scoped", refresh)


def relation_rows(relation):
    return sorted((row.tid, tuple(row.values), tuple(sorted(
        row.annotation_ids))) for row in relation)


class TestStaleEngine:
    def test_a_stale_engine_drops_nothing_and_recovery_agrees(
            self, tmp_path, monkeypatch):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        hosted = service._session("s")
        fail_next_refresh(monkeypatch, hosted.engine)
        before = service.snapshot("s")
        service.submit("s", AddAnnotations.build([(3, "A")]))
        with pytest.raises(RuntimeError, match="injected"):
            service.flush("s")
        # The batch died before it committed rules: readers keep the
        # last committed snapshot and no revision moved.
        assert service.snapshot("s") is before
        assert hosted.engine.revision == before.revision

        batch = [AddAnnotatedTuples.build([(("9", "9"), ("A",))]),
                 AddAnnotations.build([(5, "B")])]
        for event in batch:
            service.submit("s", event)
        seq = service.journal_status("s")["last_seq"]
        with pytest.raises(MaintenanceError, match="stale"):
            service.flush("s")
        # Nothing dropped, nothing journaled, the batch back in order.
        with hosted.queue_lock:
            assert list(hosted.queue) == batch
        assert service.journal_status("s")["last_seq"] == seq

        service.mine("s")
        service.flush("s")
        assert service.pending("s") == 0
        assert service.verify("s").equivalent
        live = service.snapshot("s")
        rows = relation_rows(hosted.engine.relation)
        service.close()

        reborn = journaled_service(tmp_path)
        reborn.restore_session("s")
        restored = reborn._session("s").engine
        assert relation_rows(restored.relation) == rows
        assert reborn.snapshot("s").signature == live.signature
        assert reborn.snapshot("s").db_size == live.db_size
        reborn.close()

    def test_an_empty_flush_on_a_stale_engine_raises(self, tmp_path,
                                                      monkeypatch):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        fail_next_refresh(monkeypatch, service._session("s").engine)
        before = service.snapshot("s")
        service.submit("s", AddAnnotations.build([(3, "A")]))
        with pytest.raises(RuntimeError, match="injected"):
            service.flush("s")
        assert service.pending("s") == 0
        seq = service.journal_status("s")["last_seq"]
        with pytest.raises(MaintenanceError, match="stale"):
            service.flush("s")
        assert service.snapshot("s") is before
        assert service.journal_status("s")["last_seq"] == seq
        service.mine("s")
        assert service.flush("s").event == "apply-batch[0]"
        assert service.verify("s").equivalent
        service.close()

    def test_an_empty_flush_on_an_unmined_session_raises(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("raw", make_relation(), mine=False)
        with pytest.raises(MaintenanceError, match="mine"):
            service.flush("raw")
        service.close()

    def test_an_unmined_session_requeues_its_batch(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("raw", make_relation(), mine=False)
        service.submit("raw", AddAnnotations.build([(3, "A")]))
        with pytest.raises(MaintenanceError, match="mine"):
            service.flush("raw")
        assert service.pending("raw") == 1
        assert service.journal_status("raw")["last_seq"] == 0
        service.mine("raw")
        service.flush("raw")
        assert service.pending("raw") == 0
        assert service.verify("raw").equivalent
        service.close()


class TestPoisonPrefix:
    def test_only_the_valid_prefix_is_journaled(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        prefix = [AddAnnotations.build([(3, "A")]),
                  RemoveAnnotations.build([(1, "B")])]
        tail = [AddAnnotations.build([(5, "A")])]
        for event in (*prefix, POISON, *tail):
            service.submit("s", event)
        with pytest.raises(SessionError, match="event 3 of 4"):
            service.flush("s")
        records = list(service._session("s").journal.records())
        assert [list(record.events) for record in records] == [prefix]
        assert service.pending("s") == 1
        service.close()

    def test_a_leading_poison_journals_and_bumps_nothing(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        before = service.snapshot("s")
        service.submit("s", POISON)
        service.submit("s", AddAnnotations.build([(5, "A")]))
        with pytest.raises(SessionError, match="event 1 of 2"):
            service.flush("s")
        assert service.journal_status("s")["last_seq"] == 0
        after = service.snapshot("s")
        assert after.revision == before.revision
        assert after.pending_events == 1
        service.close()


class TestOneRevision:
    def test_restore_keeps_the_revision(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        for tid in (0, 1, 3, 5, 6):
            service.submit("s", AddAnnotations.build([(tid, "A")]))
            service.flush("s")
        revision = service.snapshot("s").revision
        assert revision == 6
        service.close()

        reborn = journaled_service(tmp_path)
        reborn.restore_session("s")
        assert reborn.snapshot("s").revision == revision
        reborn.submit("s", AddAnnotations.build([(7, "A")]))
        reborn.flush("s")
        assert reborn.snapshot("s").revision == revision + 1
        reborn.close()

    def test_each_commit_bumps_the_revision_once(self, tmp_path,
                                                 monkeypatch):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())

        def revision():
            return service.snapshot("s").revision

        start = revision()
        service.flush("s")                              # empty
        assert revision() == start
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.submit("s", AddAnnotations.build([(5, "A")]))
        service.flush("s")                              # one batch
        assert revision() == start + 1
        service.mine("s")
        assert revision() == start + 2
        service.submit("s", AddAnnotations.build([(6, "A")]))
        service.submit("s", POISON)
        with pytest.raises(SessionError):               # prefix commits
            service.flush("s")
        assert revision() == start + 3
        fail_next_refresh(monkeypatch, service._session("s").engine)
        service.submit("s", AddAnnotations.build([(7, "A")]))
        with pytest.raises(RuntimeError):               # no rules commit
            service.flush("s")
        assert revision() == start + 3
        service.mine("s")
        assert revision() == start + 4
        service.close()

    def test_the_snapshot_carries_the_engine_revision(self):
        service = CorrelationService(config=ENGINE)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        snap = service.snapshot("s")
        assert snap.revision == snap.catalog.revision \
            == service._session("s").engine.revision
        assert service.estimate("s").revision == snap.revision


class TestLockFreeReads:
    def test_reads_return_while_a_writer_holds_the_session(self):
        service = CorrelationService(config=ENGINE)
        service.create("s", make_relation())
        hosted = service._session("s")
        held = threading.Event()
        release = threading.Event()

        def writer():
            with hosted.lock:
                held.set()
                release.wait(timeout=10)

        holder = threading.Thread(target=writer)
        holder.start()
        assert held.wait(timeout=5)
        results = {}

        def reader():
            results["snapshot"] = service.snapshot("s")
            results["catalog"] = service.catalog("s")
            results["top"] = service.top_rules("s", 2)
            results["estimate"] = service.estimate("s")

        try:
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=2)
            assert not thread.is_alive(), \
                "a read waited for the session lock"
        finally:
            release.set()
            holder.join(timeout=5)
        assert results["catalog"] is results["snapshot"].catalog


class TestSessionLock:
    """One plain lock per session: the operations that take it wait for
    an active writer, then complete once it lets go."""

    OPERATIONS = {
        "flush": lambda service: service.flush("s"),
        "verify": lambda service: service.verify("s"),
    }

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_waits_for_an_active_writer(self, operation):
        service = CorrelationService(config=ENGINE)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        hosted = service._session("s")
        held = threading.Event()
        release = threading.Event()
        done = threading.Event()

        def writer():
            with hosted.lock:
                held.set()
                release.wait(timeout=10)

        def locked_call():
            self.OPERATIONS[operation](service)
            done.set()

        holder = threading.Thread(target=writer)
        holder.start()
        assert held.wait(timeout=5)
        caller = threading.Thread(target=locked_call)
        try:
            caller.start()
            assert not done.wait(timeout=0.1), \
                f"{operation} ran alongside the writer"
        finally:
            release.set()
            holder.join(timeout=5)
        assert done.wait(timeout=10), f"{operation} never completed"
        caller.join(timeout=5)
        assert service.verify("s").equivalent


class TestJournalNames:
    @pytest.mark.parametrize("name", [
        "", ".hidden", "a/b", os.sep + "abs",
        *([f"a{os.altsep}b"] if os.altsep else [])])
    def test_names_that_are_not_one_plain_component(self, tmp_path,
                                                    name):
        service = journaled_service(tmp_path)
        with pytest.raises(SessionError, match="plain directory"):
            service.create(name, make_relation())
        assert service.sessions() == ()
        with pytest.raises(SessionError, match="plain directory"):
            service.restore_session(name)
        assert not (tmp_path / "journal" / "events.wal").exists()

    def test_restore_needs_a_journal_dir(self):
        service = CorrelationService(config=ENGINE)
        with pytest.raises(SessionError, match="journal_dir"):
            service.restore_session("s")
