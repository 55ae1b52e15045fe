"""Journaled service behavior: WAL-before-mutate, restore, lazy-journal
sync on close and drop, and checkpoint."""

import struct

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.core.events import AddAnnotations, RemoveAnnotations
from repro.errors import SessionError
from tests.conftest import make_relation

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)


def journaled_service(tmp_path, **overrides):
    options = {"config": ENGINE, "journal_dir": tmp_path / "journal"}
    options.update(overrides)
    return CorrelationService(**options)


class TestWriteAhead:
    def test_flush_journals_the_batch_it_applied(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        batch = [AddAnnotations.build([(3, "A")]),
                 RemoveAnnotations.build([(1, "B")])]
        for event in batch:
            service.submit("s", event)
        service.flush("s")
        store = service._session("s").journal
        records = list(store.records())
        assert [r.kind for r in records] == ["batch"]
        assert list(records[0].events) == batch
        status = service.journal_status("s")
        assert status["applied_seq"] == status["last_seq"] == 1
        assert status["lag"] == 0
        service.close()

    def test_close_syncs_and_keeps_sessions_usable(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        service.close()
        service.submit("s", AddAnnotations.build([(5, "A")]))
        assert service.flush("s").events == 1
        status = service.journal_status("s")
        assert status["applied_seq"] == status["last_seq"] == 2
        assert service.verify("s").equivalent
        service.close()

    def test_failed_append_requeues_and_never_mutates(self, tmp_path):
        """The WAL write comes first: when it fails, the engine state
        and the queue are exactly as before the flush."""
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        hosted = service._session("s")
        before = hosted.engine.signature()

        def refuse(batch):
            raise OSError("disk full")

        hosted.journal.append_batch = refuse
        service.submit("s", AddAnnotations.build([(3, "A")]))
        with pytest.raises(OSError, match="disk full"):
            service.flush("s")
        assert service.pending("s") == 1   # batch back in the queue
        assert hosted.engine.signature() == before
        assert hosted.applied_seq == 0
        service.close()

    def test_empty_flush_journals_nothing(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.flush("s")
        assert service.journal_status("s")["last_seq"] == 0
        service.close()

    def test_mine_is_journaled(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.mine("s")
        store = service._session("s").journal
        assert [r.kind for r in store.records()] == ["mine"]
        service.close()


class TestRestore:
    def test_restart_restores_the_exact_rule_set(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        for tid in (3, 5, 7):
            service.submit("s", AddAnnotations.build([(tid, "A")]))
            service.flush("s")
        live = service.snapshot("s")
        service.close()

        reborn = journaled_service(tmp_path)
        recovered = reborn.restore_sessions()
        assert set(recovered) == {"s"}
        assert recovered["s"].replay.records == 3
        assert reborn.snapshot("s").signature == live.signature
        # The restored session keeps journaling where it left off.
        reborn.submit("s", AddAnnotations.build([(6, "B")]))
        reborn.flush("s")
        assert reborn.journal_status("s")["last_seq"] == 4
        assert reborn.verify("s").equivalent
        reborn.close()

    def test_create_refuses_an_existing_journal(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.close()
        reborn = journaled_service(tmp_path)
        with pytest.raises(SessionError, match="restore_session"):
            reborn.create("s", make_relation())
        reborn.close()

    def test_drop_keeps_the_store_for_resurrection(self, tmp_path):
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        signature = service.snapshot("s").signature
        service.drop("s")
        service.restore_session("s")
        assert service.snapshot("s").signature == signature
        service.close()

    def test_poison_flush_replays_equivalently(self, tmp_path):
        """The journal records only the valid prefix of a poisoned
        batch (the tail is journaled when its own flush commits it), so
        a restart lands on the same rules the live engine served."""
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.submit("s", AddAnnotations.build([(999, "A")]))  # poison
        service.submit("s", AddAnnotations.build([(5, "A")]))
        with pytest.raises(SessionError, match="event 2 of 3"):
            service.flush("s")
        service.flush("s")  # drain the re-queued tail
        records = list(service._session("s").journal.records())
        assert [len(record.events) for record in records] == [1, 1]
        live = service.snapshot("s")
        service.close()

        reborn = journaled_service(tmp_path)
        reborn.restore_sessions()
        assert reborn.snapshot("s").signature == live.signature
        assert reborn.verify("s").equivalent
        reborn.close()

    def test_restore_reports_the_torn_tail_it_truncated(self, tmp_path):
        """Opening the store truncates a torn tail; recovery must report
        those bytes, not the zero a second open finds."""
        service = journaled_service(tmp_path)
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        live = service.snapshot("s")
        service.drop("s")  # closes the store; its files stay
        wal = tmp_path / "journal" / "s" / "events.wal"
        intact = wal.read_bytes()
        # A header promising 100 payload bytes, then only 13 of them.
        wal.write_bytes(intact + struct.pack("<II", 100, 0) + b"x" * 13)

        reborn = journaled_service(tmp_path)
        result = reborn.restore_session("s")
        assert result.truncated_bytes == 21
        assert reborn.journal_status("s")["truncated_bytes"] == 21
        assert wal.read_bytes() == intact
        assert reborn.snapshot("s").signature == live.signature
        reborn.drop("s")

    def test_journal_status_none_without_a_journal(self):
        service = CorrelationService(config=ENGINE)
        service.create("s", make_relation())
        assert service.journal_status("s") is None
        with pytest.raises(SessionError, match="no journal"):
            service.checkpoint("s")
        service.close()


class TestCheckpoint:
    def test_checkpoint_anchors_the_applied_seq(self, tmp_path):
        service = journaled_service(tmp_path,
                                    journal_snapshot_every=None)
        service.create("s", make_relation())
        for tid in (3, 5):
            service.submit("s", AddAnnotations.build([(tid, "A")]))
            service.flush("s")
        status = service.checkpoint("s")
        assert status["snapshots"] == [0, 2]
        # A restart now loads the checkpoint and replays nothing.
        service.close()
        reborn = journaled_service(tmp_path)
        result = reborn.restore_session("s")
        assert result.snapshot_seq == 2
        assert result.replay.records == 0
        reborn.close()


class TestLazyJournal:
    def test_service_close_syncs_a_lazy_journal(self, tmp_path):
        """With journal_fsync=False the WAL is only flushed on demand;
        closing the service must leave the journal synced."""
        service = journaled_service(tmp_path, journal_fsync=False)
        service.create("s", make_relation())
        store = service._session("s").journal
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        assert store.journal._dirty          # appended, not yet synced
        service.close()
        assert not store.journal._dirty

    def test_drop_syncs_a_lazy_journal(self, tmp_path):
        """Dropping a tenant closes its store; the deferred records
        must be on disk for restore_session to find them."""
        service = journaled_service(tmp_path, journal_fsync=False)
        service.create("s", make_relation())
        store = service._session("s").journal
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.flush("s")
        signature = service.snapshot("s").signature
        assert store.journal._dirty
        service.drop("s")
        assert not store.journal._dirty
        result = service.restore_session("s")
        assert result.replay.records == 1
        assert service.snapshot("s").signature == signature
        service.close()
