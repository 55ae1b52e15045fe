"""Journal-store recovery: snapshot + replay == the live engine.

The store's contract is replay equivalence — recovering a directory
must rebuild the exact rule signature the live engine had at the
recovered sequence, whether the recovery starts from the base
snapshot, a compacted one, or falls back past a rotted file.
"""

import json
import os
import struct

import pytest

from repro.core import persistence
from repro.core.engine import engine
from repro.core.events import AddAnnotations, RemoveAnnotations, RemoveTuples
from repro.core.journal import JournalStore, list_snapshots, scan_journal
from repro.errors import FormatError, MaintenanceError
from tests.conftest import make_relation

#: A deterministic flush history over the reference relation: each
#: entry is one journaled batch (annotations A/B correlate with values
#: "1"/"3", so these shift real rule counts, not dead weight).
BATCHES = [
    [AddAnnotations.build([(3, "A")])],
    [AddAnnotations.build([(7, "B")]),
     RemoveAnnotations.build([(0, "A")])],
    [RemoveTuples.build([5])],
    [AddAnnotations.build([(4, "A")])],
]


def mined_engine():
    manager = engine(make_relation(), min_support=0.25,
                     min_confidence=0.6, validate=True)
    manager.mine()
    return manager


def drive(store, manager, batches=BATCHES):
    """Journal-then-apply each batch (the service's flush order);
    returns the live signature at every boundary, keyed by seq."""
    boundaries = {store.last_seq: manager.signature()}
    for batch in batches:
        seq = store.append_batch(batch)
        manager.apply_batch(list(batch))
        store.maybe_snapshot(manager, seq)
        boundaries[seq] = manager.signature()
    return boundaries


class TestBaseSnapshot:
    def test_first_attach_writes_the_base(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        assert not store.has_snapshot
        assert store.ensure_base_snapshot(manager)
        assert [seq for seq, _ in store.snapshots()] == [0]
        assert not store.ensure_base_snapshot(manager)  # idempotent
        store.close()
        manager.close()

    def test_a_failed_snapshot_write_leaves_no_tmp_file(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        unmined = engine(make_relation(), min_support=0.25,
                         min_confidence=0.6)
        with pytest.raises(MaintenanceError, match="unmined"):
            store.write_snapshot(unmined, 0)
        assert sorted(os.listdir(tmp_path / "s")) == ["events.wal"]
        store.close()

    def test_recover_without_any_snapshot_refuses(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.append_batch(BATCHES[0])
        with pytest.raises(FormatError, match="nothing to recover"):
            store.recover()
        store.close()


class TestRecovery:
    def test_recover_matches_live_at_the_tail(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        result = store.recover()
        assert result.snapshot_seq == 0
        assert result.last_seq == len(BATCHES)
        assert result.replay.records == len(BATCHES)
        assert result.replay.events == sum(map(len, BATCHES))
        assert result.engine.signature() == manager.signature()
        assert result.engine.db_size == manager.db_size
        result.engine.close()
        store.close()
        manager.close()

    def test_point_in_time_at_every_boundary(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        boundaries = drive(store, manager)
        for seq, signature in boundaries.items():
            result = store.recover(upto=seq)
            assert result.last_seq == seq
            assert result.engine.signature() == signature, (
                f"point-in-time recovery to seq {seq} diverged")
            result.engine.close()
        store.close()
        manager.close()

    def test_a_store_with_an_indented_snapshot_still_recovers(
            self, tmp_path):
        """Older writers saved snapshots as indented JSON; the compact
        streamed form is the same format v4, and stores written either
        way recover to the same signature."""
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        with open(store.snapshot_path(0), "w", encoding="utf-8") as handle:
            json.dump(persistence.snapshot(manager, journal_seq=0), handle,
                      indent=1)
        drive(store, manager)
        result = store.recover()
        assert result.snapshot_seq == 0
        assert result.engine.signature() == manager.signature()
        result.engine.close()
        store.close()
        manager.close()

    def test_an_old_style_poison_record_replays_its_prefix(
            self, tmp_path):
        """Journals written before a flush journaled only its valid
        prefix hold the batch as submitted.  Live, the prefix applied,
        the poison was dropped and the tail was re-queued into a later
        record — replay must land on the same state."""
        manager = mined_engine()
        store = JournalStore(tmp_path / "store")
        store.ensure_base_snapshot(manager)
        good = AddAnnotations.build([(3, "A")])
        poison = AddAnnotations.build([(999, "A")])
        tail = RemoveAnnotations.build([(0, "A")])
        store.append_batch([good, poison, tail])
        manager.apply_batch([good])
        store.append_batch([poison, tail])   # poison first: nothing applies
        store.append_batch([tail])
        manager.apply_batch([tail])
        result = store.recover()
        assert result.engine.signature() == manager.signature()
        assert result.engine.db_size == manager.db_size
        assert result.replay.poisoned == 2
        store.close()

    def test_mine_records_replay(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        store.append_batch(BATCHES[0])
        manager.apply_batch(list(BATCHES[0]))
        store.append_mine()
        manager.mine()
        result = store.recover()
        assert result.replay.mines == 1
        assert result.engine.signature() == manager.signature()
        result.engine.close()
        store.close()
        manager.close()

    def test_recovery_prefers_the_newest_snapshot(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=2)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        assert len(store.snapshots()) > 1
        result = store.recover()
        assert result.snapshot_seq == store.snapshots()[-1][0]
        # The suffix replayed is exactly tail - snapshot.
        assert result.replay.records \
            == result.last_seq - result.snapshot_seq
        assert result.engine.signature() == manager.signature()
        result.engine.close()
        store.close()
        manager.close()

    def test_rotted_snapshot_falls_back_to_an_older_one(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=2)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        newest_seq, newest_path = store.snapshots()[-1]
        with open(newest_path, "w", encoding="utf-8") as handle:
            handle.write('{"format_version": 4, "truncated')  # bit rot
        result = store.recover()
        assert result.snapshot_seq < newest_seq
        assert result.engine.signature() == manager.signature()
        result.engine.close()
        store.close()
        manager.close()

    def test_snapshot_lying_about_its_seq_is_skipped(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        # A v4 snapshot's body records the seq it was taken at; a
        # renamed file claims a different history point and must not
        # short-circuit the replay.
        with open(store.snapshot_path(0), encoding="utf-8") as handle:
            base = handle.read()
        with open(store.snapshot_path(3), "w",
                  encoding="utf-8") as handle:
            handle.write(base)
        result = store.recover()
        assert result.snapshot_seq == 0  # the liar was rejected
        assert result.engine.signature() == manager.signature()
        result.engine.close()
        store.close()
        manager.close()

    def test_every_snapshot_rotten_refuses_loudly(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        manager.close()
        with open(store.snapshot_path(0), "w",
                  encoding="utf-8") as handle:
            handle.write("not json")
        with pytest.raises(FormatError, match="restores cleanly"):
            store.recover()
        store.close()


class TestCompaction:
    def test_compact_trims_and_recovery_still_works(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        trimmed = store.compact(manager, store.last_seq,
                                keep_snapshots=1)
        assert trimmed == len(BATCHES)
        status = store.status()
        assert status["snapshots"] == [len(BATCHES)]
        assert status["floor_seq"] == status["last_seq"] == len(BATCHES)
        result = store.recover()
        assert result.engine.signature() == manager.signature()
        assert result.replay.records == 0  # pure snapshot load
        result.engine.close()
        store.close()
        manager.close()

    def test_sequence_survives_full_trim_and_reopen(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        store.compact(manager, store.last_seq, keep_snapshots=1)
        # Appends continue past the compacted history...
        assert store.append_batch(BATCHES[0]) == len(BATCHES) + 1
        store.close()
        # ...and so does a cold reopen of the directory.
        reopened = JournalStore(tmp_path / "s")
        assert reopened.last_seq == len(BATCHES) + 1
        reopened.close()
        manager.close()

    def test_point_in_time_below_the_floor_refuses(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        boundaries = drive(store, manager)
        store.compact(manager, store.last_seq, keep_snapshots=1)
        with pytest.raises(FormatError, match="compacted away"):
            store.recover(upto=1)
        # At the floor itself the snapshot serves.
        result = store.recover(upto=len(BATCHES))
        assert result.engine.signature() == boundaries[len(BATCHES)]
        result.engine.close()
        store.close()
        manager.close()

    def test_keep_snapshots_retains_a_recovery_window(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=1)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        boundaries = drive(store, manager)
        store.compact(manager, store.last_seq, keep_snapshots=2)
        floor = store.snapshots()[0][0]
        # Every seq at or above the oldest retained snapshot is still
        # a reachable point in time.
        for seq in range(floor, len(BATCHES) + 1):
            result = store.recover(upto=seq)
            assert result.engine.signature() == boundaries[seq]
            result.engine.close()
        store.close()
        manager.close()

    def test_snapshot_cadence(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=2)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        assert [seq for seq, _ in store.snapshots()] == [0, 2, 4]
        store.close()
        manager.close()


class TestAlignment:
    """The journal's sequence state must survive any reopen order."""

    def test_snapshot_ahead_of_an_empty_journal_advances_it(
            self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        store.compact(manager, store.last_seq, keep_snapshots=1)
        store.close()
        # Delete the (fully trimmed) journal: only snapshots remain.
        # Reopening scaffolds a fresh WAL and must re-anchor it.
        os.remove(os.path.join(store.directory, "events.wal"))
        reopened = JournalStore(tmp_path / "s")
        assert reopened.last_seq == len(BATCHES)
        assert reopened.append_batch(BATCHES[0]) == len(BATCHES) + 1
        reopened.close()
        manager.close()

    def test_snapshot_ahead_of_a_nonempty_journal_refuses(
            self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        store.append_batch(BATCHES[0])
        store.close()
        manager.close()
        # A snapshot claiming seq 5 while the journal tail is seq 1
        # means acknowledged records vanished — refuse, don't reuse.
        with open(os.path.join(store.directory,
                               "snapshot-0000000005.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"format_version": 4}, handle)
        with pytest.raises(FormatError, match="records were lost"):
            JournalStore(tmp_path / "s")


class TestStatus:
    def test_status_summarizes_the_store(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=2)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        status = store.status()
        assert status["last_seq"] == len(BATCHES)
        assert status["floor_seq"] == 0
        assert status["snapshots"] == [0, 2, 4]
        assert status["truncated_bytes"] == 0
        assert status["directory"] == store.directory
        store.close()
        manager.close()

    def test_recover_reports_the_tail_the_open_truncated(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        boundaries = drive(store, manager)
        store.close()
        wal = tmp_path / "s" / "events.wal"
        intact = wal.read_bytes()
        # A record header promising 100 payload bytes, then only 13.
        wal.write_bytes(intact + struct.pack("<II", 100, 0) + b"x" * 13)
        reopened = JournalStore(tmp_path / "s")
        assert wal.read_bytes() == intact   # the constructor truncated
        result = reopened.recover()
        assert result.truncated_bytes == 21
        assert result.last_seq == len(BATCHES)
        assert result.engine.signature() == boundaries[len(BATCHES)]
        assert reopened.status()["truncated_bytes"] == 21
        result.engine.close()
        reopened.close()
        manager.close()

    def test_an_intact_store_reports_no_truncation(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        store.close()
        reopened = JournalStore(tmp_path / "s")
        result = reopened.recover()
        assert result.truncated_bytes == 0
        assert reopened.status()["truncated_bytes"] == 0
        result.engine.close()
        reopened.close()
        manager.close()


class TestReadOnlyListing:
    def test_list_snapshots_orders_by_seq_and_skips_strangers(
            self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=1)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        for stray in ("snapshot-12.json", "snapshot-0000000009.json.tmp",
                      "notes.txt"):
            (tmp_path / "s" / stray).write_text("{}")
        listed = list_snapshots(tmp_path / "s")
        assert [seq for seq, _ in listed] == list(range(len(BATCHES) + 1))
        assert listed == store.snapshots()
        store.close()
        manager.close()

    def test_a_scan_of_a_compacted_journal_reads_its_floor(self, tmp_path):
        store = JournalStore(tmp_path / "s", snapshot_every=2)
        manager = mined_engine()
        store.ensure_base_snapshot(manager)
        drive(store, manager)
        store.compact(manager, store.last_seq, keep_snapshots=2)
        floor = store.snapshots()[0][0]
        scan = scan_journal(tmp_path / "s" / "events.wal")
        assert [record.seq for record in scan.records] == list(
            range(floor + 1, len(BATCHES) + 1))
        assert scan.floor_seq == store.journal.floor_seq == floor
        assert scan.last_seq == store.last_seq == len(BATCHES)
        store.close()
        manager.close()
