"""Replay-equivalence property suite for the write-ahead journal.

The durability contract mirrors the shard contract: for any shard
layout and valid event stream, recovering
``snapshot + journal suffix`` must produce byte-identical
``signature()`` to the live engine — at *every* flush boundary, and
at every randomized crash point (a torn tail lands the recovery on
the last fully durable boundary, never between two).
"""

import shutil

import pytest

from repro.core.engine import engine
from repro.core.journal import JournalStore
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import make_relation
from tests.property.test_prop_shard import drawn_events

SHARD_COUNTS = (1, 4)
SEEDS = (5, 31, 3, 7, 11, 13, 17, 19, 23, 29, 37, 41)


def journaled_engine(tmp_path, shards, *, snapshot_every=None):
    relation = make_relation()
    live = engine(relation, min_support=0.25, min_confidence=0.6,
                  shards=shards, validate=True)
    live.mine()
    store = JournalStore(tmp_path / "store",
                         snapshot_every=snapshot_every)
    store.ensure_base_snapshot(live)
    return live, store


def flush(store, live, batch):
    """The service's write order: journal first, then apply."""
    seq = store.append_batch(batch)
    live.apply_batch(list(batch))
    store.maybe_snapshot(live, seq)
    return seq


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_matches_live_at_every_boundary(tmp_path, shards, seed,
                                                 seeds):
    """Snapshot + replay == live signature after each flush, with the
    periodic snapshot cadence exercising both full and suffix replay."""
    live, store = journaled_engine(tmp_path, shards, snapshot_every=2)
    events = drawn_events(live.relation, count=12,
                          seed=seeds.seed(seed))
    rng = seeds.rng(seed * 211 + shards)
    cuts = sorted(rng.sample(range(1, len(events)),
                             rng.randint(1, 4)))
    for start, stop in zip([0, *cuts], [*cuts, len(events)]):
        flush(store, live, events[start:stop])
        result = store.recover()
        assert result.engine.signature() == live.signature(), (
            f"recovery diverged at boundary {start}:{stop} "
            f"(shards={shards}, seed={seed})")
        assert result.engine.db_size == live.db_size
        result.engine.close()
    assert live.verify_against_remine().equivalent
    store.close()
    live.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", (7, 19, 43))
def test_random_crash_point_recovers_a_durable_boundary(
        tmp_path, shards, seed, seeds):
    """Truncating the WAL at a random byte inside any record must
    recover exactly the boundary before that record — the crash can
    only ever cost the un-fsynced suffix, never land between states."""
    live, store = journaled_engine(tmp_path, shards)
    events = drawn_events(live.relation, count=10,
                          seed=seeds.seed(seed))
    boundaries = {0: live.signature()}
    for position in range(0, len(events), 2):
        seq = flush(store, live, events[position:position + 2])
        boundaries[seq] = live.signature()
    offsets = {record.seq: record.offset
               for record in store.records()}
    store.close()
    live.close()

    rng = seeds.rng(seed * 977 + shards)
    wal = tmp_path / "store" / "events.wal"
    whole = wal.read_bytes()
    for trial in range(3):
        torn_seq = rng.choice(sorted(offsets))
        # Cut strictly inside the record: at least one byte of it
        # remains, at least one byte is missing.
        record_end = min((offset for offset in offsets.values()
                          if offset > offsets[torn_seq]),
                         default=len(whole))
        cut = rng.randrange(offsets[torn_seq] + 1, record_end)
        crashed = tmp_path / f"crash-{trial}"
        shutil.copytree(tmp_path / "store", crashed)
        (crashed / "events.wal").write_bytes(whole[:cut])
        crash_store = JournalStore(crashed)
        result = crash_store.recover()
        assert result.last_seq == torn_seq - 1
        assert result.engine.signature() == boundaries[torn_seq - 1], (
            f"crash at byte {cut} (tearing seq {torn_seq}) did not "
            f"recover the previous boundary (shards={shards}, "
            f"seed={seed})")
        result.engine.close()
        crash_store.close()


def test_shard_skewed_stream_recovers_exactly(tmp_path, seeds):
    """A hot-shard insert stream (one shard takes ~every insert) is
    journaled and recovered with the exact same rules and layout."""
    from repro.shard import ShardedEngine

    relation = make_relation()
    base = relation.tid_range
    live = ShardedEngine(
        relation, min_support=0.25, min_confidence=0.6,
        shards=2, validate=True,
        partitioner=lambda tid: tid % 2 if tid < base else 0)
    live.mine()
    store = JournalStore(tmp_path / "store")
    store.ensure_base_snapshot(live)

    stream_config = StreamConfig(
        seed=seeds.seed(61), batch_size=3,
        weight_insert_annotated=6.0,
        weight_insert_unannotated=2.0,
        weight_add_annotations=1.0,
        weight_remove_annotations=0.5,
        weight_remove_tuples=0.25,
    )
    shadow = relation.copy()
    stream = EventStream(shadow, stream_config)
    events = list(stream.take(
        12, apply=lambda event: apply_to_relation(shadow, event)))
    for position in range(0, len(events), 3):
        flush(store, live, events[position:position + 3])
    assert live.relation.tid_range > base, "stream drew no inserts"

    result = store.recover()
    assert result.engine.signature() == live.signature()
    # The snapshot-time assignment survives; tids inserted during the
    # replay fall back to the documented modulo scheme (layout is not
    # answer-bearing, which is what the signature check proves).
    assert result.engine.shard_count == 2
    assert result.engine.assignment()[:base] == live.assignment()[:base]
    assert result.engine.verify_against_remine().equivalent
    result.engine.close()
    store.close()
    live.close()
