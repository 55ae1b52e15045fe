"""Differential shard-equivalence suite.

The sharded engine's whole contract is *indistinguishability*: for any
shard count and valid event stream, a
:class:`~repro.shard.ShardedEngine` must produce byte-identical
``signature()`` (rules with exact counts) to the monolithic engine at
every flush boundary — and both must agree with a from-scratch re-mine.
This suite drives randomized streams (seeded through the session
router, so any failure replays with ``--seed``) across the full grid,
including shard-skewed streams where one shard receives ~all inserts
and shard counts exceeding the tuple count.

``REPRO_SHARDS`` (the CI axis) folds an extra shard count into the
grid, so the axis job re-runs the differential suite at that layout.
"""

import os

import pytest

from repro.core.engine import engine
from repro.shard import ShardedEngine
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import assert_equivalent_to_remine, make_relation

SHARD_COUNTS = tuple(sorted({1, 2, 3, 7,
                             int(os.environ.get("REPRO_SHARDS", "1"))}))
SEEDS = (3, 29, 5, 7, 11, 13, 17, 19, 23, 31, 37, 41)


def drawn_events(relation, count, seed, config=None):
    """A valid event sequence drawn against a shadow copy."""
    shadow = relation.copy()
    stream = EventStream(shadow, config if config is not None
                         else StreamConfig(seed=seed, batch_size=4))
    return list(stream.take(
        count, apply=lambda event: apply_to_relation(shadow, event)))


def mined_pair(relation, shards, *, partitioner=None):
    """(monolithic, sharded) engines over private copies, both mined."""
    mono = engine(relation.copy(), min_support=0.25, min_confidence=0.6,
                  validate=True)
    mono.mine()
    sharded = ShardedEngine(relation.copy(),
                            min_support=0.25, min_confidence=0.6,
                            validate=True, shards=shards,
                            partitioner=partitioner)
    sharded.mine()
    return mono, sharded


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_equals_monolithic_at_every_boundary(shards, seed, seeds):
    """Initial mine and every flush boundary of a randomized stream
    agree between the sharded and the monolithic engine."""
    relation = make_relation()
    events = drawn_events(relation, count=12, seed=seeds.seed(seed))
    mono, sharded = mined_pair(relation, shards)
    assert sharded.signature() == mono.signature(), (
        f"initial mine diverged (shards={shards}, seed={seed})")

    rng = seeds.rng(seed * 101 + shards)
    cut_count = rng.randint(1, 4)
    cuts = sorted(rng.sample(range(1, len(events)), cut_count))
    for start, stop in zip([0, *cuts], [*cuts, len(events)]):
        batch = events[start:stop]
        mono.apply_batch(batch)
        sharded.apply_batch(batch)
        assert sharded.signature() == mono.signature(), (
            f"flush boundary {start}:{stop} diverged (shards={shards}, "
            f"seed={seed})")
        assert sharded.db_size == mono.db_size
    assert len(sharded.table) == len(mono.table)
    assert_equivalent_to_remine(sharded)


@pytest.mark.parametrize("shards", (2, 3))
@pytest.mark.parametrize("seed", (47, 53, 59))
def test_shard_skewed_insert_stream(shards, seed, seeds):
    """A partitioner sending ~every new insert to shard 0 (hot-shard
    skew) must not change any answer — only the layout."""
    relation = make_relation()
    base = relation.tid_range

    def skewed(tid: int) -> int:
        return tid % shards if tid < base else 0

    stream_config = StreamConfig(
        seed=seeds.seed(seed), batch_size=3,
        weight_insert_annotated=6.0,
        weight_insert_unannotated=2.0,
        weight_add_annotations=1.0,
        weight_remove_annotations=0.5,
        weight_remove_tuples=0.25,
    )
    events = drawn_events(relation, count=14, seed=None,
                          config=stream_config)
    mono, sharded = mined_pair(relation, shards, partitioner=skewed)
    mono.apply_batch(events)
    sharded.apply_batch(events)

    assert sharded.signature() == mono.signature()
    # The skew really happened: every post-mine insert is on shard 0.
    new_tids = [tid for tid in range(base, sharded.relation.tid_range)]
    assert new_tids, "stream drew no inserts — skew scenario unexercised"
    assert all(sharded.shard_of(tid) in (0, None) for tid in new_tids)
    assert sharded.shard_engines[0].relation.tid_range > 0
    assert_equivalent_to_remine(sharded)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_more_shards_than_tuples(shards, seeds):
    """Degenerate layouts (empty shards, one-tuple shards) stay exact."""
    rows = [(("1", "2"), ("A",)), (("1", "3"), ("A",)),
            (("4", "2"), ())]
    relation = make_relation(rows)
    mono, sharded = mined_pair(relation, max(shards, len(rows) + 2))
    assert sharded.signature() == mono.signature()
    events = drawn_events(relation, count=6, seed=seeds.seed(11))
    mono.apply_batch(events)
    sharded.apply_batch(events)
    assert sharded.signature() == mono.signature()
    assert_equivalent_to_remine(sharded)
