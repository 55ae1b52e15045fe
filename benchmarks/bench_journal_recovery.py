"""E10 — durability economics: journal overhead and recovery time.

Two costs decide whether a served deployment can afford the journal:

* the *write tax* — how much a flush slows down when every batch is
  fsync'd to the WAL first (measured with fsync on and off against the
  journal-free baseline);
* the *restart bill* — how long recovery takes as the journal deepens,
  and how far a compacted snapshot cuts it.  Snapshot + suffix replay
  should beat a full-history replay by roughly the depth ratio, which
  is the whole argument for ``maybe_snapshot``'s cadence.

Both sides assert exactness (recovered signature == live signature),
so the speed table can never come from a wrong answer.

CI smoke shrinks the scale via ``REPRO_JOURNAL_TUPLES`` /
``REPRO_JOURNAL_FLUSHES``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import engine
from repro.core.journal import JournalStore
from repro.synth import workloads
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from benchmarks._harness import fmt_ms, record, time_once

N_TUPLES = int(os.environ.get("REPRO_JOURNAL_TUPLES", "2000"))
N_FLUSHES = int(os.environ.get("REPRO_JOURNAL_FLUSHES", "40"))
BATCH = 4

STREAM = StreamConfig(
    seed=83,
    batch_size=BATCH,
    weight_add_annotations=6.0,
    weight_insert_annotated=1.5,
    weight_insert_unannotated=0.5,
    weight_remove_annotations=2.0,
    weight_remove_tuples=0.25,
    hot_tuple_count=32,
    hot_tuple_bias=0.7,
)


@pytest.fixture(scope="module")
def journal_workload():
    return workloads.paper_scale(n_tuples=N_TUPLES, seed=41)


@pytest.fixture(scope="module")
def journal_batches(journal_workload):
    """``N_FLUSHES`` fixed batches drawn against a shadow relation."""
    shadow = journal_workload.relation.copy()
    stream = EventStream(shadow, STREAM)
    batches = []
    for _ in range(N_FLUSHES):
        batch = list(stream.take(
            BATCH,
            apply=lambda event: apply_to_relation(shadow, event)))
        batches.append(batch)
    return batches


def mined_engine(workload):
    manager = engine(workload.relation.copy(),
                     min_support=workload.min_support,
                     min_confidence=workload.min_confidence)
    manager.mine()
    return manager


def drive(store, manager, batches):
    for batch in batches:
        store.append_batch(batch)
        manager.apply_batch(list(batch))


def test_journal_write_tax(tmp_path, journal_workload, journal_batches):
    """Flush throughput: bare engine vs WAL (fsync off) vs WAL (on)."""
    bare = mined_engine(journal_workload)
    bare_seconds, _ = time_once(
        lambda: [bare.apply_batch(list(batch))
                 for batch in journal_batches])

    timings = {}
    for fsync in (False, True):
        manager = mined_engine(journal_workload)
        store = JournalStore(tmp_path / f"fsync-{fsync}", fsync=fsync)
        store.ensure_base_snapshot(manager)
        timings[fsync], _ = time_once(
            lambda: drive(store, manager, journal_batches))
        assert manager.signature() == bare.signature(), (
            "journaled flushes diverged from the bare engine")
        store.close()

    events = N_FLUSHES * BATCH
    record("E10_journal_write_tax", [
        f"tuples={N_TUPLES} flushes={N_FLUSHES} batch={BATCH}",
        f"bare flushes       : {fmt_ms(bare_seconds)}",
        f"journal, no fsync  : {fmt_ms(timings[False])}",
        f"journal, fsync     : {fmt_ms(timings[True])}",
        f"fsync tax per flush: "
        f"{(timings[True] - bare_seconds) / N_FLUSHES * 1000:9.3f} ms",
        f"events journaled   : {events}",
        "signature: bare == no-fsync == fsync",
    ])


def test_recovery_time_vs_journal_depth(benchmark, tmp_path,
                                        journal_workload,
                                        journal_batches):
    """Restart bill: full-history replay vs snapshot + short suffix."""
    manager = mined_engine(journal_workload)
    store = JournalStore(tmp_path / "deep", fsync=False)
    store.ensure_base_snapshot(manager)
    drive(store, manager, journal_batches)

    full_seconds, full = time_once(store.recover)
    assert full.engine.signature() == manager.signature()
    assert full.replay.records == N_FLUSHES
    full.engine.close()

    # Checkpoint near the tail, leaving a short suffix to replay.
    suffix = max(1, N_FLUSHES // 10)
    store.write_snapshot(manager, store.last_seq)
    for batch in journal_batches[:suffix]:
        store.append_batch(batch)
        manager.apply_batch(list(batch))
    snap_seconds, snapped = time_once(store.recover)
    assert snapped.engine.signature() == manager.signature()
    assert snapped.replay.records == suffix
    snapped.engine.close()

    # Headline: the realistic restart (checkpoint + suffix).
    result = benchmark.pedantic(store.recover, rounds=1, iterations=1)
    result.engine.close()
    store.close()

    speedup = full_seconds / snap_seconds if snap_seconds else float("inf")
    record("E10_recovery_depth", [
        f"tuples={N_TUPLES} flushes={N_FLUSHES}",
        f"full replay ({N_FLUSHES} records)   : {fmt_ms(full_seconds)}",
        f"snapshot + {suffix} record suffix : {fmt_ms(snap_seconds)}",
        f"checkpoint speedup: {speedup:6.1f}x",
        "signature: full == suffix == live",
    ])
