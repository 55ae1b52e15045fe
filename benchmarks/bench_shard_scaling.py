"""E11 — sharded mining: shard-count scaling with exact-merge checks.

The sharded engine's claim is twofold: (1) *exactness* — for every
shard count the merged rules are byte-identical to the monolithic
engine's (the SON two-phase protocol); (2) *speed* — the partitioned
substrate (one bulk tokenization pass, per-shard bitmap indexes built
in one sweep, vertical phase-1 mines on a thread pool) makes the
4-shard initial mine at least 2x faster than the paper's pipeline —
per-tuple encode + hash-tree Apriori, the ``remine`` baseline — at
fig7 scale.

The monolithic engine mines on the same bulk substrate, so its row and
the shard-count axis (which includes 1) separate what the substrate
buys from what partitioning buys.  The speedup target binds
at full scale only (CI smoke shrinks via ``REPRO_SHARD_TUPLES``);
signature equality is asserted at *every* scale and shard count — that
is the part that must never regress.

Every table also lands in machine-readable form in
``benchmarks/out/BENCH_shard_scaling.json`` (rows keyed by scenario;
re-runs replace their scenario's rows).  Set
``REPRO_SHARD_BIG_TUPLES`` (e.g. ``1000000``) to add the opt-in
million-tuple synthetic-stream row.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines.remine import remine
from repro.core.engine import engine
from repro.shard import ShardedEngine
from repro.synth import workloads
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from benchmarks._harness import OUT_DIR, fmt_ms, record, time_once

N_TUPLES = int(os.environ.get("REPRO_SHARD_TUPLES", "8000"))
BIG_TUPLES = int(os.environ.get("REPRO_SHARD_BIG_TUPLES", "0"))
SHARD_COUNTS = (1, 2, 4, 8)
FULL_SCALE = N_TUPLES >= 4000
TARGET_SPEEDUP = 2.0
ROUNDS = 5

JSON_PATH = os.path.join(OUT_DIR, "BENCH_shard_scaling.json")


def _record_json(scenario: str, rows: list[dict]) -> None:
    """Merge ``rows`` into the machine-readable output, replacing any
    earlier rows of the same scenario (read-merge-write, so the file
    accumulates one entry set per scenario across the module).

    Every row is stamped with the CPU count — without it a recorded
    speedup is uninterpretable across boxes.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    existing = []
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as handle:
            existing = json.load(handle)
    existing = [row for row in existing if row.get("scenario") != scenario]
    existing.extend({"scenario": scenario, "cpus": os.cpu_count(), **row}
                    for row in rows)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=2)
        handle.write("\n")


@pytest.fixture(scope="module")
def shard_workload():
    return workloads.paper_scale(n_tuples=N_TUPLES, seed=13)


def _mono(relation, workload):
    manager = engine(relation,
                     min_support=workload.min_support,
                     min_confidence=workload.min_confidence)
    manager.mine()
    return manager


def _sharded(relation, workload, shards):
    """A mined sharded engine and its mine report."""
    manager = ShardedEngine(relation,
                            min_support=workload.min_support,
                            min_confidence=workload.min_confidence,
                            shards=shards)
    return manager, manager.mine()


def _best_of(workload, fn, rounds=ROUNDS):
    """Best-of-N with the relation copy *outside* the timed region —
    both sides of the comparison would otherwise pay the same copy,
    diluting the measured ratio.  Returns the fastest round's time with
    that same round's result, so phases read from the result add up to
    the reported time."""
    best = None
    for _ in range(rounds):
        relation = workload.relation.copy()
        elapsed, result = time_once(lambda: fn(relation))
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def test_shard_scaling_initial_mine(benchmark, shard_workload):
    # remine copies the relation inside the timed region; the other
    # rows do not, so the paper baseline carries one relation copy.
    paper_seconds, paper = _best_of(
        shard_workload,
        lambda relation: remine(
            relation, min_support=shard_workload.min_support,
            min_confidence=shard_workload.min_confidence))
    mono_seconds, mono = _best_of(
        shard_workload,
        lambda relation: _mono(relation, shard_workload))
    reference = paper.signature()
    assert mono.signature() == reference, (
        "the engine's mine() diverged from the paper's pipeline")

    rows = [f"tuples={N_TUPLES} (shards mined in a loop)",
            f"paper pipeline {fmt_ms(paper_seconds)}      1.00x  baseline",
            f"monolithic     {fmt_ms(mono_seconds)} "
            f"{paper_seconds / mono_seconds:9.2f}x  True",
            "shards       initial-mine   speedup  identical"]
    json_rows = [{"tuples": N_TUPLES, "pipeline": "paper",
                  "seconds": paper_seconds, "speedup": 1.0,
                  "identical": True},
                 {"tuples": N_TUPLES, "shards": 0,
                  "seconds": mono_seconds,
                  "speedup": paper_seconds / mono_seconds,
                  "identical": True}]
    speedups = {}
    for shards in SHARD_COUNTS:
        seconds, (manager, report) = _best_of(
            shard_workload,
            lambda relation: _sharded(relation, shard_workload, shards))
        identical = manager.signature() == reference
        speedups[shards] = (paper_seconds / seconds if seconds
                            else float("inf"))
        rows.append(f"{shards:6d}  {fmt_ms(seconds)} {speedups[shards]:9.2f}x"
                    f"  {identical}")
        json_rows.append({"tuples": N_TUPLES,
                          "shards": shards, "seconds": seconds,
                          "speedup": speedups[shards],
                          "identical": identical,
                          "phases": report.phases.as_dict()})
        assert identical, (
            f"{shards}-shard merge diverged from the monolithic rules")
        assert len(manager.rules) == len(mono.rules)

    # Headline measurement: the 4-shard mine under pytest-benchmark.
    relation = shard_workload.relation.copy()
    benchmark.pedantic(
        lambda: _sharded(relation, shard_workload, 4),
        rounds=1, iterations=1)
    rows.append(f"target: >= {TARGET_SPEEDUP}x over the paper pipeline "
                f"at 4 shards (binding: {FULL_SCALE})")
    record("E11_shard_scaling", rows)
    _record_json("initial_mine_scaling", json_rows)
    if FULL_SCALE:
        assert speedups[4] >= TARGET_SPEEDUP, (
            f"4-shard initial mine only {speedups[4]:.2f}x faster than "
            f"the paper pipeline (target {TARGET_SPEEDUP}x)")


@pytest.mark.skipif(BIG_TUPLES < 1,
                    reason="set REPRO_SHARD_BIG_TUPLES to opt in")
def test_million_tuple_stream_row():
    """Opt-in scale row: a synthetic stream at ``REPRO_SHARD_BIG_TUPLES``
    (intended: 1e6) tuples, mined once at 8 shards and then flushed.
    At this scale the linear bulk index build is the difference between
    minutes and hours.  A monolithic reference mine would dominate the
    runtime, so exactness is left to the other rows."""
    workload = workloads.paper_scale(n_tuples=BIG_TUPLES, seed=13)
    relation = workload.relation.copy()
    seconds, (manager, report) = time_once(
        lambda: _sharded(relation, workload, 8))
    # The stream draws against a shadow copy: mutating the engine's own
    # relation would invalidate its incremental state.
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(seed=83, batch_size=16))
    events = list(stream.take(
        64, apply=lambda event: apply_to_relation(shadow, event)))
    flush_seconds, flush_report = time_once(
        lambda: manager.apply_batch(events))
    record("E11_shard_big_stream", [
        f"tuples={BIG_TUPLES} (8 shards, single round)",
        f"mine {fmt_ms(seconds)}  flush({len(events)} ev) "
        f"{fmt_ms(flush_seconds)}",
    ])
    _record_json("big_stream", [
        {"tuples": BIG_TUPLES,
         "seconds": seconds, "flush_seconds": flush_seconds,
         "flush_phases": flush_report.phases.as_dict(),
         "phases": report.phases.as_dict()},
    ])


def test_shard_scaling_incremental_flush(shard_workload):
    """A routed flush stays exact and within a small multiple of the
    monolithic flush (it adds one global re-merge per batch)."""
    shadow = shard_workload.relation.copy()
    stream = EventStream(shadow, StreamConfig(
        seed=83, batch_size=3,
        weight_add_annotations=6.0,
        weight_insert_annotated=2.0,
        weight_remove_annotations=1.0,
        weight_remove_tuples=0.5,
    ))
    events = list(stream.take(
        40, apply=lambda event: apply_to_relation(shadow, event)))

    mono = _mono(shard_workload.relation.copy(), shard_workload)
    mono_seconds, _ = time_once(lambda: mono.apply_batch(events))
    sharded, _ = _sharded(shard_workload.relation.copy(), shard_workload,
                          4)
    sharded_seconds, report = time_once(
        lambda: sharded.apply_batch(events))

    assert sharded.signature() == mono.signature(), (
        "routed flush diverged from the monolithic flush")
    record("E11_shard_flush", [
        f"tuples={N_TUPLES} events={len(events)}",
        f"monolithic flush : {fmt_ms(mono_seconds)}",
        f"4-shard flush    : {fmt_ms(sharded_seconds)} "
        f"({report.shards_touched} shard(s) touched, one re-merge)",
        f"phases           : {report.phases.summary()}",
        "signature: sharded == monolithic",
    ])
    _record_json("incremental_flush", [
        {"tuples": N_TUPLES,
         "events": len(events), "shards": 4,
         "mono_seconds": mono_seconds, "seconds": sharded_seconds,
         "shards_touched": report.shards_touched,
         "phases": report.phases.as_dict()},
    ])
