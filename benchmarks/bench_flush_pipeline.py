"""E9 — the delta-plan flush pipeline: per-event vs. coalesced batches.

The serving path's cost model: a flush of N queued events used to pay
N maintenance walks, N full rule derivations and N invariant passes.
``apply_batch`` compiles the queue into one delta plan — one walk per
case, one dirty-scoped rule refresh, one validation — so a deep flush
should cost a small multiple of a *single* event, not N of them.

This experiment replays the same annotation-heavy update stream (the
paper's Case 3 mix) over a fig7-scale synthetic table three ways:
per-event ``apply``, one coalesced ``apply_batch``, and a service-level
``flush`` — checking ``signature()`` equality among all of them and
against a from-scratch re-mine, and reporting the speedup.  The
acceptance target is a >= 5x coalesced-over-per-event speedup for a
100-event flush at full scale (the assertion relaxes at the tiny sizes
CI smoke uses, set via ``REPRO_FLUSH_TUPLES`` / ``REPRO_FLUSH_EVENTS``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.core.engine import engine
from repro.core.events import AddAnnotations, RemoveAnnotations
from repro.synth import workloads
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from benchmarks._harness import fmt_ms, record, time_once

#: Full-scale defaults (the fig7 / Figure 16 setting); CI smoke shrinks
#: them via the environment.
N_TUPLES = int(os.environ.get("REPRO_FLUSH_TUPLES", "8000"))
N_EVENTS = int(os.environ.get("REPRO_FLUSH_EVENTS", "100"))
#: The acceptance target only binds at meaningful scale.
FULL_SCALE = N_TUPLES >= 4000 and N_EVENTS >= 100
TARGET_SPEEDUP = 5.0

#: A served annotation stream: each event is one curator action (a
#: couple of (tuple, annotation) pairs at most), Case 3 dominated, with
#: occasional inserts and deletions, and traffic concentrated on a hot
#: set of trending tuples — many events touch the same δ tuples, which
#: the plan compiler merges into one maintenance walk each.
STREAM = StreamConfig(
    seed=71,
    batch_size=2,
    weight_add_annotations=8.0,
    weight_insert_annotated=1.0,
    weight_insert_unannotated=0.5,
    weight_remove_annotations=2.0,
    weight_remove_tuples=0.25,
    hot_tuple_count=32,
    hot_tuple_bias=0.8,
)
#: Fraction of annotation events followed by a correction undoing one
#: of their pairs — curation churn, which coalescing cancels outright.
CHURN_RATE = 0.35


@pytest.fixture(scope="module")
def flush_workload():
    return workloads.paper_scale(n_tuples=N_TUPLES, seed=29)


@pytest.fixture(scope="module")
def flush_events(flush_workload):
    """One fixed event sequence, drawn against a shadow relation.

    Base events come from the seeded stream; with probability
    ``CHURN_RATE`` an annotation event is immediately followed by a
    correction removing one of its pairs (the submit-then-fix pattern
    of live curation).  Per-event application pays the full walk +
    discovery + refresh for both halves of every correction; the plan
    compiler cancels them before the engine ever sees them.
    """
    shadow = flush_workload.relation.copy()
    stream = EventStream(shadow, STREAM)
    rng = random.Random(97)
    events = []
    while len(events) < N_EVENTS:
        event = stream.draw()
        apply_to_relation(shadow, event)
        events.append(event)
        if (isinstance(event, AddAnnotations)
                and len(events) < N_EVENTS
                and rng.random() < CHURN_RATE):
            tid, annotation_id = rng.choice(event.additions)
            undo = RemoveAnnotations.build([(tid, annotation_id)])
            apply_to_relation(shadow, undo)
            events.append(undo)
    return events


def mined_engine(workload):
    manager = engine(
        workload.relation.copy(),
        min_support=workload.min_support,
        min_confidence=workload.min_confidence)
    manager.mine()
    return manager


def test_flush_pipeline_coalesced_vs_per_event(benchmark, flush_workload,
                                               flush_events):
    # Best-of-3 on each side (fresh engine per round: events mutate
    # state) so a scheduler hiccup cannot fake or mask the speedup.
    rounds = 3
    per_event_rounds = []
    for _ in range(rounds):
        per_event = mined_engine(flush_workload)

        def apply_per_event():
            for event in flush_events:
                per_event.apply(event)

        elapsed, _ = time_once(apply_per_event)
        per_event_rounds.append(elapsed)
    coalesced_rounds = []
    report = None
    for _ in range(rounds):
        batched = mined_engine(flush_workload)
        elapsed, report = time_once(
            lambda: batched.apply_batch(flush_events))
        coalesced_rounds.append(elapsed)
    per_event_seconds = min(per_event_rounds)
    coalesced_seconds = min(coalesced_rounds)
    # Headline measurement: the coalesced flush, re-run via pedantic on
    # a fresh engine so pytest-benchmark owns its own timing.
    benchmark.pedantic(
        lambda: mined_engine(flush_workload).apply_batch(flush_events),
        rounds=1, iterations=1)

    assert batched.signature() == per_event.signature(), (
        "coalesced flush diverged from per-event application")
    verification = batched.verify_against_remine()
    assert verification.equivalent, verification.explain()

    speedup = (per_event_seconds / coalesced_seconds
               if coalesced_seconds else float("inf"))
    stats = report.plan_stats
    record("E9_flush_pipeline", [
        f"tuples={N_TUPLES} events={N_EVENTS}",
        f"per-event flush : {fmt_ms(per_event_seconds)}",
        f"coalesced flush : {fmt_ms(coalesced_seconds)}",
        f"speedup         : {speedup:8.1f}x  (target >= {TARGET_SPEEDUP}x "
        f"at full scale: {FULL_SCALE})",
        f"dirty patterns  : {report.patterns_dirty} of "
        f"{report.table_size} stored",
        f"coalesced away  : {stats.pairs_collapsed} dup pairs, "
        f"{stats.pairs_cancelled} cancelled, "
        f"{stats.inserts_elided} elided inserts",
        "signature: batched == per-event == remine",
    ])
    if FULL_SCALE:
        assert speedup >= TARGET_SPEEDUP, (
            f"coalesced flush only {speedup:.1f}x faster than per-event "
            f"application (target {TARGET_SPEEDUP}x)")


def test_flush_pipeline_through_the_service(flush_workload, flush_events):
    """The serving facade path: queue everything, flush once, one
    revision bump, per-event audit rows intact."""
    config = EngineConfig(
        min_support=flush_workload.min_support,
        min_confidence=flush_workload.min_confidence)
    service = CorrelationService(config=config)
    service.create("bench", flush_workload.relation.copy())
    for event in flush_events:
        service.submit("bench", event)
    elapsed, report = time_once(lambda: service.flush("bench"))

    assert report.events == len(flush_events)
    snap = service.snapshot("bench")
    assert snap.revision == 2 and snap.pending_events == 0

    reference = mined_engine(flush_workload)
    reference.apply_batch(flush_events)
    assert snap.signature == reference.signature()
    record("E9_flush_pipeline_service", [
        f"service flush of {len(flush_events)} events: {fmt_ms(elapsed)}",
        f"revision bumps: 1, audit rows: {report.events}",
    ])
