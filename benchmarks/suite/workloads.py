"""The four workloads and the metrics every run reports.

Each workload stresses different layers, so that an optimisation has
one workload exercising its mechanism and one bypassing it (see
``README.md``).  ``--smoke`` swaps in the ``smoke`` scale: the same
code paths on inputs small enough for the whole set to run in seconds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.synth import workloads as synth

#: Numbers every run measures, traced or not (name -> unit).
#: ``op_ms_p50`` is the median latency of the workload's own operation
#: (``Workload.op``); ``restart_s`` exists on serve-ingest alone.  Each
#: is a metric of a run whose metric set below names it, and a
#: ``detail`` otherwise.
HEADLINE = {
    "setup_s": "s",
    "mine_s": "s",
    "op_ms_p50": "ms",
    "rss_peak_mb": "MB",
    "restart_s": "s",
}

#: End-to-end metrics of an untraced run, the gated ones.  The time
#: metrics that could not hold a 10% bound on the 2-CPU box the suite
#: was written on (``mine_s``, ``op_ms_p50``; README.md has the spreads)
#: are per-layer diagnostics instead.
END_TO_END = {name: HEADLINE[name] for name in ("setup_s", "rss_peak_mb")}

#: Per-layer metrics of a traced run (name -> unit).  Layer time is
#: reported as a share of the call that contains it, so the shares of
#: one call sum to at most 1 and a layer a workload never enters reads
#: 0 rather than a made-up duration.
PER_LAYER = {
    **{name: HEADLINE[name] for name in ("mine_s", "op_ms_p50",
                                         "restart_s")},
    "engine.mine.encode_share": "ratio",
    "engine.mine.mine_share": "ratio",
    "engine.mine.refresh_share": "ratio",
    "shard.mine.partition_share": "ratio",
    "shard.mine.build_share": "ratio",
    "shard.mine.merge_share": "ratio",
    "engine.flush.apply_share": "ratio",
    "engine.flush.refresh_share": "ratio",
    "shard.flush.partition_share": "ratio",
    "shard.flush.merge_share": "ratio",
    "engine.flush.patterns_dirty": "count",
    "engine.flush.tuples_scanned_per_event": "count/event",
    "engine.flush.reshape_frac": "ratio",
    "engine.flush.speedup_vs_remine": "x",
    "deltas.coalesced_frac": "ratio",
    "baseline.remine_s": "s",
    "engine.rules": "count",
    "catalog.builds_per_op": "count/op",
    "catalog.build_share": "ratio",
    "catalog.top_share": "ratio",
    "server.handler_share.rules": "ratio",
    "server.handler_share.rules_top": "ratio",
    "server.handler_share.query": "ratio",
    "server.handler_share.rules_for_item": "ratio",
    "server.handler_share.events_batch": "ratio",
    "server.handler_share.flush": "ratio",
    "server.outside_handler_share": "ratio",
    "admission.rejected": "count",
    "service.phase.apply_share": "ratio",
    "service.phase.refresh_share": "ratio",
    "service.estimate_share": "ratio",
    "journal.append_share": "ratio",
    "journal.bytes_per_event": "B/event",
    "journal.snapshots": "count",
    "journal.replayed_records": "count",
    "gen.late_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


#: Served warm-up before the measured window, as a share of its length.
WARMUP_SHARE = 0.15

#: Measured-window length of a ``--smoke`` run, in seconds.  A full run's
#: window is ``--seconds``, by default ``run_seconds`` in BENCHMARK.json.
SMOKE_SECONDS = 0.6


@dataclass(frozen=True)
class Scale:
    """Sizes and rates of one workload run."""

    n_tuples: int
    min_support: float
    min_confidence: float
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: In-process warm-up before the measured window, in flushes.
    warmup_flushes: int = 0
    #: In-process flushes per second of window, at the flush cost
    #: measured when the suite was written (2 CPUs, Python 3.11).
    flushes_per_second: float = 0.0
    shards: int = 1
    #: Open-loop request rates (per second) of the served workloads.
    read_rate: float = 0.0
    write_rate: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"inproc"`` (engine API in a child process) or ``"served"``.
    kind: str
    #: The operation ``op_ms_p50`` times.
    op: str
    #: The ``repro.synth.workloads`` constructor the inputs come from.
    generate: Callable
    full: Scale
    smoke: Scale
    #: Rules read by lift after each in-process flush (0: no reads).
    read_top: int = 0

    def scale(self, smoke: bool) -> Scale:
        return self.smoke if smoke else self.full


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="fig16-paper",
            kind="inproc",
            op="apply_batch of 32 events",
            generate=synth.paper_scale,
            full=Scale(n_tuples=8000, min_support=0.4, min_confidence=0.8,
                       setups=7, warmup_flushes=300,
                       flushes_per_second=200.0),
            smoke=Scale(n_tuples=1000, min_support=0.4,
                        min_confidence=0.8, setups=2,
                        warmup_flushes=20, flushes_per_second=200.0),
        ),
        Workload(
            name="sharded-lowsup",
            kind="inproc",
            op="apply_batch of 32 events, then catalog() and the top 10 "
               "rules by lift",
            generate=synth.dense_correlations,
            full=Scale(n_tuples=4000, min_support=0.05,
                       min_confidence=0.6, setups=9, shards=2,
                       warmup_flushes=12, flushes_per_second=8.0),
            smoke=Scale(n_tuples=600, min_support=0.1, min_confidence=0.6,
                        setups=2, shards=2, warmup_flushes=2,
                        flushes_per_second=8.0),
            read_top=10,
        ),
        Workload(
            name="serve-read",
            kind="served",
            op="exact read, open loop from its due time",
            generate=synth.paper_scale,
            full=Scale(n_tuples=8000, min_support=0.1, min_confidence=0.6,
                       setups=3, read_rate=300.0),
            smoke=Scale(n_tuples=1000, min_support=0.1,
                        min_confidence=0.6, setups=1, read_rate=100.0),
        ),
        Workload(
            name="serve-ingest",
            kind="served",
            op="POST /flush, journaled, applied and published",
            generate=synth.paper_scale,
            full=Scale(n_tuples=8000, min_support=0.4, min_confidence=0.8,
                       setups=5, read_rate=40.0, write_rate=20.0),
            smoke=Scale(n_tuples=1000, min_support=0.4,
                        min_confidence=0.8, setups=1,
                        read_rate=40.0, write_rate=20.0),
        ),
    )
}
