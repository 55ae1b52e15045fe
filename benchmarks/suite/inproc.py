"""In-process workloads: the paper's engine, driven through its API.

A run executes in a process of its own (``python -m
benchmarks.suite.inproc SPEC``), so its peak RSS is the system under
test's alone, and prints its result as one JSON line.  Each run:

1. builds the engine on a fresh copy of the relation and mines it
   (``setup_s`` times construction plus the mine, ``mine_s`` the mine
   alone); the other ``setups - 1`` set-ups run during the window;
2. applies 32-event batches from a stationary stream: a fixed count of
   warm-up flushes, then the measured window, ``seconds`` times the
   workload's nominal flush rate; the sharded workload also reads the
   top rules by lift after each flush, as a served client would
   (``op_ms_p50`` times one such step: the ``apply_batch`` and any
   read after it);
3. re-mines from scratch and checks the maintained rules against it.

``gc.collect()`` runs before every set-up and before the window.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter

import repro
from repro.core.config import EngineConfig

from benchmarks.suite.common import Result, peak_rss_mb, share
from benchmarks.suite.stats import highest_tail, median
from benchmarks.suite.streams import (
    StationaryStream,
    make_inputs,
    relation_from_rows,
)
from benchmarks.suite.workloads import WORKLOADS

#: Events per flush: the queue depth one served flush typically drains.
BATCH_EVENTS = 32

MINE_PHASES = {"encode": "engine.mine.encode_share",
               "mine": "engine.mine.mine_share",
               "refresh": "engine.mine.refresh_share",
               "partition": "shard.mine.partition_share",
               "build": "shard.mine.build_share",
               "merge": "shard.mine.merge_share"}
FLUSH_PHASES = {"apply": "engine.flush.apply_share",
                "refresh": "engine.flush.refresh_share",
                "partition": "shard.flush.partition_share",
                "merge": "shard.flush.merge_share"}


class _Tracer:
    """Per-layer accounting from the reports the engine already returns
    and from the benchmark's own timers around each layer call.  Its
    own cost is timed too and reported as ``trace.overhead_frac``."""

    def __init__(self) -> None:
        self.cost = 0.0
        self.mine_wall = 0.0
        self.mine_phases: Counter = Counter()
        self.flush_wall = 0.0
        self.flush_phases: Counter = Counter()
        self.op_wall = 0.0
        self.flushes = 0
        self.events = 0
        self.dirty = 0
        self.scanned = 0
        self.reshaped = 0
        self.coalesced = 0
        self.catalog_s = 0.0
        self.top_s = 0.0
        self.catalog_builds = 0
        self.overruns = 0

    def _phases(self, report, wall: float, into: Counter) -> None:
        into.update(report.phases.wall)
        if sum(report.phases.wall.values()) > wall:
            self.overruns += 1

    def mine(self, report, wall: float) -> None:
        started = time.perf_counter()
        self.mine_wall += wall
        self._phases(report, wall, self.mine_phases)
        self.cost += time.perf_counter() - started

    def flush(self, report, wall: float, op_wall: float,
              catalog_s: float, top_s: float, rebuilt: bool) -> None:
        started = time.perf_counter()
        self.flushes += 1
        self.flush_wall += wall
        self.op_wall += op_wall
        self._phases(report, wall, self.flush_phases)
        self.events += report.events
        self.dirty += report.patterns_dirty
        self.scanned += sum(case.tuples_scanned
                            for case in report.case_reports)
        self.reshaped += any(case.patterns_added or case.patterns_pruned
                             for case in report.case_reports)
        stats = report.plan_stats
        self.coalesced += (stats.pairs_cancelled + stats.pairs_collapsed
                           + stats.pairs_folded_into_inserts
                           + stats.inserts_elided)
        self.catalog_s += catalog_s
        self.top_s += top_s
        self.catalog_builds += rebuilt
        self.cost += time.perf_counter() - started

    def report(self, result: Result, *, remine_s: float, rules: int,
               loop_wall: float) -> None:
        metrics = result.metrics
        for phase, name in MINE_PHASES.items():
            metrics[name] = share(self.mine_phases[phase], self.mine_wall)
        for phase, name in FLUSH_PHASES.items():
            metrics[name] = share(self.flush_phases[phase], self.flush_wall)
        flushes = max(self.flushes, 1)
        metrics["engine.flush.patterns_dirty"] = self.dirty / flushes
        metrics["engine.flush.tuples_scanned_per_event"] = share(
            self.scanned, self.events)
        metrics["engine.flush.reshape_frac"] = self.reshaped / flushes
        metrics["engine.flush.speedup_vs_remine"] = share(
            remine_s, self.flush_wall / flushes)
        metrics["deltas.coalesced_frac"] = share(self.coalesced, self.events)
        metrics["baseline.remine_s"] = remine_s
        metrics["engine.rules"] = rules
        metrics["catalog.builds_per_op"] = self.catalog_builds / flushes
        metrics["catalog.build_share"] = share(self.catalog_s, self.op_wall)
        metrics["catalog.top_share"] = share(self.top_s, self.op_wall)
        metrics["trace.overhead_frac"] = share(
            self.cost, self.mine_wall + loop_wall)
        result.check("phases sum within the wall of their call",
                     self.overruns == 0, f"{self.overruns} overrun(s)")


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Result:
    spec = WORKLOADS[workload]
    scale = spec.scale(smoke)
    read_top = spec.read_top
    inputs = make_inputs(spec.generate, scale.n_tuples, seed)
    base = relation_from_rows(inputs.rows)
    config = EngineConfig(min_support=scale.min_support,
                          min_confidence=scale.min_confidence,
                          shards=scale.shards)
    result = Result(workload, traced=trace)
    tracer = _Tracer() if trace else None
    setups: list[float] = []
    mines: list[float] = []

    def set_up():
        """Construct an engine on a fresh copy of the relation and mine
        it."""
        relation = base.copy()
        gc.collect()
        started = time.perf_counter()
        engine = repro.engine(relation, config)
        mine_started = time.perf_counter()
        report = engine.mine()
        done = time.perf_counter()
        setups.append(done - started)
        mines.append(done - mine_started)
        result.attempted += 1
        if tracer is not None:
            tracer.mine(report, done - mine_started)
        return engine

    engine = set_up()
    stream = StationaryStream(inputs.rows, inputs.insert_pool,
                              seed=inputs.stream_seed)
    start_size = engine.db_size
    top_ordered = True
    catalog = None

    def flush() -> tuple:
        """One flush (and, when the workload reads, one top-k read):
        ``(report, flush seconds, step seconds, catalog seconds, top
        seconds, catalog rebuilt)``."""
        nonlocal top_ordered, catalog
        batch = stream.batch(BATCH_EVENTS)
        started = time.perf_counter()
        report = engine.apply_batch(batch)
        flushed = time.perf_counter()
        if not read_top:
            return report, flushed - started, flushed - started, 0.0, 0.0, \
                False
        current = engine.catalog()
        catalogued = time.perf_counter()
        top = current.query().top(read_top, by="lift")
        done = time.perf_counter()
        rebuilt, catalog = current is not catalog, current
        lifts = [rule.lift for rule in top]
        top_ordered &= (lifts == sorted(lifts, reverse=True)
                        and len(top) == min(read_top, len(current)))
        return (report, flushed - started, done - started,
                catalogued - flushed, done - catalogued, rebuilt)

    for _ in range(scale.warmup_flushes):
        flush()

    # The window is a fixed amount of work, sized from ``seconds`` at
    # the workload's nominal flush rate: every flush grows the tid range
    # (inserts take fresh tids), so a window of fixed *time* would end
    # in a different state, at a different cost, on a slower machine.
    # The remaining set-ups are spread evenly through it, so one slow
    # stretch of the machine cannot skew all of them at once.
    flushes = max(1, round(seconds * scale.flushes_per_second))
    set_up_after = {flushes * index // scale.setups
                    for index in range(1, scale.setups)}
    flush_times: list[float] = []
    step_times: list[float] = []
    events = 0
    loop_wall = 0.0
    gc.collect()
    for index in range(flushes):
        if index in set_up_after:
            set_up().close()
            gc.collect()
        report, flush_s, step_s, catalog_s, top_s, rebuilt = flush()
        result.attempted += 1
        flush_times.append(flush_s)
        step_times.append(step_s)
        loop_wall += step_s
        events += report.events
        if tracer is not None:
            tracer.flush(report, flush_s, step_s, catalog_s, top_s, rebuilt)
    rss = peak_rss_mb()

    verify_started = time.perf_counter()
    verification = engine.verify_against_remine()
    remine_s = time.perf_counter() - verify_started
    rules = len(engine.rules)
    result.check("verify_against_remine equivalent",
                 verification.equivalent, verification.explain())
    result.check_stationary(start_size, engine.db_size, rules)
    if read_top:
        result.check("top rules ordered by lift", top_ordered)
    engine.close()

    if tracer is not None:
        tracer.report(result, remine_s=remine_s, rules=rules,
                      loop_wall=loop_wall)
    result.record("setup_s", median(setups))
    result.record("mine_s", median(mines))
    result.record("op_ms_p50", median(step_times) * 1000.0)
    result.record("rss_peak_mb", rss)
    result.detail["flushes"] = (len(flush_times), "count")
    result.detail["events_per_s"] = (events / loop_wall, "1/s")
    result.detail["remine_s"] = (remine_s, "s")
    timed = [("op", step_times)]
    if read_top:
        result.detail["flush_ms_p50"] = (median(flush_times) * 1000.0, "ms")
        timed.append(("flush", flush_times))
    for name, samples in timed:
        tail = highest_tail(samples)
        if tail is not None:
            result.detail[f"{name}_ms_p{tail[0]:g}"] = (tail[1] * 1000.0,
                                                       "ms")
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = run(**spec)
    print(json.dumps(result.as_dict()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
