"""E10 — the serving read path: catalog queries vs. linear rule scans.

The exploitation story of the paper ("compare each tuple with the
valid association rules") and every serving surface built on it ask
the same few questions of the rule set over and over: which rules
mention this item, which rules predict this annotation, which rules
are the strongest.  Before the catalog, each such read was a linear
scan (plus a per-call sort for top-k); the catalog answers all of
them from secondary indexes and presorted metric orderings built
*once per engine revision*.

This experiment mines a rule-dense workload (fig7-scale tuple count,
thresholds low enough for a few thousand rules), then replays a mixed
query log — top-k by metric, by-item, by-RHS — twice: brute-force
linear scans over ``engine.rules`` versus the warm catalog.  Answers
are asserted identical, and the acceptance target is a >= 10x indexed
speedup for the top-k and by-item classes at full scale.  A final
section measures hot-revision reuse: repeated unchanged-revision
``service.snapshot()`` calls must return the same object (no per-call
rule copying) in ~O(1).

CI smoke shrinks the scale via ``REPRO_QUERY_TUPLES``.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.app.service import CorrelationService
from repro.core.catalog import METRICS, RuleCatalog, metric_key
from repro.core.config import EngineConfig
from repro.core.engine import engine
from repro.synth import workloads
from benchmarks._harness import fmt_ms, record, time_once

#: Full-scale defaults; CI smoke shrinks the tuple count.
N_TUPLES = int(os.environ.get("REPRO_QUERY_TUPLES", "2000"))
#: Queries per class in the replayed log.
N_QUERIES = int(os.environ.get("REPRO_QUERY_QUERIES", "300"))
#: Thresholds low enough that the rule set is fig7-dense (thousands of
#: rules at full scale) — the regime where the read path matters.
MIN_SUPPORT = 0.02
MIN_CONFIDENCE = 0.2
TOP_K = 10
FULL_SCALE = N_TUPLES >= 2000 and N_QUERIES >= 100
TARGET_SPEEDUP = 10.0


@pytest.fixture(scope="module")
def query_workload():
    return workloads.dense_correlations(n_tuples=N_TUPLES, seed=41)


@pytest.fixture(scope="module")
def query_manager(query_workload):
    manager = engine(
        query_workload.relation.copy(),
        min_support=MIN_SUPPORT,
        min_confidence=MIN_CONFIDENCE)
    manager.mine()
    return manager


def _query_log(catalog, queries):
    """A deterministic mixed query log over the catalog's vocabulary."""
    rng = random.Random(59)
    items = list(catalog.items())
    rhs_items = list(catalog.rhs_items())
    return {
        "topk": [rng.choice(METRICS) for _ in range(queries)],
        "item": [rng.choice(items) for _ in range(queries)],
        "rhs": [rng.choice(rhs_items) for _ in range(queries)],
    }


def test_query_path_catalog_vs_linear_scan(benchmark, query_manager):
    build_seconds, catalog = time_once(query_manager.catalog)
    # The baseline scans the same canonical listing the catalog serves,
    # so result *order* is identical and only the lookup cost differs.
    rules_list = list(catalog.rules)
    log = _query_log(catalog, N_QUERIES)

    # -- linear-scan baseline: what every caller did before ---------------
    def linear_topk(metric):
        return sorted(rules_list, key=metric_key(metric))[:TOP_K]

    def linear_item(item):
        return [rule for rule in rules_list if item in rule.union_itemset]

    def linear_rhs(rhs):
        return [rule for rule in rules_list if rule.rhs == rhs]

    linear_seconds = {}
    linear_answers = {}
    for name, run, queries in [
        ("topk", linear_topk, log["topk"]),
        ("item", linear_item, log["item"]),
        ("rhs", linear_rhs, log["rhs"]),
    ]:
        started = time.perf_counter()
        linear_answers[name] = [run(argument) for argument in queries]
        linear_seconds[name] = time.perf_counter() - started

    # -- indexed path: the same log against the warm catalog --------------
    def catalog_topk(metric):
        return catalog.top(TOP_K, by=metric)

    def catalog_item(item):
        return catalog.mentioning(item)

    def catalog_rhs(rhs):
        return catalog.with_rhs(rhs)

    catalog_seconds = {}
    catalog_answers = {}
    for name, run, queries in [
        ("topk", catalog_topk, log["topk"]),
        ("item", catalog_item, log["item"]),
        ("rhs", catalog_rhs, log["rhs"]),
    ]:
        started = time.perf_counter()
        catalog_answers[name] = [run(argument) for argument in queries]
        catalog_seconds[name] = time.perf_counter() - started

    # Headline measurement: the indexed replay of the whole mixed log.
    benchmark.pedantic(
        lambda: ([catalog_topk(m) for m in log["topk"]],
                 [catalog_item(i) for i in log["item"]],
                 [catalog_rhs(r) for r in log["rhs"]]),
        rounds=1, iterations=1)

    # Indexed answers must equal the brute-force answers, exactly.
    for name in ("topk", "item", "rhs"):
        for linear, indexed in zip(linear_answers[name],
                                   catalog_answers[name]):
            assert list(indexed) == list(linear), (
                f"catalog {name} query diverged from linear scan")

    speedups = {
        name: (linear_seconds[name] / catalog_seconds[name]
               if catalog_seconds[name] else float("inf"))
        for name in linear_seconds}
    per_query = {name: catalog_seconds[name] / N_QUERIES
                 for name in catalog_seconds}
    record("E10_query_path", [
        f"tuples={N_TUPLES} rules={len(catalog)} queries={N_QUERIES}/class",
        f"catalog build (once per revision): {fmt_ms(build_seconds)}",
        f"top-{TOP_K} by metric : linear {fmt_ms(linear_seconds['topk'])}"
        f"  catalog {fmt_ms(catalog_seconds['topk'])}"
        f"  speedup {speedups['topk']:8.1f}x",
        f"by-item         : linear {fmt_ms(linear_seconds['item'])}"
        f"  catalog {fmt_ms(catalog_seconds['item'])}"
        f"  speedup {speedups['item']:8.1f}x",
        f"by-RHS          : linear {fmt_ms(linear_seconds['rhs'])}"
        f"  catalog {fmt_ms(catalog_seconds['rhs'])}"
        f"  speedup {speedups['rhs']:8.1f}x",
        f"per-query latency (catalog): "
        f"topk {per_query['topk'] * 1e6:7.1f} us  "
        f"item {per_query['item'] * 1e6:7.1f} us  "
        f"rhs {per_query['rhs'] * 1e6:7.1f} us",
        f"answers: catalog == linear for all {3 * N_QUERIES} queries "
        f"(target >= {TARGET_SPEEDUP}x at full scale: {FULL_SCALE})",
    ])
    if FULL_SCALE:
        assert speedups["topk"] >= TARGET_SPEEDUP, (
            f"indexed top-k only {speedups['topk']:.1f}x faster than "
            f"linear scan (target {TARGET_SPEEDUP}x)")
        assert speedups["item"] >= TARGET_SPEEDUP, (
            f"indexed by-item only {speedups['item']:.1f}x faster than "
            f"linear scan (target {TARGET_SPEEDUP}x)")


def test_query_path_hot_revision_reuse(query_workload):
    """Unchanged-revision reads: snapshot() returns the same object,
    catalog() the same indexes — no per-call rule copying."""
    config = EngineConfig(min_support=MIN_SUPPORT,
                          min_confidence=MIN_CONFIDENCE)
    service = CorrelationService(config=config)
    service.create("bench", query_workload.relation.copy())

    reads = max(100, N_QUERIES)
    first = service.snapshot("bench")
    started = time.perf_counter()
    for _ in range(reads):
        snap = service.snapshot("bench")
        assert snap is first  # identity: zero rules copied per call
    hot_seconds = time.perf_counter() - started

    # What every read used to pay: a fresh sorted copy of the rules
    # (the old ``_snapshot_locked`` body, re-run per call).
    rules = service.catalog("bench").rules
    started = time.perf_counter()
    for _ in range(reads):
        tuple(sorted(rules, key=metric_key("confidence")))
    rebuild_seconds = time.perf_counter() - started

    # A full catalog rebuild per read, for scale (nobody should).
    started = time.perf_counter()
    for _ in range(max(1, reads // 100)):
        RuleCatalog(rules)
    cold_build = (time.perf_counter() - started) / max(1, reads // 100)

    speedup = (rebuild_seconds / hot_seconds if hot_seconds
               else float("inf"))
    record("E10_query_path_hot_reads", [
        f"tuples={N_TUPLES} rules={len(rules)} reads={reads}",
        f"hot snapshot() x{reads}   : {fmt_ms(hot_seconds)} "
        f"({hot_seconds / reads * 1e6:7.1f} us/read, same object)",
        f"per-read copy (old path) : {fmt_ms(rebuild_seconds)} "
        f"-> {speedup:.1f}x",
        f"full catalog rebuild     : {fmt_ms(cold_build)} each "
        f"(paid once per revision)",
    ])
    if FULL_SCALE:
        assert speedup >= TARGET_SPEEDUP, (
            f"hot snapshot reads only {speedup:.1f}x faster than "
            f"per-call copying (target {TARGET_SPEEDUP}x)")
