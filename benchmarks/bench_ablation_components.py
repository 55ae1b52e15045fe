"""E8 — ablations of the design choices DESIGN.md calls out.

Three components get switched off or stressed:

* **annotation index**: Figure 13's discovery counts by intersecting
  tidsets; the ablation compares a seeded index search against the full
  re-mine it replaces (the paper's stated reason for the index).
* **near-miss margin**: the engine keeps "candidate rules slightly
  below the minimum" (rules in the ``margin`` band) so updates can
  promote them from stored counts; margin=1.0 empties the band, so
  promotions are rediscovered from scratch by the seeded search.
* **δ-batch size sensitivity**: incremental cost should scale with the
  batch, not with the database.
"""

from __future__ import annotations

import pytest

from repro.baselines.remine import remine
from repro.core.engine import engine
from repro.synth.generator import generate_annotation_batch
from benchmarks._harness import fmt_ms, record, time_once


def _mined(workload, margin=0.75):
    manager = engine(
        workload.relation.copy(),
        min_support=workload.min_support,
        min_confidence=workload.min_confidence,
        margin=margin)
    manager.mine()
    return manager


def test_ablation_annotation_index(benchmark, case_workload):
    """Seeded index discovery vs the full scan it avoids."""
    manager = _mined(case_workload)
    batch = generate_annotation_batch(manager.relation, size=50, seed=21)
    indexed_seconds, _ = time_once(lambda: manager.add_annotations(batch))
    full_seconds, _ = time_once(
        lambda: remine(manager.relation,
                       min_support=case_workload.min_support,
                       min_confidence=case_workload.min_confidence))
    benchmark(lambda: None)
    record("E8_ablation_annotation_index", [
        f"delta via annotation index : {fmt_ms(indexed_seconds)}",
        f"delta via full re-mine     : {fmt_ms(full_seconds)}",
        f"index advantage            : "
        f"{full_seconds / max(indexed_seconds, 1e-9):6.1f}x",
    ])
    assert indexed_seconds < full_seconds


@pytest.mark.parametrize("margin", [1.0, 0.75, 0.5])
def test_ablation_margin(benchmark, case_workload, margin):
    """Smaller margins keep more near-misses; correctness must hold at
    every setting (margin=1.0 disables the candidate band entirely)."""
    manager = _mined(case_workload, margin=margin)
    batch = generate_annotation_batch(manager.relation, size=80, seed=31)

    seconds, report = time_once(lambda: manager.add_annotations(batch))
    benchmark(lambda: None)
    benchmark.extra_info["margin"] = margin
    benchmark.extra_info["table"] = len(manager.table)
    record(f"E8_ablation_margin_{margin}", [
        f"margin={margin}: table {len(manager.table)} patterns, "
        f"candidates {len(manager.candidates)}, "
        f"delta batch {fmt_ms(seconds)}",
    ])
    assert manager.verify_against_remine().equivalent


@pytest.mark.parametrize("batch_size", [10, 40, 160])
def test_ablation_batch_size_scaling(benchmark, case_workload, batch_size):
    """Incremental cost tracks |δ|, not |DB| (paper's efficiency claim)."""
    manager = _mined(case_workload)
    batch = generate_annotation_batch(manager.relation, size=batch_size,
                                      seed=batch_size)
    seconds, report = time_once(lambda: manager.add_annotations(batch))
    benchmark(lambda: None)
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["ms"] = round(seconds * 1000, 2)
    record(f"E8_ablation_batch_{batch_size}", [
        f"|delta|={batch_size:4d}: {fmt_ms(seconds)} "
        f"({report.tuples_scanned} tuples scanned)",
    ])
    assert report.tuples_scanned <= batch_size


def test_ablation_rule_compression(benchmark, case_workload):
    """Closed-itemset rule compression at low support — the standard
    answer to the blow-up behind the paper's 'magnitudes longer'
    observation; reported as rules shown to the curator before/after."""
    from repro.mining.closed import compress_rules, compression_ratio

    manager = engine(
        case_workload.relation.copy(),
        min_support=0.1,  # deliberately low: many redundant rules
        min_confidence=case_workload.min_confidence)
    manager.mine()
    compressed = benchmark(lambda: compress_rules(manager.rules))
    ratio = compression_ratio(manager.table.counts)
    record("E8_ablation_compression", [
        f"alpha=0.1: {len(manager.rules)} rules -> "
        f"{len(compressed)} after minimal-generator compression "
        f"({1 - len(compressed) / max(1, len(manager.rules)):.0%} fewer)",
        f"pattern table closure ratio: {ratio:.2f} "
        f"(closed / all frequent patterns)",
    ])
    assert len(compressed) <= len(manager.rules)

