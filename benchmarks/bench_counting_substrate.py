"""E10 — the counting substrate: set tidsets vs bitmap tidsets.

The same candidate patterns counted by intersecting classic
``dict[int, set[int]]`` tidsets inline and through
:class:`~repro.mining.bitmap.BitmapIndex` — the headline number the
substrate every engine mine runs on has to win — plus the bulk bitmap
build (:func:`~repro.mining.bitmap.bits_from_tids`) against the per-tid
reference it replaced.
"""

from __future__ import annotations

import pytest

from repro.core.engine import engine
from repro.mining.bitmap import BitmapIndex, bits_from_tids
from repro.mining.eclat import build_vertical_index
from repro.synth import workloads
from benchmarks._harness import fmt_ms, record, time_once


@pytest.fixture(scope="module")
def fig7_workload():
    return workloads.dense_correlations()


def test_bitmap_beats_set_counting(benchmark, fig7_workload):
    """The headline: counting the mined pattern table through bitmap
    tidsets must beat the classic set-based tidsets on the same work."""
    manager = engine(fig7_workload.relation.copy(),
                     min_support=0.2, min_confidence=0.6)
    manager.mine()
    patterns = sorted(manager.table)
    transactions = list(manager.database.transactions)

    set_index = build_vertical_index(transactions)
    bitmap_index = BitmapIndex.from_transactions(transactions)

    def count_all_sets():
        return [len(set.intersection(*(set_index[item] for item in pattern)))
                for pattern in patterns]

    def count_all_bitmaps():
        return [bitmap_index.count(pattern) for pattern in patterns]

    assert count_all_sets() == count_all_bitmaps()

    # Repeat the whole table count to push both paths well past noise.
    rounds = 20
    set_seconds, _ = time_once(
        lambda: [count_all_sets() for _ in range(rounds)])
    bitmap_seconds = benchmark.pedantic(
        lambda: time_once(
            lambda: [count_all_bitmaps() for _ in range(rounds)])[0],
        rounds=1, iterations=1)

    speedup = set_seconds / bitmap_seconds if bitmap_seconds else float("inf")
    record("E10_bitmap_vs_set_counting", [
        f"workload: dense_correlations ({len(transactions)} transactions), "
        f"{len(patterns)} patterns x {rounds} rounds",
        f"set-based tidsets : {fmt_ms(set_seconds)}",
        f"bitmap tidsets    : {fmt_ms(bitmap_seconds)}",
        f"speedup           : {speedup:8.2f}x",
    ])
    assert bitmap_seconds < set_seconds, (
        f"bitmap counting ({bitmap_seconds:.4f}s) did not beat set-based "
        f"counting ({set_seconds:.4f}s)")


def test_from_tids_bulk_build_beats_per_tid(benchmark):
    """Micro-row: the bytearray bulk build of ``bits_from_tids``
    against the per-tid ``bits |= 1 << tid`` reference it replaced.

    On a sparse tidset over a large tid range the reference rebuilds
    the whole big int per insertion — quadratic — while the bulk build
    touches one byte per tid and converts once.
    """
    import random

    rng = random.Random(19)
    tid_range, n_tids = 400_000, 25_000
    tids = rng.sample(range(tid_range), n_tids)

    def per_tid_reference():
        bits = 0
        for tid in tids:
            bits |= 1 << tid
        return bits

    reference_seconds, reference_bits = time_once(per_tid_reference)
    bulk_seconds = benchmark.pedantic(
        lambda: time_once(lambda: bits_from_tids(tids))[0],
        rounds=1, iterations=1)

    assert bits_from_tids(tids) == reference_bits
    speedup = (reference_seconds / bulk_seconds if bulk_seconds
               else float("inf"))
    record("E10_from_tids_bulk_build", [
        f"{n_tids} tids drawn from a {tid_range}-tid range",
        f"per-tid |= 1 << tid : {fmt_ms(reference_seconds)}",
        f"bytearray bulk build: {fmt_ms(bulk_seconds)}",
        f"speedup             : {speedup:8.2f}x",
    ])
    assert bulk_seconds < reference_seconds, (
        f"bulk bits_from_tids ({bulk_seconds:.4f}s) did not beat the per-tid "
        f"rebuild ({reference_seconds:.4f}s)")
