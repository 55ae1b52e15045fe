"""Bottom-k tidset sketches: the mixer, single-item samples, the index.

The approximate serving tier stands on three unit-level guarantees
checked here: the hash mixer is a bijection (exhaustive samples *are*
the tidset), sketch maintenance tracks exact cardinalities through any
insert/discard churn, and every non-exact estimate stays inside its
feasible ceiling with a non-negative bound.
"""

import pytest

from repro.errors import MiningError
from repro.mining.sketch import (
    DEFAULT_SALT,
    Estimate,
    SketchIndex,
    TidsetSketch,
    combine_rule_estimate,
    mix64,
    sum_estimates,
    z_score,
)


class TestMix64:
    def test_bijective_on_a_dense_window(self):
        hashes = {mix64(value) for value in range(20_000)}
        assert len(hashes) == 20_000

    def test_deterministic_and_64_bit(self):
        assert mix64(12345) == mix64(12345)
        assert 0 <= mix64(0) < (1 << 64)
        assert 0 <= mix64((1 << 64) - 1) < (1 << 64)

    def test_salt_decorrelates(self):
        assert mix64(7, DEFAULT_SALT) != mix64(7, DEFAULT_SALT + 2)


class TestZScore:
    def test_standard_levels(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_monotone_in_the_level(self):
        assert z_score(0.99) > z_score(0.95) > z_score(0.5)

    @pytest.mark.parametrize("level", (0.0, 1.0, -0.5, 1.5))
    def test_out_of_range_rejected(self, level):
        with pytest.raises(MiningError, match=r"\(0, 1\)"):
            z_score(level)


class TestEstimate:
    def test_negative_bound_rejected(self):
        with pytest.raises(MiningError, match=">= 0"):
            Estimate(value=1.0, bound=-0.1, exact=False)

    def test_exactly(self):
        estimate = Estimate.exactly(4.0)
        assert estimate == Estimate(value=4.0, bound=0.0, exact=True)

    def test_sum_adds_values_and_bounds(self):
        total = sum_estimates([
            Estimate(3.0, 0.5, False),
            Estimate(2.0, 0.0, True),
            Estimate(1.0, 0.25, False),
        ])
        assert total.value == pytest.approx(6.0)
        assert total.bound == pytest.approx(0.75)
        assert not total.exact

    def test_sum_of_exacts_stays_exact(self):
        total = sum_estimates([Estimate.exactly(2.0), Estimate.exactly(3.0)])
        assert total == Estimate(5.0, 0.0, True)

    def test_empty_sum_is_exact_zero(self):
        assert sum_estimates([]) == Estimate(0.0, 0.0, True)


class TestCombineRuleEstimate:
    def test_arithmetic(self):
        combined = combine_rule_estimate(
            both=Estimate(3.0, 0.5, False),
            lhs=Estimate(6.0, 0.25, False),
            rhs_count=4, db_size=10)
        assert combined.support == pytest.approx(0.3)
        assert combined.support_bound == pytest.approx(0.05)
        assert combined.confidence == pytest.approx(0.5)
        # Ratio propagation: (d_both + conf * d_lhs) / lhs.
        assert combined.confidence_bound == pytest.approx(
            (0.5 + 0.5 * 0.25) / 6.0)
        assert combined.lift == pytest.approx(0.5 / 0.4)
        assert combined.lift_bound == pytest.approx(
            combined.confidence_bound / 0.4)
        assert combined.count == pytest.approx(3.0)
        assert not combined.exact

    def test_exact_inputs_give_exact_output(self):
        combined = combine_rule_estimate(
            both=Estimate.exactly(3.0), lhs=Estimate.exactly(6.0),
            rhs_count=4, db_size=10)
        assert combined.exact
        assert combined.confidence_bound == 0.0

    def test_bounds_clamped_into_unit_range(self):
        combined = combine_rule_estimate(
            both=Estimate(5.0, 100.0, False),
            lhs=Estimate(5.0, 100.0, False),
            rhs_count=5, db_size=10)
        assert combined.support_bound <= 1.0
        assert combined.confidence_bound <= 1.0

    def test_empty_database_yields_zeros(self):
        combined = combine_rule_estimate(
            both=Estimate.exactly(0.0), lhs=Estimate.exactly(0.0),
            rhs_count=0, db_size=0)
        assert combined.support == combined.confidence == combined.lift == 0.0


class TestTidsetSketch:
    def test_small_k_rejected(self):
        with pytest.raises(MiningError, match=">= 8"):
            TidsetSketch(k=4)

    def test_exhaustive_sample_is_the_tidset(self):
        sketch = TidsetSketch(k=16)
        tids = [3, 9, 27, 81]
        for tid in tids:
            sketch.insert(tid)
        assert sketch.is_exhaustive
        assert sketch.cardinality == len(sketch) == 4
        assert sketch.sample == {mix64(tid) for tid in tids}

    def test_overflow_keeps_the_bottom_k(self):
        sketch = TidsetSketch(k=16)
        tids = range(200)
        for tid in tids:
            sketch.insert(tid)
        assert not sketch.is_exhaustive
        assert sketch.cardinality == 200
        expected = sorted(mix64(tid) for tid in tids)[:16]
        assert sorted(sketch.sample) == expected
        assert sketch.max_hash == expected[-1]

    def test_from_tids_equals_incremental_inserts(self):
        tids = list(range(0, 300, 7))
        bulk = TidsetSketch.from_tids(tids, k=16)
        incremental = TidsetSketch(k=16)
        for tid in tids:
            incremental.insert(tid)
        assert bulk.sample == incremental.sample
        assert bulk.cardinality == incremental.cardinality

    def test_discard_from_exhaustive_sketch(self):
        sketch = TidsetSketch.from_tids([1, 2, 3], k=8)
        sketch.discard(2)
        assert sketch.sample == {mix64(1), mix64(3)}
        assert sketch.cardinality == 2

    def test_discard_unsampled_tid_keeps_the_sample(self):
        tids = list(range(100))
        sketch = TidsetSketch.from_tids(tids, k=8)
        victim = max(tids, key=mix64)   # certainly not in the bottom-8
        assert mix64(victim) not in sketch
        before = sketch.sample
        sketch.discard(victim)          # no remaining tidset needed
        assert sketch.sample == before
        assert sketch.cardinality == 99

    def test_discard_sampled_tid_rebuilds_from_survivors(self):
        tids = list(range(100))
        sketch = TidsetSketch.from_tids(tids, k=8)
        victim = min(tids, key=mix64)   # certainly in the bottom-8
        survivors = [tid for tid in tids if tid != victim]
        sketch.discard(victim, survivors)
        assert sorted(sketch.sample) == sorted(
            mix64(tid) for tid in survivors)[:8]
        assert sketch.cardinality == 99

    def test_discard_sampled_without_survivors_rejected(self):
        tids = list(range(100))
        sketch = TidsetSketch.from_tids(tids, k=8)
        victim = min(tids, key=mix64)
        with pytest.raises(MiningError, match="remaining tidset"):
            sketch.discard(victim)

    def test_empty_sketch_has_no_max_hash(self):
        with pytest.raises(MiningError, match="empty"):
            TidsetSketch(k=8).max_hash


class TestSketchIndex:
    def test_from_mapping_skips_empty_tidsets(self):
        index = SketchIndex.from_mapping({1: [0, 1], 2: []}, k=8)
        assert 1 in index and 2 not in index
        assert index.items() == [1]

    def test_observer_protocol_tracks_cardinality(self):
        index = SketchIndex(k=8)
        for tid in range(30):
            index.on_add(5, tid)
        assert index.cardinality(5) == 30
        # Deletes always pass the remaining tidset; the sketch only
        # looks at it when a sampled hash leaves a full sample.
        remaining = set(range(30))
        for tid in range(10):
            remaining.discard(tid)
            index.on_discard(5, tid, set(remaining))
        assert index.cardinality(5) == 20

    def test_item_dropped_at_zero_cardinality(self):
        index = SketchIndex(k=8)
        index.on_add(7, 0)
        index.on_discard(7, 0, ())
        assert 7 not in index and len(index) == 0
        assert index.cardinality(7) == 0

    def test_discard_of_unknown_item_is_a_noop(self):
        index = SketchIndex(k=8)
        index.on_discard(99, 0, ())
        assert len(index) == 0

    def test_exhaustive_intersection_is_exact(self):
        index = SketchIndex.from_mapping(
            {1: range(0, 60, 2), 2: range(0, 60, 3)}, k=64)
        estimate = index.itemset_estimate((1, 2))
        assert estimate.exact and estimate.bound == 0.0
        assert estimate.value == 10.0   # multiples of 6 below 60

    def test_missing_item_short_circuits_to_zero(self):
        index = SketchIndex.from_mapping({1: range(10)}, k=8)
        assert index.itemset_estimate((1, 99)) == Estimate.exactly(0.0)

    def test_empty_itemset_rejected(self):
        with pytest.raises(MiningError, match="at least one item"):
            SketchIndex(k=8).itemset_estimate(())

    def test_sampled_estimate_respects_the_feasible_ceiling(self):
        index = SketchIndex.from_mapping(
            {1: range(0, 4000, 2), 2: range(0, 4000, 3)}, k=16)
        estimate = index.itemset_estimate((1, 2))
        assert not estimate.exact
        ceiling = min(index.cardinality(1), index.cardinality(2))
        assert 0.0 <= estimate.value <= ceiling
        assert 0.0 <= estimate.bound <= ceiling

    def test_sampled_estimate_covers_the_true_count(self):
        # 2000/2000 tids with exactly 500 shared: deterministic hashes,
        # so this is a fixed regression point, not a flaky sample.
        shared = range(0, 500)
        index = SketchIndex.from_mapping(
            {1: [*shared, *range(10_000, 11_500)],
             2: [*shared, *range(20_000, 21_500)]}, k=64)
        estimate = index.itemset_estimate((1, 2), z=2.0)
        assert not estimate.exact
        assert abs(estimate.value - 500.0) <= estimate.bound

    def test_rule_estimate_exact_at_small_scale(self):
        index = SketchIndex.from_mapping(
            {1: range(8), 2: range(4, 12)}, k=64)
        rule = index.rule_estimate((1,), 2, db_size=12)
        assert rule.exact
        assert rule.support == pytest.approx(4 / 12)
        assert rule.confidence == pytest.approx(4 / 8)
        assert rule.lift == pytest.approx((4 / 8) / (8 / 12))
