"""Differential suite: the big-int bitmap substrate ≡ Python sets.

Every vertical miner and the SON phase-2 merge count through
:mod:`repro.mining.bitmap`, so its answers must be indistinguishable
from the obvious set-of-tids reference: the conversions between tids
and bits and the ``&``/popcount the miners apply to them, every index
query, the maintained index against a rebuild, and the merge against a
recount of the whole database.  Randomized
sequences are seeded through the session router (replay any failure
with ``--seed``); fixed cases pin the byte (8) and word (64) seams,
tid 0 and the maximum tid.
"""

import pytest

from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.bitmap import BitmapIndex, bits_from_tids, tids_from_bits
from repro.mining.eclat import (
    build_vertical_index,
    count_itemset,
    mine_frequent_itemsets_vertical,
    tids_of,
)
from repro.mining.son import merge_counts


def shifted_bits(tids):
    """The per-tid ``1 << tid`` reference the bulk builders replace."""
    bits = 0
    for tid in tids:
        bits |= 1 << tid
    return bits


def random_transactions(rng, n_tuples, universe):
    return [
        frozenset(rng.sample(universe, rng.randint(0, min(5, len(universe)))))
        for _ in range(n_tuples)
    ]


FIXED_CASES = [
    [set()],
    [{0}],
    [{63}, {64}, {65}],                      # word seam
    [{7, 8}, {0, 7, 8, 15, 16}],             # byte seams
    [{0, 511, 512, 513}],
    [set(range(64))],                        # dense full word
    [set(range(130)), {129}],                # max tid at an odd width
    [{0}, set(), {70_000}],                  # empty tidset between others
    [{70_001}, set(range(69_995, 70_002))],  # far tid, odd offset
]


class TestBitConversionDifferential:
    @pytest.mark.parametrize("tid_sets", FIXED_CASES)
    def test_fixed_edge_cases(self, tid_sets):
        vectors = [bits_from_tids(tids) for tids in tid_sets]
        for bits, tids in zip(vectors, tid_sets):
            assert bits == shifted_bits(tids)
            assert tids_from_bits(bits) == sorted(tids)
            assert bits.bit_count() == len(tids)
            assert bool(bits) == bool(tids)
        for left, left_tids in zip(vectors, tid_sets):
            for right, right_tids in zip(vectors, tid_sets):
                assert tids_from_bits(left & right) == sorted(
                    left_tids & right_tids)
                assert (left & right).bit_count() == len(
                    left_tids & right_tids)

    def test_randomized_op_sequences(self, seeds):
        """Random ``&`` chains, popcounts, truthiness and tid listings,
        including results fed back in as operands, agree with sets."""
        rng = seeds.rng(83)
        for _ in range(15):
            universe = rng.choice((70, 65, 513))
            reference = [
                set(rng.sample(range(universe),
                               rng.randint(0, universe // 2)))
                for _ in range(rng.randint(1, 6))
            ]
            vectors = [bits_from_tids(tids) for tids in reference]
            for _ in range(40):
                left = rng.randrange(len(reference))
                right = rng.randrange(len(reference))
                op = rng.choice(("&", "count", "list", "bool"))
                if op == "&":
                    expected = reference[left] & reference[right]
                    got = vectors[left] & vectors[right]
                    assert tids_from_bits(got) == sorted(expected)
                    reference.append(expected)
                    vectors.append(got)
                elif op == "count":
                    assert vectors[left].bit_count() == len(reference[left])
                elif op == "list":
                    assert tids_from_bits(vectors[left]) == sorted(
                        reference[left])
                else:
                    assert bool(vectors[left]) == bool(reference[left])


class TestBitmapIndexDifferential:
    def test_index_queries_match_set_index(self, seeds):
        rng = seeds.rng(89)
        for _ in range(8):
            transactions = [
                frozenset(rng.sample(range(12), rng.randint(0, 7)))
                for _ in range(rng.randint(1, 40))
            ]
            reference = build_vertical_index(transactions)
            index = BitmapIndex.from_transactions(transactions)
            assert index.items() == sorted(reference)
            assert len(index) == len(reference)
            for item, tids in reference.items():
                assert item in index
                assert index.frequency(item) == len(tids)
                assert tids_from_bits(index.bits(item)) == sorted(tids)
            items = index.items()
            view = index.as_mapping()
            for _ in range(20):
                itemset = tuple(sorted(rng.sample(
                    items, rng.randint(1, min(4, len(items))))))
                expected_tids = set.intersection(
                    *(reference[item] for item in itemset))
                assert index.count(itemset) == len(expected_tids)
                assert count_itemset(view, itemset) == len(expected_tids)
                assert index.tids_of(itemset) == expected_tids
                assert tids_of(view, itemset) == expected_tids
            assert index.count((99,)) == 0
            assert index.frequency(99) == 0
            assert index.tids_of((99,)) == set()

    def test_vertical_mine_matches_apriori_and_set_recount(self, seeds):
        """The eclat search itself — extension order, DFS, floors —
        returns the identical table over a bitmap view, from its own
        index build and from the horizontal Apriori miner; every count
        equals a set-intersection recount."""
        rng = seeds.rng(97)
        for _ in range(5):
            transactions = [
                frozenset(rng.sample(range(10), rng.randint(1, 6)))
                for _ in range(rng.randint(5, 30))
            ]
            floor = rng.randint(1, 4)
            over_bitmaps = mine_frequent_itemsets_vertical(
                (), min_count=floor,
                index=BitmapIndex.from_transactions(transactions)
                .as_mapping())
            self_indexed = mine_frequent_itemsets_vertical(
                transactions, min_count=floor)
            horizontal = mine_frequent_itemsets(transactions,
                                                min_count=floor)
            assert over_bitmaps == self_indexed
            assert over_bitmaps == horizontal
            reference = build_vertical_index(transactions)
            for itemset, count in over_bitmaps.items():
                assert count == len(set.intersection(
                    *(reference[item] for item in itemset)))

    def test_merge_counts_equal_a_whole_database_recount(self, seeds):
        """SON phase 2 over per-shard bitmap indexes returns exactly the
        table mining the concatenated database would."""
        rng = seeds.rng(101)
        shards = [
            [frozenset(rng.sample(range(9), rng.randint(0, 5)))
             for _ in range(rng.randint(1, 25))]
            for _ in range(3)
        ]
        whole = [transaction for shard in shards for transaction in shard]
        shard_floor, global_floor = 2, 4
        union = set()
        for shard in shards:
            union.update(mine_frequent_itemsets(shard,
                                                min_count=shard_floor))
        merged = merge_counts(
            union,
            [BitmapIndex.from_transactions(shard).as_mapping()
             for shard in shards],
            floor=global_floor)
        # Any count of 4 over 3 shards puts at least 2 in one shard, so
        # the union holds every globally frequent itemset.
        assert merged == mine_frequent_itemsets(whole,
                                                min_count=global_floor)
        reference = build_vertical_index(whole)
        for itemset, count in merged.items():
            assert count == len(set.intersection(
                *(reference[item] for item in itemset)))

    def test_maintained_index_matches_a_rebuild(self, seeds):
        """Random add/discard streams leave the index equal to one built
        from the resulting database; emptied buckets disappear."""
        rng = seeds.rng(103)
        for _ in range(6):
            transactions = [set(t) for t in random_transactions(
                rng, rng.randint(1, 90), universe=range(1, 10))]
            index = BitmapIndex.from_transactions(
                [frozenset(t) for t in transactions])
            for _ in range(60):
                tid = rng.randrange(len(transactions))
                item = rng.randrange(1, 10)
                if rng.random() < 0.5:
                    index.add(item, tid)
                    transactions[tid].add(item)
                else:
                    present = item in transactions[tid]
                    assert index.discard(item, tid) is present
                    transactions[tid].discard(item)
            rebuilt = BitmapIndex.from_transactions(
                [frozenset(t) for t in transactions])
            assert index.items() == rebuilt.items()
            for item in rebuilt.items():
                assert index.bits(item) == rebuilt.bits(item)


def assert_index_matches_shift_reference(transactions):
    """Bulk build, incremental ``add`` build and the per-tid shift
    reference agree bit for bit on every item."""
    bulk = BitmapIndex.from_transactions(transactions)
    incremental = BitmapIndex()
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            incremental.add(item, tid)
    reference = build_vertical_index(transactions)
    assert bulk.items() == sorted(reference) == incremental.items()
    for item, tids in reference.items():
        expected = shifted_bits(tids)
        assert bulk.bits(item) == expected, (
            f"item {item} bits diverged at {len(transactions)} tuples")
        assert incremental.bits(item) == expected
        assert tids_from_bits(bulk.as_mapping()[item]) == sorted(tids)


class TestSeamCounts:
    @pytest.mark.parametrize("n_tuples", (0, 1, 7, 8, 9, 63, 64, 65))
    def test_seam_counts_bit_for_bit(self, n_tuples, seeds):
        """Byte (8) and word (64) seam tuple counts: the bulk builder's
        byte pages grow exactly here."""
        rng = seeds.rng(500 + n_tuples)
        transactions = random_transactions(rng, n_tuples,
                                           universe=range(1, 12))
        # Occupy the last tid so an item's top bit sits on the seam.
        if n_tuples:
            transactions[-1] = frozenset({1, 11})
        assert_index_matches_shift_reference(transactions)

    @pytest.mark.parametrize("seed", (61, 62, 63))
    def test_randomized_streams_bit_for_bit(self, seed, seeds):
        rng = seeds.rng(seed)
        transactions = random_transactions(rng, rng.randint(10, 200),
                                           universe=range(1, 40))
        assert_index_matches_shift_reference(transactions)
