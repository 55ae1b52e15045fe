"""Unit tests for the bitmap-backed vertical counting substrate."""


import pytest

from repro.mining.bitmap import BitmapIndex, bits_from_tids, tids_from_bits

TRANSACTIONS = [
    frozenset({1, 3, 4}),
    frozenset({2, 3, 5}),
    frozenset({1, 2, 3, 5}),
    frozenset({2, 5}),
]


def shifted_bits(tids):
    """The per-tid ``1 << tid`` reference the bulk builder replaces."""
    bits = 0
    for tid in tids:
        bits |= 1 << tid
    return bits


class TestBitConversions:
    def test_from_tids_round_trip(self):
        tids = {0, 3, 17, 200}
        bits = bits_from_tids(tids)
        assert tids_from_bits(bits) == sorted(tids)
        assert bits.bit_count() == 4

    def test_from_tids_negative_tid_rejected(self):
        with pytest.raises(ValueError):
            bits_from_tids([3, -1])

    def test_from_tids_word_boundaries(self):
        """The bulk (bytearray) build is exact at every byte/word seam
        and for duplicates — same bits as the per-tid reference."""
        edge_tids = [0, 7, 8, 63, 64, 65, 127, 128, 511, 512, 4096, 0, 64]
        bulk = bits_from_tids(edge_tids)
        assert bulk == shifted_bits(edge_tids)
        assert tids_from_bits(bulk) == sorted(set(edge_tids))

    def test_from_tids_matches_shift_reference_randomized(self, seeds):
        rng = seeds.rng(61)
        for _ in range(25):
            tids = [rng.randrange(0, rng.choice((9, 65, 1025, 70_000)))
                    for _ in range(rng.randint(0, 60))]
            assert bits_from_tids(tids) == shifted_bits(tids)

    def test_from_tids_empty_and_singleton(self):
        assert bits_from_tids([]) == 0
        assert bits_from_tids([0]) == 1
        assert bits_from_tids(iter([70_001])) == 1 << 70_001

    @pytest.mark.parametrize("tids", [
        set(), {0}, {7}, {8}, {7, 8}, {63}, {64}, {63, 64, 65},
        {0, 127, 128}, set(range(64)), set(range(0, 513, 8)),
        {70_001}, {0, 70_001}, set(range(69_990, 70_010)),
    ])
    def test_tids_from_bits_matches_set_reference(self, tids):
        """Every tid comes back once, ascending, across the byte (8)
        and word (64) seams and at tid 70,001."""
        assert tids_from_bits(shifted_bits(tids)) == sorted(tids)

    def test_tids_from_bits_randomized_dense_and_sparse(self, seeds):
        rng = seeds.rng(67)
        for _ in range(20):
            span = rng.choice((9, 64, 65, 1025, 70_002))
            density = rng.choice((0.01, 0.5, 0.99))
            tids = {tid for tid in range(span) if rng.random() < density}
            assert tids_from_bits(bits_from_tids(tids)) == sorted(tids)


class TestBitmapIndex:
    def test_from_transactions(self):
        index = BitmapIndex.from_transactions(TRANSACTIONS)
        assert tids_from_bits(index.bits(3)) == [0, 1, 2]
        assert index.bits(4) == 0b1
        assert index.bits(99) == 0
        assert index.frequency(2) == 3
        assert index.frequency(99) == 0

    def test_count_by_intersection(self):
        index = BitmapIndex.from_transactions(TRANSACTIONS)
        assert index.count((2, 5)) == 3
        assert index.count((1, 4)) == 1
        assert index.count((4, 5)) == 0
        assert index.count((9,)) == 0
        with pytest.raises(ValueError):
            index.count(())

    def test_tids_of(self):
        index = BitmapIndex.from_transactions(TRANSACTIONS)
        assert index.tids_of((2, 5)) == {1, 2, 3}
        assert index.tids_of((4, 5)) == set()
        with pytest.raises(ValueError):
            index.tids_of(())

    def test_discard_prunes_empty_buckets(self):
        index = BitmapIndex.from_transactions(TRANSACTIONS)
        assert 4 in index
        assert index.discard(4, 0) is True
        assert 4 not in index
        assert 4 not in index.items()
        assert index.discard(4, 0) is False  # already gone
        assert index.frequency(4) == 0

    def test_as_mapping_is_read_only_and_live(self):
        index = BitmapIndex.from_transactions(TRANSACTIONS)
        view = index.as_mapping()
        with pytest.raises(TypeError):
            view[1] = 0b1
        with pytest.raises(AttributeError):
            view[1].add(9)  # values are ints: no mutators
        index.add(1, 3)
        assert tids_from_bits(view[1]) == [0, 2, 3]  # live view

    def test_matches_set_reference_on_random_databases(self, seeds):
        from repro.mining.eclat import build_vertical_index

        rng = seeds.rng(29)
        for _ in range(10):
            transactions = [
                frozenset(rng.sample(range(15), rng.randint(0, 8)))
                for _ in range(rng.randint(1, 50))
            ]
            sets = build_vertical_index(transactions)
            bitmaps = BitmapIndex.from_transactions(transactions)
            for item, tids in sets.items():
                assert tids_from_bits(bitmaps.bits(item)) == sorted(tids)
            items = sorted(sets)
            for _ in range(25):
                itemset = tuple(sorted(
                    rng.sample(items, rng.randint(1, min(4, len(items))))))
                assert bitmaps.count(itemset) == len(
                    set.intersection(*(sets[item] for item in itemset)))
