"""Unit tests for vertical (tidset) mining and seeded search."""


import pytest

from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.bitmap import BitmapIndex
from repro.mining.constraints import CombinedRelevanceConstraint
from repro.mining.eclat import (
    build_vertical_index,
    count_itemset,
    mine_containing,
    mine_frequent_itemsets_vertical,
    tids_of,
)
from repro.mining.itemsets import ItemVocabulary

TRANSACTIONS = [
    frozenset({1, 3, 4}),
    frozenset({2, 3, 5}),
    frozenset({1, 2, 3, 5}),
    frozenset({2, 5}),
]


def bitmap_view(transactions):
    return BitmapIndex.from_transactions(transactions).as_mapping()


class TestVerticalIndex:
    def test_build(self):
        index = build_vertical_index(TRANSACTIONS)
        assert index[3] == {0, 1, 2}
        assert index[4] == {0}

    def test_count_itemset(self):
        index = bitmap_view(TRANSACTIONS)
        assert count_itemset(index, (2, 5)) == 3
        assert count_itemset(index, (1, 4)) == 1
        assert count_itemset(index, (4, 5)) == 0
        assert count_itemset(index, (9,)) == 0

    def test_count_empty_itemset_needs_universe(self):
        index = bitmap_view(TRANSACTIONS)
        assert count_itemset(index, (), universe_size=4) == 4
        with pytest.raises(ValueError):
            count_itemset(index, ())

    def test_tids_of(self):
        index = bitmap_view(TRANSACTIONS)
        assert tids_of(index, (2, 5)) == {1, 2, 3}
        with pytest.raises(ValueError):
            tids_of(index, ())


class TestEclatAgreesWithApriori:
    def test_textbook(self):
        horizontal = mine_frequent_itemsets(TRANSACTIONS, min_count=2)
        vertical = mine_frequent_itemsets_vertical(TRANSACTIONS, min_count=2)
        assert horizontal == vertical

    def test_random_databases(self, seeds):
        rng = seeds.rng(71)
        for trial in range(8):
            transactions = [
                frozenset(rng.sample(range(12), rng.randint(0, 7)))
                for _ in range(rng.randint(5, 40))
            ]
            min_count = rng.randint(1, 4)
            assert mine_frequent_itemsets(transactions,
                                          min_count=min_count) \
                == mine_frequent_itemsets_vertical(transactions,
                                                   min_count=min_count), \
                f"trial {trial}"

    @pytest.mark.parametrize("max_length", [1, 2, 3])
    def test_max_length(self, max_length):
        vertical = mine_frequent_itemsets_vertical(
            TRANSACTIONS, min_count=2, max_length=max_length)
        assert vertical == mine_frequent_itemsets(
            TRANSACTIONS, min_count=2, max_length=max_length)
        assert max(map(len, vertical)) == max_length


class TestMineContaining:
    def test_counts_are_global(self):
        index = bitmap_view(TRANSACTIONS)
        mined = mine_containing(index, 5, min_count=2)
        assert mined[(5,)] == 3
        assert mined[(2, 5)] == 3
        assert mined[(3, 5)] == 2
        assert mined[(2, 3, 5)] == 2
        # Nothing without the seed.
        assert all(5 in itemset for itemset in mined)

    def test_equals_filtered_global_mining(self):
        index = bitmap_view(TRANSACTIONS)
        full = mine_frequent_itemsets(TRANSACTIONS, min_count=2)
        for seed in (1, 2, 3, 5):
            seeded = mine_containing(index, seed, min_count=2)
            expected = {itemset: count for itemset, count in full.items()
                        if seed in itemset}
            assert seeded == expected, f"seed {seed}"

    def test_infrequent_seed_returns_nothing(self):
        index = bitmap_view(TRANSACTIONS)
        assert mine_containing(index, 4, min_count=2) == {}
        assert mine_containing(index, 99, min_count=1) == {}

    def test_max_length_one_keeps_only_the_seed(self):
        index = bitmap_view(TRANSACTIONS)
        assert mine_containing(index, 5, min_count=2, max_length=1) == {
            (5,): 3}

    def test_candidate_items_restriction(self):
        index = bitmap_view(TRANSACTIONS)
        mined = mine_containing(index, 5, min_count=2,
                                candidate_items=[2])
        assert set(mined) == {(5,), (2, 5)}

    def test_constraint_pruning(self):
        vocabulary = ItemVocabulary()
        data_x = vocabulary.intern_data("x")
        data_y = vocabulary.intern_data("y")
        annotation_a = vocabulary.intern_annotation("A")
        annotation_b = vocabulary.intern_annotation("B")
        transactions = [frozenset({data_x, data_y, annotation_a,
                                   annotation_b})] * 3
        index = bitmap_view(transactions)
        constraint = CombinedRelevanceConstraint(vocabulary)
        mined = mine_containing(index, annotation_a, min_count=2,
                                constraint=constraint)
        for itemset in mined:
            assert constraint.admits(itemset)
        # Annotation-only pair and single-annotation-with-data survive.
        assert tuple(sorted((annotation_a, annotation_b))) in mined
        assert tuple(sorted((data_x, annotation_a))) in mined
        # Mixed with two annotations must be pruned.
        bad = tuple(sorted((data_x, annotation_a, annotation_b)))
        assert bad not in mined
