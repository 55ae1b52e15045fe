"""Unit tests for the level-wise Apriori miner."""

import pytest

from repro.errors import MiningError
from repro.mining.apriori import (
    count_candidates,
    generate_candidates,
    mine_frequent_itemsets,
    mine_task,
    resolve_min_count,
)
from repro.mining.constraints import (
    AnnotationOnlyConstraint,
    AtMostOneAnnotationConstraint,
    MiningTask,
)
from repro.mining.itemsets import TransactionDatabase

#: The classic textbook example: items 1..5.
TRANSACTIONS = [
    frozenset({1, 3, 4}),
    frozenset({2, 3, 5}),
    frozenset({1, 2, 3, 5}),
    frozenset({2, 5}),
]


class TestResolveMinCount:
    def test_fraction_to_count(self):
        assert resolve_min_count(10, 0.3, None) == 3
        assert resolve_min_count(10, 0.25, None) == 3
        assert resolve_min_count(10, 0.2, None) == 2

    def test_exact_boundary_not_rounded_up(self):
        # support 0.5 of 4 transactions means count >= 2, not 3.
        assert resolve_min_count(4, 0.5, None) == 2

    def test_absolute_count_passthrough(self):
        assert resolve_min_count(10, None, 4) == 4

    def test_both_or_neither_rejected(self):
        with pytest.raises(MiningError):
            resolve_min_count(10, 0.5, 2)
        with pytest.raises(MiningError):
            resolve_min_count(10, None, None)

    def test_bad_values_rejected(self):
        with pytest.raises(MiningError):
            resolve_min_count(10, None, 0)
        with pytest.raises(Exception):
            resolve_min_count(10, 1.5, None)


class TestCandidateGeneration:
    def test_pairs_from_singletons(self):
        level = {(1,), (2,), (3,)}
        assert sorted(generate_candidates(level)) == [(1, 2), (1, 3), (2, 3)]

    def test_subset_pruning(self):
        # (1,2) and (1,3) join to (1,2,3) but (2,3) is infrequent.
        level = {(1, 2), (1, 3)}
        assert generate_candidates(level) == []

    def test_triple_generation(self):
        level = {(1, 2), (1, 3), (2, 3)}
        assert generate_candidates(level) == [(1, 2, 3)]


class TestCountCandidates:
    @pytest.mark.parametrize("counter", ["hashtree", "scan", "auto"])
    def test_strategies_agree(self, counter):
        candidates = [(1, 2), (2, 5), (3, 5), (1, 5)]
        counts = count_candidates(candidates, TRANSACTIONS, counter=counter)
        assert counts == {(1, 2): 1, (2, 5): 3, (3, 5): 2, (1, 5): 1}

    def test_unknown_strategy(self):
        with pytest.raises(MiningError):
            count_candidates([(1, 2)], TRANSACTIONS, counter="quantum")

    def test_empty_candidates(self):
        assert count_candidates([], TRANSACTIONS) == {}


class TestMineFrequentItemsets:
    def test_textbook_example(self):
        table = mine_frequent_itemsets(TRANSACTIONS, min_count=2)
        assert table == {
            (1,): 2, (2,): 3, (3,): 3, (5,): 3,
            (1, 3): 2, (2, 3): 2, (2, 5): 3, (3, 5): 2,
            (2, 3, 5): 2,
        }

    def test_min_support_fraction(self):
        table = mine_frequent_itemsets(TRANSACTIONS, min_support=0.75)
        assert set(table) == {(2,), (3,), (5,), (2, 5)}

    def test_max_length_caps_levels(self):
        table = mine_frequent_itemsets(TRANSACTIONS, min_count=2,
                                       max_length=2)
        assert (2, 3, 5) not in table
        assert (2, 5) in table

    def test_empty_database(self):
        assert mine_frequent_itemsets([], min_count=1) == {}

    def test_counts_are_exact(self):
        table = mine_frequent_itemsets(TRANSACTIONS, min_count=1)
        for itemset, count in table.items():
            expected = sum(1 for transaction in TRANSACTIONS
                           if set(itemset) <= transaction)
            assert count == expected, itemset


class TestConstrainedMining:
    @pytest.fixture
    def database(self):
        database = TransactionDatabase()
        database.add_tokens(("1", "2"), ("A",))
        database.add_tokens(("1", "3"), ("A", "B"))
        database.add_tokens(("1", "2"), ("A",))
        database.add_tokens(("4", "2"), ())
        database.add_tokens(("1", "3"), ("A", "B"))
        return database

    def test_annotation_only_task(self, database):
        table = mine_task(database, MiningTask.ANNOTATION_TO_ANNOTATION,
                          min_count=2)
        vocabulary = database.vocabulary
        for itemset in table:
            assert all(vocabulary.is_annotation_like(item)
                       for item in itemset)
        annotation_a = vocabulary.find_annotation("A")
        annotation_b = vocabulary.find_annotation("B")
        assert table[tuple(sorted((annotation_a, annotation_b)))] == 2

    def test_d2a_task_prunes_two_annotation_patterns(self, database):
        table = mine_task(database, MiningTask.DATA_TO_ANNOTATION,
                          min_count=2)
        vocabulary = database.vocabulary
        assert all(vocabulary.count_annotation_like(itemset) <= 1
                   for itemset in table)
        # Data-only denominators must be retained.
        from repro.mining.itemsets import Item, ItemKind
        value_1 = vocabulary.id_of(Item(ItemKind.DATA, "1"))
        assert (value_1,) in table

    def test_constraint_does_not_change_admitted_counts(self, database):
        unrestricted = mine_task(database, MiningTask.UNRESTRICTED,
                                 min_count=2)
        constrained = mine_task(database, MiningTask.DATA_TO_ANNOTATION,
                                min_count=2)
        for itemset, count in constrained.items():
            assert unrestricted[itemset] == count

    def test_projection_equivalent_to_postfilter(self, database):
        projected = mine_task(database, MiningTask.ANNOTATION_TO_ANNOTATION,
                              min_count=2)
        unrestricted = mine_task(database, MiningTask.UNRESTRICTED,
                                 min_count=2)
        vocabulary = database.vocabulary
        filtered = {
            itemset: count for itemset, count in unrestricted.items()
            if all(vocabulary.is_annotation_like(item) for item in itemset)
        }
        assert projected == filtered


class TestCounterEquivalence:
    @pytest.mark.parametrize("counter", ["hashtree", "scan"])
    def test_same_table_for_every_counter(self, counter):
        baseline = mine_frequent_itemsets(TRANSACTIONS, min_count=2,
                                          counter="auto")
        assert mine_frequent_itemsets(TRANSACTIONS, min_count=2,
                                      counter=counter) == baseline
