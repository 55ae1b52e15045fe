"""Property-based tests over the mining substrate.

Invariants checked on random transaction databases:

* the hash-tree Apriori (the re-mine oracle) and the vertical miner
  (the engine's from-scratch mine) produce identical tables;
* tables are downward closed with monotone counts (anti-monotonicity);
* every reported count is the true containment count;
* the hash-tree counter equals brute force.
"""

from hypothesis import given, settings, strategies as st

from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.eclat import mine_frequent_itemsets_vertical
from repro.mining.hash_tree import HashTree
from repro.mining.tables import check_downward_closure

transactions_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=9), max_size=6),
    min_size=0, max_size=25)

min_count_strategy = st.integers(min_value=1, max_value=5)


@given(transactions=transactions_strategy, min_count=min_count_strategy)
@settings(max_examples=60, deadline=None)
def test_apriori_and_vertical_miners_agree(transactions, min_count):
    apriori_table = mine_frequent_itemsets(transactions,
                                           min_count=min_count,
                                           counter="hashtree")
    vertical_table = mine_frequent_itemsets_vertical(transactions,
                                                     min_count=min_count)
    assert apriori_table == vertical_table


@given(transactions=transactions_strategy, min_count=min_count_strategy)
@settings(max_examples=60, deadline=None)
def test_table_is_downward_closed(transactions, min_count):
    table = mine_frequent_itemsets(transactions, min_count=min_count)
    assert check_downward_closure(table) == []


@given(transactions=transactions_strategy, min_count=min_count_strategy)
@settings(max_examples=60, deadline=None)
def test_counts_are_true_containment_counts(transactions, min_count):
    table = mine_frequent_itemsets(transactions, min_count=min_count)
    for itemset, count in table.items():
        true_count = sum(1 for transaction in transactions
                         if set(itemset) <= transaction)
        assert count == true_count
        assert count >= min_count


@given(transactions=transactions_strategy, min_count=min_count_strategy)
@settings(max_examples=40, deadline=None)
def test_nothing_frequent_is_missing(transactions, min_count):
    """Complement of the soundness check: exhaustive completeness for
    itemsets up to size 3 (larger sizes follow by closure)."""
    import itertools

    table = mine_frequent_itemsets(transactions, min_count=min_count)
    universe = sorted({item for transaction in transactions
                       for item in transaction})
    for length in (1, 2, 3):
        for combo in itertools.combinations(universe, length):
            true_count = sum(1 for transaction in transactions
                             if set(combo) <= transaction)
            if true_count >= min_count:
                assert combo in table


@given(
    transactions=transactions_strategy,
    candidates=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9),
                      min_size=2, max_size=2),
        min_size=1, max_size=20, unique=True),
    fanout=st.integers(min_value=2, max_value=8),
    leaf=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_hash_tree_counts_equal_brute_force(transactions, candidates,
                                            fanout, leaf):
    itemsets = [tuple(sorted(candidate)) for candidate in candidates]
    tree = HashTree(itemsets, fanout=fanout, max_leaf_size=leaf)
    counts = tree.count_all(transactions)
    for itemset in itemsets:
        expected = sum(1 for transaction in transactions
                       if set(itemset) <= transaction)
        assert counts[itemset] == expected
