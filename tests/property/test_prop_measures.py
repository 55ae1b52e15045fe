"""Property tests for interestingness measures and closed itemsets."""

import math

from hypothesis import given, settings, strategies as st

from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.closed import closed_itemsets, maximal_itemsets
from repro.mining.bitmap import BitmapIndex
from repro.mining.eclat import build_vertical_index, count_itemset
from repro.mining.interest import (
    RuleCounts,
    conviction,
    jaccard,
    kulczynski,
    leverage,
    lift,
)


@st.composite
def counts_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=500))
    n_lhs = draw(st.integers(min_value=0, max_value=n))
    n_rhs = draw(st.integers(min_value=0, max_value=n))
    n_both = draw(st.integers(min_value=max(0, n_lhs + n_rhs - n),
                              max_value=min(n_lhs, n_rhs)))
    return RuleCounts(n=n, n_lhs=n_lhs, n_rhs=n_rhs, n_both=n_both)


@given(counts=counts_strategy())
@settings(max_examples=150, deadline=None)
def test_measure_ranges(counts):
    assert lift(counts) >= 0.0
    assert -0.25 <= leverage(counts) <= 0.25  # classic leverage bounds
    assert 0.0 <= jaccard(counts) <= 1.0
    assert 0.0 <= kulczynski(counts) <= 1.0
    value = conviction(counts)
    assert value >= 0.0 or math.isinf(value)


@given(counts=counts_strategy())
@settings(max_examples=150, deadline=None)
def test_lift_and_leverage_agree_on_direction(counts):
    """lift > 1 iff leverage > 0 (both measure the same deviation)."""
    if counts.n_lhs and counts.n_rhs:
        assert (lift(counts) > 1.0) == (leverage(counts) > 0.0)


@given(counts=counts_strategy())
@settings(max_examples=100, deadline=None)
def test_symmetry(counts):
    """Jaccard and Kulczynski are symmetric in LHS/RHS."""
    flipped = RuleCounts(n=counts.n, n_lhs=counts.n_rhs,
                         n_rhs=counts.n_lhs, n_both=counts.n_both)
    assert jaccard(counts) == jaccard(flipped)
    assert kulczynski(counts) == kulczynski(flipped)


transactions_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), max_size=5),
    min_size=0, max_size=20)


@given(transactions=transactions_strategy,
       min_count=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_closed_itemsets_lossless(transactions, min_count):
    """Closure is a lossless compression: every frequent itemset's
    count is recoverable as the max count over closed supersets."""
    table = mine_frequent_itemsets(transactions, min_count=min_count)
    closed = closed_itemsets(table)
    for itemset, count in table.items():
        candidates = [closed_count
                      for closed_set, closed_count in closed.items()
                      if set(itemset) <= set(closed_set)]
        assert candidates, f"{itemset} has no closed superset"
        assert max(candidates) == count


@given(transactions=transactions_strategy,
       min_count=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_maximal_within_closed(transactions, min_count):
    table = mine_frequent_itemsets(transactions, min_count=min_count)
    closed = set(closed_itemsets(table))
    maximal = set(maximal_itemsets(table))
    assert maximal <= closed
    # Every frequent itemset is under some maximal one.
    for itemset in table:
        assert any(set(itemset) <= set(top) for top in maximal)


@given(transactions=transactions_strategy)
@settings(max_examples=60, deadline=None)
def test_vertical_counts_match_horizontal(transactions):
    index = BitmapIndex.from_transactions(transactions).as_mapping()
    assert sorted(index) == sorted(build_vertical_index(transactions))
    for item in index:
        expected = sum(1 for transaction in transactions
                       if item in transaction)
        assert count_itemset(index, (item,)) == expected
    items = sorted(index)
    for position, first in enumerate(items):
        for second in items[position + 1:]:
            expected = sum(1 for transaction in transactions
                           if first in transaction and second in transaction)
            assert count_itemset(index, (first, second)) == expected
