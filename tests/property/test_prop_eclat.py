"""Differential suite: the support-ordered Eclat searches ≡ Apriori.

Both vertical searches join extensions in ascending (support, item id)
order over raw bitmap ints.  Whatever order they search in, their
tables must equal the hash-tree Apriori's under every candidate
constraint, every ``max_length`` and every ``candidate_items``
restriction, and every count must equal a set-intersection recount.
Randomized databases are seeded through the session router (replay any
failure with ``--seed``).
"""

import pytest

from repro.core.annotation_index import VerticalIndex
from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.bitmap import BitmapIndex, tids_from_bits
from repro.mining.constraints import (
    AnnotationOnlyConstraint,
    AtMostOneAnnotationConstraint,
    CombinedRelevanceConstraint,
    UnrestrictedConstraint,
)
from repro.mining.eclat import (
    build_vertical_index,
    mine_containing,
    mine_frequent_itemsets_vertical,
)
from repro.mining.itemsets import ItemVocabulary

CONSTRAINTS = {
    "unrestricted": lambda vocabulary: UnrestrictedConstraint(),
    "annotation-only": AnnotationOnlyConstraint,
    "at-most-one-annotation": AtMostOneAnnotationConstraint,
    "combined": CombinedRelevanceConstraint,
}

MAX_LENGTHS = (None, 1, 2, 3)


def random_database(rng):
    """Transactions over six data items and four annotations, with a
    few planted co-occurrences so multi-item patterns are frequent."""
    vocabulary = ItemVocabulary()
    data = [vocabulary.intern_data(f"d{k}") for k in range(6)]
    annotations = [vocabulary.intern_annotation(f"A{k}") for k in range(4)]
    universe = data + annotations
    planted = [frozenset(rng.sample(universe, 3)) for _ in range(2)]
    transactions = []
    for _ in range(rng.randint(8, 45)):
        items = set(rng.sample(universe, rng.randint(0, 5)))
        if rng.random() < 0.4:
            items |= rng.choice(planted)
        transactions.append(frozenset(items))
    return vocabulary, transactions


def set_recount(reference, itemset):
    return len(set.intersection(*(reference[item] for item in itemset)))


@pytest.mark.parametrize("max_length", MAX_LENGTHS)
@pytest.mark.parametrize("constraint_name", sorted(CONSTRAINTS))
class TestSupportOrderedSearches:
    def test_full_mine_equals_apriori(self, constraint_name, max_length,
                                      seeds):
        rng = seeds.rng(211)
        for trial in range(6):
            vocabulary, transactions = random_database(rng)
            constraint = CONSTRAINTS[constraint_name](vocabulary)
            min_count = rng.randint(1, 4)
            expected = mine_frequent_itemsets(
                transactions, min_count=min_count, constraint=constraint,
                max_length=max_length)
            mined = mine_frequent_itemsets_vertical(
                transactions, min_count=min_count, constraint=constraint,
                max_length=max_length)
            assert mined == expected, f"trial {trial}"
            projected = [constraint.project(transaction)
                         for transaction in transactions]
            over_view = mine_frequent_itemsets_vertical(
                (), min_count=min_count, constraint=constraint,
                max_length=max_length,
                index=BitmapIndex.from_transactions(projected).as_mapping())
            assert over_view == expected, f"trial {trial}"
            # Sorted tuples, emitted in lexicographic order.
            assert all(list(itemset) == sorted(itemset) for itemset in mined)
            assert list(mined) == sorted(mined)
            reference = build_vertical_index(projected)
            for itemset, count in mined.items():
                assert count == set_recount(reference, itemset), itemset

    def test_seeded_search_equals_filtered_apriori(self, constraint_name,
                                                   max_length, seeds):
        rng = seeds.rng(223)
        for trial in range(4):
            vocabulary, transactions = random_database(rng)
            constraint = CONSTRAINTS[constraint_name](vocabulary)
            min_count = rng.randint(1, 4)
            full = mine_frequent_itemsets(
                transactions, min_count=min_count, constraint=constraint,
                max_length=max_length)
            view = BitmapIndex.from_transactions(transactions).as_mapping()
            reference = build_vertical_index(transactions)
            items = sorted(reference)
            for seed in items + [max(items, default=0) + 1]:
                mined = mine_containing(
                    view, seed, min_count=min_count, constraint=constraint,
                    max_length=max_length)
                assert mined == {itemset: count
                                 for itemset, count in full.items()
                                 if seed in itemset}, (trial, seed)
                for itemset, count in mined.items():
                    assert list(itemset) == sorted(itemset)
                    assert count == set_recount(reference, itemset)

    def test_candidate_items_restrict_the_joins(self, constraint_name,
                                                max_length, seeds):
        rng = seeds.rng(227)
        for trial in range(4):
            vocabulary, transactions = random_database(rng)
            constraint = CONSTRAINTS[constraint_name](vocabulary)
            min_count = rng.randint(1, 3)
            full = mine_frequent_itemsets(
                transactions, min_count=min_count, constraint=constraint,
                max_length=max_length)
            view = BitmapIndex.from_transactions(transactions).as_mapping()
            items = sorted(view)
            for seed in items:
                allowed = set(rng.sample(items, rng.randint(0, len(items))))
                # Unknown ids and the seed itself are ignored.
                candidates = list(allowed) + [seed, 10_000]
                mined = mine_containing(
                    view, seed, min_count=min_count, constraint=constraint,
                    candidate_items=candidates, max_length=max_length)
                assert mined == {
                    itemset: count for itemset, count in full.items()
                    if seed in itemset
                    and set(itemset) - {seed} <= allowed}, (trial, seed)


class TestReadOnlyLiveView:
    def test_bitmap_index_view(self):
        index = BitmapIndex.from_transactions(
            [frozenset({1, 2}), frozenset({2})])
        view = index.as_mapping()
        with pytest.raises(TypeError):
            view[1] = 0b11
        with pytest.raises(TypeError):
            view[9] = 0b1
        with pytest.raises(TypeError):
            del view[2]
        assert view == {1: 0b01, 2: 0b11}
        index.add(1, 5)
        index.add(9, 64)
        assert view[1] == 0b100001 and view[9] == 1 << 64
        index.discard(2, 0)
        index.discard(2, 1)
        assert 2 not in view and sorted(view) == [1, 9]

    def test_vertical_index_view(self):
        vocabulary = ItemVocabulary()
        x = vocabulary.intern_data("x")
        a = vocabulary.intern_annotation("A")
        index = VerticalIndex(vocabulary)
        index.add_transaction(0, frozenset({x, a}))
        view = index.as_mapping()
        with pytest.raises(TypeError):
            view[x] = 0
        index.add_transaction(3, frozenset({x}))
        assert tids_from_bits(view[x]) == [0, 3]
        index.shrink_transaction(0, [a])
        assert a not in view
        assert tids_from_bits(view[x]) == sorted(index.tids(x))
