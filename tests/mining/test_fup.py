"""Unit tests for the FUP-style insert maintenance."""


import pytest

from repro.errors import MaintenanceError
from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.constraints import UnrestrictedConstraint
from repro.mining.bitmap import BitmapIndex
from repro.mining.fup import fup_update
from repro._util import min_count_for


def bitmap_view(transactions):
    return BitmapIndex.from_transactions(transactions).as_mapping()


def apply_fup(base, increment, keep_fraction):
    """Mine base, apply the increment via FUP, return the table."""
    table = mine_frequent_itemsets(
        base, min_count=min_count_for(keep_fraction, len(base)))
    full = list(base) + list(increment)
    index = bitmap_view(full)
    fup_update(table, increment, index=index, new_size=len(full),
               keep_fraction=keep_fraction,
               constraint=UnrestrictedConstraint())
    return table


def mine_directly(full, keep_fraction):
    return mine_frequent_itemsets(
        full, min_count=min_count_for(keep_fraction, len(full)))


class TestFupEquivalence:
    def test_small_example(self):
        base = [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]
        increment = [frozenset({1, 2}), frozenset({1, 2, 3})]
        assert apply_fup(base, increment, 0.4) \
            == mine_directly(base + increment, 0.4)

    def test_new_item_only_in_increment(self):
        base = [frozenset({1})] * 4
        increment = [frozenset({9})] * 4
        table = apply_fup(base, increment, 0.4)
        assert table == mine_directly(base + increment, 0.4)
        assert (9,) in table

    def test_dilution_prunes_old_entries(self):
        base = [frozenset({1, 2})] * 2 + [frozenset({3})] * 2
        increment = [frozenset({3})] * 6
        table = apply_fup(base, increment, 0.4)
        assert table == mine_directly(base + increment, 0.4)
        assert (1, 2) not in table

    def test_random_equivalence(self, seeds):
        rng = seeds.rng(17)
        for trial in range(12):
            base = [frozenset(rng.sample(range(8), rng.randint(0, 5)))
                    for _ in range(rng.randint(4, 25))]
            increment = [frozenset(rng.sample(range(8), rng.randint(0, 5)))
                         for _ in range(rng.randint(1, 15))]
            keep = rng.choice([0.2, 0.3, 0.5])
            assert apply_fup(base, increment, keep) \
                == mine_directly(base + increment, keep), f"trial {trial}"

    def test_empty_increment_only_prunes(self):
        base = [frozenset({1, 2})] * 3
        table = mine_frequent_itemsets(base, min_count=2)
        index = bitmap_view(base)
        report = fup_update(table, [], index=index, new_size=3,
                            keep_fraction=0.5,
                            constraint=UnrestrictedConstraint())
        assert report.added == [] and report.pruned == []


class TestFupReport:
    def test_report_fields(self):
        base = [frozenset({1, 2})] * 3
        increment = [frozenset({1, 2}), frozenset({7})]
        table = mine_frequent_itemsets(base, min_count=2)
        index = bitmap_view(base + increment)
        report = fup_update(table, increment, index=index, new_size=5,
                            keep_fraction=0.4,
                            constraint=UnrestrictedConstraint())
        assert report.new_size == 5
        assert report.refreshed > 0
        assert all(itemset in table for itemset in report.added)

    def test_inconsistent_size_rejected(self):
        with pytest.raises(MaintenanceError):
            fup_update({}, [frozenset({1})] * 5, index={}, new_size=3,
                       keep_fraction=0.5,
                       constraint=UnrestrictedConstraint())
