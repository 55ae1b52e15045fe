"""Unit tests for the vertical index / annotation frequency table."""

import pytest

from repro.core.annotation_index import VerticalIndex
from repro.errors import MaintenanceError
from repro.mining.bitmap import tids_from_bits
from repro.mining.itemsets import ItemVocabulary


@pytest.fixture
def setup():
    vocabulary = ItemVocabulary()
    data_x = vocabulary.intern_data("x")
    data_y = vocabulary.intern_data("y")
    annotation_a = vocabulary.intern_annotation("A")
    index = VerticalIndex(vocabulary)
    index.add_transaction(0, frozenset({data_x, annotation_a}))
    index.add_transaction(1, frozenset({data_x, data_y}))
    index.add_transaction(2, frozenset({data_y, annotation_a}))
    return vocabulary, index, data_x, data_y, annotation_a


class TestMaintenance:
    def test_add_and_query(self, setup):
        _, index, data_x, data_y, annotation_a = setup
        assert index.tids(data_x) == {0, 1}
        assert index.frequency(annotation_a) == 2

    def test_extend(self, setup):
        _, index, data_x, _, annotation_a = setup
        index.extend_transaction(1, [annotation_a])
        assert index.tids(annotation_a) == {0, 1, 2}

    def test_shrink(self, setup):
        _, index, _, _, annotation_a = setup
        index.shrink_transaction(0, [annotation_a])
        assert index.tids(annotation_a) == {2}

    def test_shrink_missing_raises(self, setup):
        _, index, _, _, annotation_a = setup
        with pytest.raises(MaintenanceError):
            index.shrink_transaction(1, [annotation_a])

    def test_remove_transaction(self, setup):
        _, index, data_x, _, annotation_a = setup
        index.remove_transaction(0, frozenset({data_x, annotation_a}))
        assert index.tids(data_x) == {1}
        assert index.frequency(annotation_a) == 1


class TestQueries:
    def test_count_itemset(self, setup):
        _, index, data_x, data_y, annotation_a = setup
        assert index.count((data_x, annotation_a)) == 1
        assert index.count((data_x, data_y)) == 1
        assert index.count((), db_size=3) == 3

    def test_tids_of_itemset(self, setup):
        _, index, data_x, _, annotation_a = setup
        assert index.tids_of_itemset((data_x, annotation_a)) == {0}

    def test_frequent_items(self, setup):
        _, index, data_x, data_y, annotation_a = setup
        assert index.frequent_items(2) == sorted(
            [data_x, data_y, annotation_a])
        assert index.frequent_items(
            2, annotation_like_only=True) == [annotation_a]

    def test_annotation_frequencies(self, setup):
        vocabulary, index, _, _, annotation_a = setup
        assert index.annotation_frequencies() == {annotation_a: 2}

    def test_contains(self, setup):
        _, index, data_x, _, annotation_a = setup
        assert data_x in index
        index.shrink_transaction(0, [annotation_a])
        index.shrink_transaction(2, [annotation_a])
        assert annotation_a not in index


class TestReadOnlyView:
    def test_as_mapping_rejects_mutation(self, setup):
        _, index, data_x, _, _ = setup
        view = index.as_mapping()
        with pytest.raises(TypeError):
            view[data_x] = 1 << 9999
        with pytest.raises((TypeError, AttributeError)):
            del view[data_x]

    def test_view_values_cannot_corrupt_tids(self, setup):
        """Regression: mutation through the view must not alter tids()."""
        _, index, data_x, _, _ = setup
        before = index.tids(data_x)
        view = index.as_mapping()
        bits = view[data_x]
        assert isinstance(bits, int)  # immutable: no mutators
        # Deriving a new vector from it must leave the index alone.
        bits |= 1 << 9999
        assert index.tids(data_x) == before
        assert 9999 not in index.tids(data_x)

    def test_view_is_live(self, setup):
        _, index, data_x, _, _ = setup
        view = index.as_mapping()
        index.extend_transaction(7, [data_x])
        assert tids_from_bits(view[data_x]) == [0, 1, 7]
        index.shrink_transaction(0, [data_x])
        assert tids_from_bits(view[data_x]) == [1, 7]


class TestEmptyBucketChurn:
    def test_shrink_prunes_dead_items(self, setup):
        """Regression: delete-heavy streams must not iterate dead items."""
        _, index, data_x, data_y, annotation_a = setup
        index.shrink_transaction(0, [annotation_a])
        index.shrink_transaction(2, [annotation_a])
        assert annotation_a not in index.items()
        assert index.annotation_frequencies() == {}
        assert index.frequent_items(1) == sorted([data_x, data_y])

    def test_remove_transaction_churn(self):
        vocabulary = ItemVocabulary()
        items = [vocabulary.intern_data(f"v{i}") for i in range(20)]
        index = VerticalIndex(vocabulary)
        for tid, item in enumerate(items):
            index.add_transaction(tid, frozenset({item}))
        # Delete every transaction: each add/remove cycle must leave no
        # residue for items()/frequent_items() to walk forever.
        for tid, item in enumerate(items):
            index.remove_transaction(tid, frozenset({item}))
        assert index.items() == []
        assert index.frequent_items(1) == []
        # Re-adding after churn works from a clean slate.
        index.add_transaction(0, frozenset({items[3]}))
        assert index.items() == [items[3]]
