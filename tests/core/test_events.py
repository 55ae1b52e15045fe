"""Unit tests for update events."""

import pytest

from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.errors import MaintenanceError


class TestAddAnnotatedTuples:
    def test_build_normalizes(self):
        event = AddAnnotatedTuples.build([((1, 2), ["A", "A"])])
        assert event.rows == ((("1", "2"), frozenset({"A"})),)

    def test_empty_rejected(self):
        with pytest.raises(MaintenanceError):
            AddAnnotatedTuples(())


class TestAddUnannotatedTuples:
    def test_build(self):
        event = AddUnannotatedTuples.build([(1, 2), ("3",)])
        assert event.rows == (("1", "2"), ("3",))

    def test_empty_rejected(self):
        with pytest.raises(MaintenanceError):
            AddUnannotatedTuples(())


class TestAddAnnotations:
    def test_build_dedupes_preserving_order(self):
        event = AddAnnotations.build([(1, "A"), (2, "B"), (1, "A")])
        assert event.additions == ((1, "A"), (2, "B"))

    def test_by_tid_groups(self):
        event = AddAnnotations.build([(1, "A"), (2, "B"), (1, "C")])
        assert event.by_tid() == {1: ["A", "C"], 2: ["B"]}

    def test_empty_rejected(self):
        with pytest.raises(MaintenanceError):
            AddAnnotations(())


class TestRemovals:
    def test_remove_annotations_build(self):
        event = RemoveAnnotations.build([(0, "A"), (0, "A"), (1, "B")])
        assert event.removals == ((0, "A"), (1, "B"))
        assert event.by_tid() == {0: ["A"], 1: ["B"]}

    def test_remove_tuples_build_dedupes(self):
        event = RemoveTuples.build([3, 1, 3])
        assert event.tids == (3, 1)

    def test_empty_rejected(self):
        with pytest.raises(MaintenanceError):
            RemoveTuples(())
        with pytest.raises(MaintenanceError):
            RemoveAnnotations(())

