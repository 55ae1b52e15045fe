"""Unit tests for the annotated relation storage engine."""

import sys

import pytest

from repro.errors import SchemaError, UnknownTupleError
from repro.relation.annotation import Annotation
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.tuples import AnnotatedTuple, AnnotationAnchor


class TestInsert:
    def test_insert_returns_sequential_tids(self):
        relation = AnnotatedRelation()
        assert relation.insert(("1", "2")) == 0
        assert relation.insert(("3",), ("A",)) == 1
        assert len(relation) == 2

    def test_insert_registers_annotations(self):
        relation = AnnotatedRelation()
        relation.insert(("1",), ("A", "B"))
        assert "A" in relation.registry
        assert "B" in relation.registry

    def test_schema_validation(self):
        relation = AnnotatedRelation(Schema(["a", "b"]))
        relation.insert(("1", "2"))
        with pytest.raises(SchemaError):
            relation.insert(("1",))

    def test_empty_row_rejected_without_schema(self):
        with pytest.raises(SchemaError):
            AnnotatedRelation().insert(())

    def test_insert_many(self):
        relation = AnnotatedRelation()
        tids = relation.insert_many([(("1",), ("A",)), (("2",), ())])
        assert tids == [0, 1]

    def test_rows_share_interned_values_and_annotation_ids(self):
        relation = AnnotatedRelation()
        # Built at run time, so neither is the interned constant.
        value, annotation_id = "".join(["v", "1"]), "".join(["A", "1"])
        relation.insert_many([([value], [annotation_id]),
                              (["v1"], ["A1"])])
        first, second = relation.tuple(0), relation.tuple(1)
        assert first.values[0] is second.values[0] is sys.intern("v1")
        (key,) = first.annotations
        assert key is next(iter(second.annotations)) is sys.intern("A1")

    def test_version_bumps_on_mutation(self):
        relation = AnnotatedRelation()
        v0 = relation.version
        relation.insert(("1",))
        assert relation.version > v0


class TestAnnotate:
    def test_annotate_once(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        assert relation.annotate(tid, "A")
        assert not relation.annotate(tid, "A")
        assert relation.tuple(tid).annotation_ids == {"A"}

    def test_annotate_interns_the_annotation_id(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        relation.annotate(tid, "".join(["A", "9"]))
        relation.annotate(tid, Annotation("".join(["B", "9"]), text="x"))
        first, second = relation.tuple(tid).annotations
        assert first is sys.intern("A9")
        assert second is sys.intern("B9")

    def test_annotate_with_rich_annotation(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        relation.annotate(tid, Annotation("A", text="suspicious"))
        assert relation.registry.get("A").text == "suspicious"

    def test_annotate_unknown_tuple(self):
        with pytest.raises(UnknownTupleError):
            AnnotatedRelation().annotate(0, "A")

    def test_cell_anchor_bounds_checked(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1", "2"))
        relation.annotate(tid, "A", AnnotationAnchor.cell(1))
        with pytest.raises(SchemaError):
            relation.annotate(tid, "B", AnnotationAnchor.cell(5))

    def test_column_anchor_rejected_on_tuple(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        with pytest.raises(SchemaError):
            relation.annotate(tid, "A", AnnotationAnchor.column_anchor(0))

    def test_detach(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",), ("A",))
        assert relation.detach(tid, "A")
        assert not relation.detach(tid, "A")


class TestColumnAnnotations:
    def test_annotate_column(self):
        relation = AnnotatedRelation(Schema(["a", "b"]))
        assert relation.annotate_column(1, "Annot_units")
        assert not relation.annotate_column(1, "Annot_units")
        assert relation.column_annotations(1) == {"Annot_units"}
        assert relation.column_annotations(0) == frozenset()

    def test_out_of_schema_column_rejected(self):
        relation = AnnotatedRelation(Schema(["a"]))
        with pytest.raises(SchemaError):
            relation.annotate_column(3, "A")

    def test_negative_column_rejected_without_schema(self):
        with pytest.raises(SchemaError):
            AnnotatedRelation().annotate_column(-1, "A")


class TestDelete:
    def test_delete_tombstones(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        relation.insert(("2",))
        relation.delete(tid)
        assert len(relation) == 1
        assert relation.tid_range == 2
        assert not relation.is_live(tid)
        with pytest.raises(UnknownTupleError):
            relation.tuple(tid)

    def test_iteration_skips_tombstones(self):
        relation = AnnotatedRelation()
        relation.insert(("1",))
        relation.insert(("2",))
        relation.delete(0)
        assert [row.values for row in relation] == [("2",)]
        assert list(relation.tids()) == [1]


class TestDataTokens:
    def test_opaque_without_schema(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("10", "20"))
        assert relation.data_tokens(tid) == ("10", "20")

    def test_qualified_with_schema(self):
        relation = AnnotatedRelation(Schema(["x", "y"]))
        tid = relation.insert(("10", "20"))
        assert relation.data_tokens(tid) == ("x=10", "y=20")


class TestLabels:
    def test_set_labels_and_noop(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        relation.set_labels(tid, {"L1"})
        version = relation.version
        relation.set_labels(tid, {"L1"})  # unchanged -> no version bump
        assert relation.version == version
        assert relation.tuple(tid).labels == {"L1"}

    def test_add_labels_returns_new_only(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        relation.set_labels(tid, {"L1"})
        assert relation.add_labels(tid, {"L1", "L2"}) == {"L2"}


class TestInsertRows:
    def test_insert_builds_no_annotation_set(self, monkeypatch):
        def unexpected(row):
            raise AssertionError("annotation_ids built on insert")

        monkeypatch.setattr(AnnotatedTuple, "annotation_ids",
                            property(unexpected))
        relation = AnnotatedRelation()
        relation.insert_many([(("1",), ("A",)), (("2",), ("A", "B"))])
        assert relation.tuple(1).has_annotation("B")

    def test_rows_hold_their_values_and_distinct_annotation_ids(self):
        relation = AnnotatedRelation()
        relation.insert(("1", "2"), ("A", "B", "A"))
        relation.insert_many([(("3",), ()), (("4",), ["C"])])
        assert [(row.tid, row.values, row.annotation_ids)
                for row in relation] == [(0, ("1", "2"), {"A", "B"}),
                                         (1, ("3",), frozenset()),
                                         (2, ("4",), {"C"})]


class TestMutationResults:
    def test_repeated_annotate_changes_nothing(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",))
        assert relation.annotate(tid, "A")
        version = relation.version
        assert not relation.annotate(tid, "A")
        assert relation.version == version

    def test_detach_of_an_absent_annotation_changes_nothing(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",), ("A",))
        version = relation.version
        assert not relation.detach(tid, "Z")
        assert relation.version == version
        assert relation.tuple(tid).annotation_ids == {"A"}

    def test_detach_then_delete(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",), ("A", "B"))
        versions = [relation.version]
        relation.detach(tid, "A")
        versions.append(relation.version)
        assert relation.tuple(tid).annotation_ids == {"B"}
        relation.delete(tid)
        versions.append(relation.version)
        assert not relation.is_live(tid)
        assert versions == sorted(set(versions))

    @pytest.mark.parametrize("mutation", [
        lambda relation, tid: relation.annotate(tid, "B"),
        lambda relation, tid: relation.detach(tid, "A"),
        lambda relation, tid: relation.delete(tid),
    ], ids=["annotate", "detach", "delete"])
    def test_a_deleted_tuple_cannot_be_mutated(self, mutation):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",), ("A",))
        relation.delete(tid)
        version = relation.version
        with pytest.raises(UnknownTupleError):
            mutation(relation, tid)
        assert relation.version == version


class TestCopy:
    def test_copy_is_deep(self):
        relation = AnnotatedRelation()
        tid = relation.insert(("1",), ("A",))
        relation.set_labels(tid, {"L"})
        clone = relation.copy()
        clone.annotate(tid, "B")
        clone.set_labels(tid, {"L", "M"})
        assert relation.tuple(tid).annotation_ids == {"A"}
        assert relation.tuple(tid).labels == {"L"}

    def test_copy_preserves_tombstones(self):
        relation = AnnotatedRelation()
        relation.insert(("1",))
        relation.insert(("2",))
        relation.delete(0)
        clone = relation.copy()
        assert len(clone) == 1
        assert clone.tid_range == 2
