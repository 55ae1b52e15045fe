"""Unit tests for tuples and annotation anchors."""

import pytest

from repro.errors import SchemaError
from repro.relation.tuples import (
    AnchorScope,
    AnnotatedTuple,
    AnnotationAnchor,
)


class TestAnchor:
    def test_row_anchor(self):
        anchor = AnnotationAnchor.row()
        assert anchor.scope is AnchorScope.ROW
        assert anchor.column is None

    def test_cell_anchor_requires_column(self):
        assert AnnotationAnchor.cell(2).column == 2
        with pytest.raises(SchemaError):
            AnnotationAnchor(AnchorScope.CELL)

    def test_column_anchor_requires_column(self):
        assert AnnotationAnchor.column_anchor(1).scope is AnchorScope.COLUMN
        with pytest.raises(SchemaError):
            AnnotationAnchor(AnchorScope.COLUMN)

    def test_row_anchor_rejects_column(self):
        with pytest.raises(SchemaError):
            AnnotationAnchor(AnchorScope.ROW, column=0)


class TestAnnotatedTuple:
    def test_attach_once(self):
        row = AnnotatedTuple(tid=0, values=("1", "2"))
        assert row.attach("Annot_1")
        assert not row.attach("Annot_1")
        assert row.annotation_ids == {"Annot_1"}
        assert row.is_annotated

    def test_attach_with_cell_anchor(self):
        row = AnnotatedTuple(tid=0, values=("1", "2"))
        row.attach("Annot_1", AnnotationAnchor.cell(1))
        assert row.anchor("Annot_1").column == 1

    def test_detach(self):
        row = AnnotatedTuple(tid=0, values=("1",))
        row.attach("Annot_1")
        assert row.detach("Annot_1")
        assert not row.detach("Annot_1")
        assert not row.is_annotated

    def test_has_annotation(self):
        row = AnnotatedTuple(tid=0, values=("1",))
        row.attach("Annot_1")
        assert row.has_annotation("Annot_1")
        assert not row.has_annotation("Annot_2")
