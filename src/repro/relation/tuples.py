"""Tuples of an annotated relation and annotation anchoring.

Definition 4.1 of the paper attaches a variable number of annotations to
each tuple.  The related-work section notes that annotation systems also
anchor annotations to single cells or whole columns; the
:class:`AnnotationAnchor` captures all three scopes.  Mining operates on
the row projection (cell anchors contribute to their row; column anchors
are relation-level and handled by :class:`~repro.relation.relation.AnnotatedRelation`).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import SchemaError


class AnchorScope(enum.Enum):
    """What part of the relation an annotation attachment refers to."""

    ROW = "row"
    CELL = "cell"
    COLUMN = "column"


@dataclass(frozen=True, slots=True)
class AnnotationAnchor:
    """Where an annotation is attached."""

    scope: AnchorScope = AnchorScope.ROW
    column: int | None = None

    def __post_init__(self) -> None:
        needs_column = self.scope in (AnchorScope.CELL, AnchorScope.COLUMN)
        if needs_column and self.column is None:
            raise SchemaError(f"{self.scope.value} anchors require a column")
        if not needs_column and self.column is not None:
            raise SchemaError("row anchors must not name a column")

    @classmethod
    def row(cls) -> "AnnotationAnchor":
        """The row anchor — one shared instance, since anchors are
        immutable and almost every attachment is row-scoped."""
        return _ROW_ANCHOR

    @classmethod
    def cell(cls, column: int) -> "AnnotationAnchor":
        return cls(AnchorScope.CELL, column)

    @classmethod
    def column_anchor(cls, column: int) -> "AnnotationAnchor":
        return cls(AnchorScope.COLUMN, column)


_ROW_ANCHOR = AnnotationAnchor(AnchorScope.ROW)
_NO_LABELS: frozenset[str] = frozenset()


@dataclass(slots=True)
class AnnotatedTuple:
    """One row: immutable data values plus a mutable annotation set.

    ``annotations`` is the set of Definition 4.1, kept as one sorted,
    duplicate-free tuple of interned ids and rebound on every attach
    and detach, so a copy shares it and every unannotated row shares
    the one empty tuple.  Mining reads only this set.  ``labels``
    holds generalization labels (section 4.1), kept separate from raw
    annotations so re-labelling can be recomputed without touching
    curator-provided annotations; it is an immutable set, rebound the
    same way.  An annotation attached to one cell keeps its anchor in
    ``cell_anchors``, a dict rebound (never mutated) on change, which
    is ``None`` on every row without one; :meth:`anchor` reads it.  A
    tombstone (``alive`` False) keeps none of its values, annotations
    or labels.
    """

    tid: int
    values: tuple[str, ...]
    annotations: tuple[str, ...] = ()
    labels: frozenset[str] = _NO_LABELS
    alive: bool = True
    cell_anchors: dict[str, AnnotationAnchor] | None = None

    @property
    def annotation_ids(self) -> frozenset[str]:
        return frozenset(self.annotations)

    @property
    def is_annotated(self) -> bool:
        return bool(self.annotations)

    def has_annotation(self, annotation_id: str) -> bool:
        return annotation_id in self.annotations

    def anchor(self, annotation_id: str) -> AnnotationAnchor | None:
        """The anchor ``annotation_id`` was attached with; ``None`` when
        the row does not carry it."""
        if annotation_id not in self.annotations:
            return None
        if self.cell_anchors is not None:
            cell = self.cell_anchors.get(annotation_id)
            if cell is not None:
                return cell
        return _ROW_ANCHOR

    def attach(self, annotation_id: str,
               anchor: AnnotationAnchor | None = None) -> bool:
        """Attach an annotation; False when it was already present.

        A tuple carries a given annotation id at most once (the paper
        makes the same at-most-once guarantee for generalization labels).
        """
        ids = self.annotations
        if annotation_id in ids:
            return False
        position = bisect_left(ids, annotation_id)
        self.annotations = (*ids[:position], annotation_id, *ids[position:])
        if anchor is not None and anchor.scope is not AnchorScope.ROW:
            self.cell_anchors = {**(self.cell_anchors or {}),
                                 annotation_id: anchor}
        return True

    def detach(self, annotation_id: str) -> bool:
        """Remove an annotation; False when it was not present."""
        ids = self.annotations
        if annotation_id not in ids:
            return False
        position = ids.index(annotation_id)
        self.annotations = ids[:position] + ids[position + 1:]
        anchors = self.cell_anchors
        if anchors is not None and annotation_id in anchors:
            self.cell_anchors = {key: anchor
                                 for key, anchor in anchors.items()
                                 if key != annotation_id} or None
        return True

    def tombstone(self) -> None:
        """Mark the row deleted and drop everything but its tid."""
        self.alive = False
        self.values = self.annotations = ()
        self.labels = _NO_LABELS
        self.cell_anchors = None
