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
from dataclasses import dataclass, field

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


@dataclass(slots=True)
class AnnotatedTuple:
    """One row: immutable data values plus a mutable annotation set.

    ``annotations`` maps annotation id to the anchor it was attached
    with; mining cares only about the key set.  ``labels`` holds
    generalization labels (section 4.1), kept separate from raw
    annotations so re-labelling can be recomputed without touching
    curator-provided annotations.  It is an immutable set, rebound on
    every change, so unlabelled tuples all share the one empty
    frozenset.
    """

    tid: int
    values: tuple[str, ...]
    annotations: dict[str, AnnotationAnchor] = field(default_factory=dict)
    labels: frozenset[str] = frozenset()
    alive: bool = True

    @property
    def annotation_ids(self) -> frozenset[str]:
        return frozenset(self.annotations)

    @property
    def is_annotated(self) -> bool:
        return bool(self.annotations)

    def has_annotation(self, annotation_id: str) -> bool:
        return annotation_id in self.annotations

    def attach(self, annotation_id: str,
               anchor: AnnotationAnchor | None = None) -> bool:
        """Attach an annotation; False when it was already present.

        A tuple carries a given annotation id at most once (the paper
        makes the same at-most-once guarantee for generalization labels).
        """
        if annotation_id in self.annotations:
            return False
        self.annotations[annotation_id] = anchor or AnnotationAnchor.row()
        return True

    def detach(self, annotation_id: str) -> bool:
        """Remove an annotation; False when it was not present."""
        return self.annotations.pop(annotation_id, None) is not None
