"""The annotated relation: Definition 4.1 as a storage engine.

``R = { r = <x1 … xn, a1, a2, …> }`` — tuples of data values with a
variable number of attached annotations.  The relation is tid-addressed
and append-only for data (updates arrive as the paper's three cases:
annotated tuples, un-annotated tuples, new annotations on existing
tuples), plus the future-work extensions (annotation detachment, tuple
deletion) implemented behind the same API.

Deletion uses tombstones so tids remain stable; every consumer that
cares about database size must use :attr:`AnnotatedRelation.live_count`,
never the tid range.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from operator import lt

from repro.errors import SchemaError, UnknownTupleError
from repro.relation.annotation import Annotation, AnnotationRegistry
from repro.relation.schema import Schema, opaque_token
from repro.relation.tuples import AnchorScope, AnnotatedTuple, AnnotationAnchor


def interned_strs(strings: Iterable[object]) -> tuple[str, ...]:
    """``str()`` of each of ``strings``, interned, as a tuple: the form
    a row's values and annotation ids are kept in."""
    strings = tuple(strings)
    # Built from a list, the tuple is allocated at its exact size and
    # returns to the tuple free list when freed.  ``tuple(map(...))``
    # allocates ten slots and shrinks them, so every short-lived result
    # (an inserted row's annotation ids) was parked in a free list.
    try:
        return tuple([*map(sys.intern, strings)])
    except TypeError:  # not all exact strs: coerce each first
        return tuple([sys.intern(str(item)) for item in strings])


class AnnotatedRelation:
    """In-memory annotated relation (Definition 4.1)."""

    def __init__(self, schema: Schema | None = None, *,
                 name: str = "R") -> None:
        self.name = name
        self.schema = schema
        self.registry = AnnotationRegistry()
        self._tuples: list[AnnotatedTuple] = []
        self._column_annotations: dict[int, set[str]] = {}
        self._live = 0
        #: Monotone counter bumped by every mutation; the incremental
        #: manager records it to detect out-of-band modifications.
        self.version = 0

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        """Number of live tuples (the |DB| of support computations)."""
        return self._live

    @property
    def live_count(self) -> int:
        return self._live

    @property
    def tid_range(self) -> int:
        """Upper bound on tids (includes tombstoned tuples)."""
        return len(self._tuples)

    def tuple(self, tid: int) -> AnnotatedTuple:
        row = self._row(tid)
        if not row.alive:
            raise UnknownTupleError(f"tuple {tid} has been deleted")
        return row

    def _row(self, tid: int) -> AnnotatedTuple:
        if not isinstance(tid, int) or not 0 <= tid < len(self._tuples):
            raise UnknownTupleError(f"unknown tuple id {tid!r}")
        return self._tuples[tid]

    def __iter__(self) -> Iterator[AnnotatedTuple]:
        return (row for row in self._tuples if row.alive)

    def tid_slice(self, start: int, stop: int) -> list[AnnotatedTuple]:
        """The rows of tids ``start`` to ``stop - 1``, tombstones
        (``alive`` False) included."""
        return self._tuples[start:stop]

    def tids(self) -> Iterator[int]:
        return (row.tid for row in self._tuples if row.alive)

    def is_live(self, tid: int) -> bool:
        return 0 <= tid < len(self._tuples) and self._tuples[tid].alive

    def data_tokens(self, tid: int) -> tuple[str, ...]:
        """The item tokens of a tuple's data values."""
        row = self.tuple(tid)
        if self.schema is None:
            return tuple(opaque_token(value) for value in row.values)
        return tuple(self.schema.data_token(position, value)
                     for position, value in enumerate(row.values))

    def column_annotations(self, column: int) -> frozenset[str]:
        """Annotations anchored to a whole column (relation-level)."""
        return frozenset(self._column_annotations.get(column, ()))

    # -- mutation ----------------------------------------------------------

    def insert(self, values: Sequence[str],
               annotations: Iterable[str] = ()) -> int:
        """Append a tuple; returns its tid.

        The one-row case of :meth:`insert_many`, which keeps ``str()``
        of each value and annotation id."""
        return self.insert_many(
            ((interned_strs(values), interned_strs(annotations)),))[0]

    def insert_many(self, rows: Iterable[tuple[Sequence[str], Iterable[str]]]
                    ) -> list[int]:
        """Insert ``(values, annotations)`` pairs; returns their tids.

        Each row is appended before the next is read, so a generator
        loads a relation without a second copy of the batch, and a bad
        row fails after the rows before it.  Values and annotation ids
        repeat across tuples, so every row shares one interned copy of
        each.  A tuple is adopted as it is:
        it must hold interned strings, as :func:`interned_strs` makes
        them (and :meth:`insert`, the tenant loader and the snapshot
        reader do).  Any other sequence goes through it first.  A row
        keeps its annotation ids sorted and distinct: a tuple that
        already is (a snapshot's rows are) becomes the row's own
        without a copy, and any other is sorted once the registry has
        met its new ids in the order given.
        """
        schema = self.schema
        ensure = self.registry.ensure
        ensured: set[str] = set()
        tuples = self._tuples
        first = len(tuples)
        for values, annotations in rows:
            if type(values) is not tuple:
                values = interned_strs(values)
            if type(annotations) is not tuple:
                annotations = interned_strs(annotations)
            if schema is not None:
                if len(values) != schema.arity:
                    schema.validate_row(values)  # raises the arity error
            elif not values:
                raise SchemaError("a tuple needs at least one data value")
            # The registry sees each distinct id once per batch, in the
            # order the row lists them.
            if not ensured.issuperset(annotations):
                for annotation_id in annotations:
                    ensure(annotation_id)
                ensured.update(annotations)
            if len(annotations) > 1 and not all(
                    map(lt, annotations, annotations[1:])):
                annotations = tuple(sorted(set(annotations)))
            tuples.append(AnnotatedTuple(len(tuples), values, annotations))
            self._live += 1
            self.version += 1
        return list(range(first, len(tuples)))

    def annotate(self, tid: int, annotation: str | Annotation,
                 anchor: AnnotationAnchor | None = None) -> bool:
        """Attach an annotation to a live tuple; False if already present.

        Bumps :attr:`version` only when the attachment is new.
        """
        row = self.tuple(tid)
        if isinstance(annotation, Annotation):
            self.registry.register(annotation)
            annotation_id = annotation.annotation_id
        else:
            self.registry.ensure(annotation)
            annotation_id = annotation
        annotation_id = sys.intern(str(annotation_id))
        anchor = anchor or AnnotationAnchor.row()
        if anchor.scope is AnchorScope.COLUMN:
            raise SchemaError(
                "column anchors attach to the relation; use annotate_column")
        if anchor.column is not None and (
                not 0 <= anchor.column < len(row.values)):
            raise SchemaError(
                f"cell anchor column {anchor.column} outside tuple arity "
                f"{len(row.values)}")
        attached = row.attach(annotation_id, anchor)
        if attached:
            self.version += 1
        return attached

    def annotate_column(self, column: int,
                        annotation: str | Annotation) -> bool:
        """Attach an annotation to a whole column (relation-level)."""
        arity = self.schema.arity if self.schema is not None else None
        if column < 0 or (arity is not None and column >= arity):
            raise SchemaError(f"column {column} outside schema")
        if isinstance(annotation, Annotation):
            self.registry.register(annotation)
            annotation_id = annotation.annotation_id
        else:
            self.registry.ensure(annotation)
            annotation_id = annotation
        bucket = self._column_annotations.setdefault(column, set())
        if annotation_id in bucket:
            return False
        bucket.add(annotation_id)
        self.version += 1
        return True

    def detach(self, tid: int, annotation_id: str) -> bool:
        """Remove an annotation from a tuple (future-work extension)."""
        row = self.tuple(tid)
        detached = row.detach(annotation_id)
        if detached:
            self.version += 1
        return detached

    def delete(self, tid: int) -> None:
        """Tombstone a tuple (future-work extension).

        The tid stays taken, so later tids do not move, but the
        tombstone keeps no values, annotations or labels: under churn
        memory follows |DB|, not the number of inserts ever made."""
        row = self.tuple(tid)
        row.tombstone()
        self._live -= 1
        self.version += 1

    # -- labels (generalization, section 4.1) ------------------------------

    def set_labels(self, tid: int, labels: Iterable[str]) -> None:
        """Replace the generalization labels of a tuple (no-op safe)."""
        row = self.tuple(tid)
        new_labels = frozenset(labels)
        if new_labels != row.labels:
            row.labels = new_labels
            self.version += 1

    def add_labels(self, tid: int, labels: Iterable[str]) -> frozenset[str]:
        """Add labels to a tuple; returns those that were actually new."""
        row = self.tuple(tid)
        new = frozenset(labels) - row.labels
        if new:
            row.labels = row.labels | new
            self.version += 1
        return new

    # -- copying -------------------------------------------------------------

    def subset(self, tids: Iterable[int]) -> "AnnotatedRelation":
        """A fresh relation holding copies of the given live tuples.

        Tuples are renumbered densely in the order of ``tids`` (the
        shard-local tid space of a partitioned engine).  The annotation
        registry is copied whole so annotation metadata survives.
        """
        clone = AnnotatedRelation(self.schema, name=self.name)
        for annotation in self.registry:
            clone.registry.register(annotation)
        for local_tid, tid in enumerate(tids):
            row = self.tuple(tid)
            clone._tuples.append(AnnotatedTuple(
                tid=local_tid,
                values=row.values,
                annotations=row.annotations,
                labels=row.labels,
                cell_anchors=row.cell_anchors,
            ))
        clone._live = len(clone._tuples)
        return clone

    def copy(self) -> "AnnotatedRelation":
        """Copy of data, annotations and labels.

        Rows are new objects; they share the immutable values, id
        tuples, label sets and cell-anchor dicts, which every mutation
        rebinds rather than changes in place.

        Used by the re-mine baseline so that verification never mutates
        the relation an incremental manager is tracking.
        """
        clone = AnnotatedRelation(self.schema, name=self.name)
        for annotation in self.registry:
            clone.registry.register(annotation)
        for row in self._tuples:
            copied = AnnotatedTuple(
                tid=row.tid,
                values=row.values,
                annotations=row.annotations,
                labels=row.labels,
                alive=row.alive,
                cell_anchors=row.cell_anchors,
            )
            clone._tuples.append(copied)
        clone._live = self._live
        clone._column_annotations = {
            column: set(ids)
            for column, ids in self._column_annotations.items()
        }
        clone.version = 0
        return clone
