"""Annotation-propagating relational algebra.

The paper's related work (§2.1) surveys annotation management systems
that "extend SQL with new commands and clauses" so that annotations
flow through queries — the pSQL/DBNotes model: a selection keeps the
annotations of the tuples it keeps, a projection keeps the annotations
anchored to surviving cells (plus row-level ones), and a join unions
the annotations of the joined tuples.  This module implements that
propagation semantics over :class:`AnnotatedRelation` so the library is
usable as the annotation-management substrate those systems provide,
not only as a miner.

Operators return *new* relations; inputs are never mutated.  Provenance
of every output tuple (the input tids it came from) is returned
alongside, because the exploitation layer can push recommendations back
through it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.tuples import AnchorScope, AnnotationAnchor

#: Predicate over a tuple's values, e.g. ``lambda row: row[0] == "28"``.
RowPredicate = Callable[[tuple[str, ...]], bool]


@dataclass(frozen=True, slots=True)
class QueryResult:
    """An output relation plus per-tuple provenance.

    ``provenance[out_tid]`` is the tuple of input tids that produced
    the output tuple (one tid for select/project, two for join).
    """

    relation: AnnotatedRelation
    provenance: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.relation)


def _copy_registry(source: AnnotatedRelation,
                   target: AnnotatedRelation) -> None:
    for annotation in source.registry:
        target.registry.register(annotation)


def select(relation: AnnotatedRelation,
           predicate: RowPredicate,
           *, name: str | None = None) -> QueryResult:
    """σ — keep tuples satisfying ``predicate`` with all annotations.

    Propagation: every annotation of a surviving tuple survives with
    its anchor (selection does not change the tuple's shape), so an
    output row shares its input row's values, id tuple, cell anchors
    and labels.
    """
    out = AnnotatedRelation(relation.schema,
                            name=name or f"select({relation.name})")
    _copy_registry(relation, out)
    provenance: list[tuple[int, ...]] = []
    for row in relation:
        if not predicate(row.values):
            continue
        (new_tid,) = out.insert_many(((row.values, row.annotations),))
        out.tuple(new_tid).cell_anchors = row.cell_anchors
        out.set_labels(new_tid, row.labels)
        provenance.append((row.tid,))
    return QueryResult(out, tuple(provenance))


def project(relation: AnnotatedRelation,
            columns: Sequence[int],
            *, name: str | None = None,
            distinct: bool = False) -> QueryResult:
    """π — keep a subset of columns.

    Propagation (pSQL semantics): row-anchored annotations always
    survive; cell-anchored annotations survive only when their column
    survives, re-anchored to the column's new position.  With
    ``distinct=True``, duplicate output rows are merged and their
    annotation sets unioned — the "union of annotations of duplicate
    answers" rule of annotation-propagating query systems.
    """
    if not columns:
        raise SchemaError("projection needs at least one column")
    arity = (relation.schema.arity if relation.schema is not None
             else None)
    for column in columns:
        if column < 0 or (arity is not None and column >= arity):
            raise SchemaError(f"projection column {column} out of range")

    new_schema = None
    if relation.schema is not None:
        new_schema = Schema([relation.schema.attributes[column].name
                             for column in columns])
    out = AnnotatedRelation(new_schema,
                            name=name or f"project({relation.name})")
    _copy_registry(relation, out)

    position_of = {column: position
                   for position, column in enumerate(columns)}
    provenance: list[tuple[int, ...]] = []
    merged: dict[tuple[str, ...], int] = {}

    for row in relation:
        try:
            values = tuple(row.values[column] for column in columns)
        except IndexError:
            raise SchemaError(
                f"tuple {row.tid} has arity {len(row.values)}; cannot "
                f"project column {max(columns)}") from None
        if distinct and values in merged:
            new_tid = merged[values]
            provenance[new_tid] = provenance[new_tid] + (row.tid,)
        else:
            new_tid = out.insert(values)
            provenance.append((row.tid,))
            if distinct:
                merged[values] = new_tid
        for annotation_id in row.annotations:
            anchor = row.anchor(annotation_id)
            if anchor.scope is AnchorScope.ROW:
                out.annotate(new_tid, annotation_id)
            elif anchor.scope is AnchorScope.CELL \
                    and anchor.column in position_of:
                out.annotate(new_tid, annotation_id,
                             AnnotationAnchor.cell(
                                 position_of[anchor.column]))
        out.add_labels(new_tid, row.labels)
    return QueryResult(out, tuple(provenance))


def join(left: AnnotatedRelation,
         right: AnnotatedRelation,
         on: tuple[int, int],
         *, name: str | None = None) -> QueryResult:
    """⋈ — equi-join on ``left[on[0]] == right[on[1]]``.

    Propagation: an output tuple carries the union of both inputs'
    annotations (re-anchored: right cell anchors shift by the left
    arity).  This is how "exchanged knowledge from different users"
    meets across relations in the paper's motivating scenario.
    """
    left_column, right_column = on
    new_schema = None
    if left.schema is not None and right.schema is not None:
        names = [attribute.name for attribute in left.schema.attributes]
        for attribute in right.schema.attributes:
            candidate = attribute.name
            while candidate in names:
                candidate = f"{candidate}_r"
            names.append(candidate)
        new_schema = Schema(names)
    out = AnnotatedRelation(new_schema,
                            name=name or f"join({left.name},{right.name})")
    _copy_registry(left, out)
    _copy_registry(right, out)

    by_key: dict[str, list] = {}
    for row in right:
        if right_column >= len(row.values):
            raise SchemaError(
                f"right tuple {row.tid} has no column {right_column}")
        by_key.setdefault(row.values[right_column], []).append(row)

    provenance: list[tuple[int, ...]] = []
    for left_row in left:
        if left_column >= len(left_row.values):
            raise SchemaError(
                f"left tuple {left_row.tid} has no column {left_column}")
        for right_row in by_key.get(left_row.values[left_column], ()):
            new_tid = out.insert(left_row.values + right_row.values)
            for annotation_id in left_row.annotations:
                out.annotate(new_tid, annotation_id,
                             left_row.anchor(annotation_id))
            for annotation_id in right_row.annotations:
                anchor = right_row.anchor(annotation_id)
                if anchor.scope is AnchorScope.CELL:
                    shifted = AnnotationAnchor.cell(
                        anchor.column + len(left_row.values))
                    out.annotate(new_tid, annotation_id, shifted)
                else:
                    out.annotate(new_tid, annotation_id)
            out.add_labels(new_tid,
                           left_row.labels | right_row.labels)
            provenance.append((left_row.tid, right_row.tid))
    return QueryResult(out, tuple(provenance))


def union(left: AnnotatedRelation,
          right: AnnotatedRelation,
          *, name: str | None = None,
          distinct: bool = True) -> QueryResult:
    """∪ — append both inputs; duplicates merge annotation sets.

    With ``distinct=True`` (bag-to-set semantics), equal rows from the
    two inputs become one output tuple annotated with the union of
    both sides' annotations.
    """
    if left.schema is not None and right.schema is not None \
            and left.schema != right.schema:
        raise SchemaError("union requires identical schemas")
    out = AnnotatedRelation(left.schema or right.schema,
                            name=name or f"union({left.name},{right.name})")
    _copy_registry(left, out)
    _copy_registry(right, out)

    provenance: list[tuple[int, ...]] = []
    merged: dict[tuple[str, ...], int] = {}

    def absorb(relation: AnnotatedRelation) -> None:
        for row in relation:
            if distinct and row.values in merged:
                new_tid = merged[row.values]
                provenance[new_tid] = provenance[new_tid] + (row.tid,)
            else:
                new_tid = out.insert(row.values)
                provenance.append((row.tid,))
                if distinct:
                    merged[row.values] = new_tid
            for annotation_id in row.annotations:
                out.annotate(new_tid, annotation_id,
                             row.anchor(annotation_id))
            out.add_labels(new_tid, row.labels)

    absorb(left)
    absorb(right)
    return QueryResult(out, tuple(provenance))
