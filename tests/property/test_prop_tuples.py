"""A row's annotations: one sorted id tuple, sparse cell anchors.

Attach, detach and delete sequences, cell anchors included, run against
an :class:`AnnotatedRelation` and a dict-based reference model (tid ->
``{annotation id: cell column or None}``).  The relation, its
``copy()`` and a snapshot round trip must all hold the model's
annotation set, kept sorted, and ``copy()`` the model's anchors too
(the snapshot format keeps no anchors: a restored row's annotations
are all row-anchored).  A tombstone keeps nothing.  A copy shares its
rows' tuples and anchor dicts, so changing the copy must leave the
original as it was.

The snapshot of one fixed engine state must also stay byte for byte
what it was when rows kept an ``{id: anchor}`` dict.
"""

import hashlib
import io
import random

from hypothesis import given, settings, strategies as st

from repro.core import persistence
from repro.core.engine import CorrelationEngine
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.relation.tuples import AnchorScope, AnnotationAnchor

ARITY = 3
N_ROWS = 6
POOL = ["B", "A10", "A2", "C", "A1"]   # listed out of sorted order

row_strategy = st.tuples(
    st.tuples(*[st.sampled_from(["x", "y"]) for _ in range(ARITY)]),
    st.lists(st.sampled_from(POOL), max_size=4),   # unsorted, repeats
)
tids = st.integers(min_value=0, max_value=N_ROWS - 1)
op_strategy = st.one_of(
    st.tuples(st.just("attach"), tids, st.sampled_from(POOL),
              st.none() | st.integers(min_value=0, max_value=ARITY - 1)),
    st.tuples(st.just("detach"), tids, st.sampled_from(POOL)),
    st.tuples(st.just("delete"), tids),
)

Model = dict[int, dict[str, int | None] | None]


def build(rows) -> tuple[AnnotatedRelation, Model]:
    relation = AnnotatedRelation(Schema(["p", "q", "r"]))
    model: Model = {}
    for values, annotations in rows:
        tid = relation.insert(values, annotations)
        model[tid] = dict.fromkeys(annotations)
    return relation, model


def apply(relation: AnnotatedRelation, model: Model, op) -> None:
    kind, tid = op[0], op[1]
    if model[tid] is None:
        return  # deleted: every call would refuse the tid
    if kind == "attach":
        annotation_id, column = op[2], op[3]
        anchor = None if column is None else AnnotationAnchor.cell(column)
        attached = relation.annotate(tid, annotation_id, anchor)
        assert attached == (annotation_id not in model[tid])
        model[tid].setdefault(annotation_id, column)
    elif kind == "detach":
        assert relation.detach(tid, op[2]) == (op[2] in model[tid])
        model[tid].pop(op[2], None)
    else:
        relation.delete(tid)
        model[tid] = None


def assert_row(row, expected: dict[str, int | None], *,
               anchors: bool = True) -> None:
    assert row.alive
    assert row.annotations == tuple(sorted(expected))
    assert row.annotation_ids == set(expected)
    for annotation_id in POOL:
        anchor = row.anchor(annotation_id)
        if annotation_id not in expected:
            assert anchor is None
        elif anchors and expected[annotation_id] is not None:
            assert anchor.scope is AnchorScope.CELL
            assert anchor.column == expected[annotation_id]
        else:
            assert anchor is AnnotationAnchor.row()
    cells = {annotation_id: AnnotationAnchor.cell(column)
             for annotation_id, column in expected.items()
             if column is not None}
    assert row.cell_anchors == (cells if anchors and cells else None)


def assert_matches(relation: AnnotatedRelation, model: Model, *,
                   anchors: bool = True) -> None:
    assert relation.tid_range == len(model)
    assert relation.live_count == sum(
        expected is not None for expected in model.values())
    for row in relation.tid_slice(0, relation.tid_range):
        expected = model[row.tid]
        if expected is None:
            assert not row.alive
            assert row.values == () and row.annotations == ()
            assert not row.labels and row.cell_anchors is None
        else:
            assert_row(row, expected, anchors=anchors)


@given(rows=st.lists(row_strategy, min_size=N_ROWS, max_size=N_ROWS),
       ops=st.lists(op_strategy, max_size=30))
@settings(max_examples=80, deadline=None)
def test_rows_match_a_dict_model_through_copy_and_snapshot(rows, ops):
    relation, model = build(rows)
    for op in ops:
        apply(relation, model, op)
    assert_matches(relation, model)

    clone = relation.copy()
    assert_matches(clone, model)

    live = [tid for tid, expected in model.items() if expected is not None]

    # The copy shares tuples and anchor dicts: changing it must leave
    # the original untouched.
    for tid in live:
        clone.annotate(tid, "Z", AnnotationAnchor.cell(0))
        for annotation_id in POOL:
            clone.detach(tid, annotation_id)
    assert_matches(relation, model)

    if live:
        engine = CorrelationEngine(relation, min_support=0.3,
                                   min_confidence=0.6)
        engine.mine()
        restored = persistence.restore(persistence.snapshot(engine))
        assert_matches(restored.relation, model, anchors=False)
        assert restored.signature() == engine.signature()


def golden_engine() -> CorrelationEngine:
    """A fixed engine state whose rows list their annotations out of
    order and with repeats, then a flush of every event type.  Every
    annotation id a flush inserts is registered first, so the document
    does not depend on set iteration order."""
    rng = random.Random(7)
    pool = ["Annot_9", "Annot_2", "Annot_10", "Annot_1", "Annot_3"]
    relation = AnnotatedRelation(Schema(["c0", "c1", "c2"]))
    for _ in range(120):
        values = [rng.choice("abcd") for _ in range(3)]
        relation.insert(values, [rng.choice(pool)
                                 for _ in range(rng.randrange(4))])
    generalizer = Generalizer(
        relation.registry,
        GeneralizationRuleSet([
            GeneralizationRule("Low", IdMatcher(frozenset({"Annot_1",
                                                           "Annot_2"}))),
            GeneralizationRule("High", IdMatcher(frozenset({"Annot_9"})))]),
        ConceptHierarchy.from_edges([("Low", "Any"), ("High", "Any")]))
    engine = CorrelationEngine(relation, min_support=0.2,
                               min_confidence=0.6, generalizer=generalizer)
    engine.mine()
    engine.apply_batch([
        AddAnnotations.build([(3, "Annot_10"), (4, "Annot_1"),
                              (5, "Annot_9"), (6, "Annot_2")]),
        RemoveAnnotations.build([
            (tid, min(relation.tuple(tid).annotation_ids))
            for tid in range(10, 30)
            if relation.tuple(tid).annotation_ids]),
        RemoveTuples.build([0, 7, 21]),
        AddAnnotatedTuples.build([(("a", "b", "c"),
                                   ["Annot_3", "Annot_1", "Annot_3"]),
                                  (("d", "d", "a"), ["Annot_9"])]),
        AddUnannotatedTuples.build([("b", "b", "b")]),
        RemoveTuples.build([121]),
    ])
    return engine


#: sha256 of :func:`golden_engine`'s snapshot as written when every
#: row kept an ``{annotation id: anchor}`` dict.
GOLDEN_SNAPSHOT_SHA256 = (
    "e98694bd48e4d417538050731a52d38701baa217f38c3647a99bf90ee20ee7fa")


def test_a_snapshot_is_byte_identical_to_the_dict_layout():
    engine = golden_engine()
    assert engine.verify_against_remine().equivalent
    buffer = io.StringIO()
    persistence.dump(engine, buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SNAPSHOT_SHA256
