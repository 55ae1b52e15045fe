"""Snapshot round-trip laws for manager persistence."""

from hypothesis import given, settings, strategies as st

from repro.core.engine import CorrelationEngine
from repro.core.persistence import restore, snapshot
from repro.relation.relation import AnnotatedRelation

VALUES = ["v0", "v1", "v2"]
ANNOTATIONS = ["Annot_1", "Annot_2"]

row_strategy = st.tuples(
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
    st.frozensets(st.sampled_from(ANNOTATIONS), max_size=2),
)


def build_manager(rows):
    relation = AnnotatedRelation()
    for values, annotations in rows:
        relation.insert(values, annotations)
    manager = CorrelationEngine(relation, min_support=0.2,
                                min_confidence=0.6)
    manager.mine()
    return manager


@given(rows=st.lists(row_strategy, min_size=2, max_size=12))
@settings(max_examples=40, deadline=None)
def test_snapshot_restore_preserves_signature(rows):
    manager = build_manager(rows)
    restored = restore(snapshot(manager))
    assert restored.signature() == manager.signature()
    assert restored.db_size == manager.db_size
    assert len(restored.table) == len(manager.table)


@given(rows=st.lists(row_strategy, min_size=2, max_size=10),
       pairs=st.lists(
           st.tuples(st.integers(min_value=0, max_value=9),
                     st.sampled_from(ANNOTATIONS)),
           min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_restored_manager_continues_incrementally(rows, pairs):
    """save -> load -> more updates must equal never having saved."""
    original = build_manager(rows)
    restored = restore(snapshot(original))
    live_pairs = [(tid, annotation) for tid, annotation in pairs
                  if original.relation.is_live(tid)]
    if live_pairs:
        original.add_annotations(live_pairs)
        restored.add_annotations(live_pairs)
    assert restored.signature() == original.signature()


@given(rows=st.lists(row_strategy, min_size=2, max_size=10))
@settings(max_examples=30, deadline=None)
def test_snapshot_is_stable(rows):
    """Snapshotting twice without changes yields equal documents."""
    manager = build_manager(rows)
    assert snapshot(manager) == snapshot(manager)
