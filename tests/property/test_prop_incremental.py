"""The paper's central claim as a property-based test.

For a random annotated relation and a random sequence of update events
(all three of the paper's cases plus the removal extensions), the
incrementally maintained rule set must be *identical* — structure and
exact counts — to a full re-mine of the final database.  This is
precisely the verification the paper performs manually in each of its
three "Results" subsections, generalized over thousands of random
scenarios.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import CorrelationEngine
from repro.relation.relation import AnnotatedRelation
from tests.conftest import assert_equivalent_to_remine

VALUES = ["v0", "v1", "v2", "v3"]
ANNOTATIONS = ["Annot_1", "Annot_2", "Annot_3"]

row_strategy = st.tuples(
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
    st.frozensets(st.sampled_from(ANNOTATIONS), max_size=2),
)

relation_strategy = st.lists(row_strategy, min_size=2, max_size=14)

thresholds_strategy = st.tuples(
    st.sampled_from([0.15, 0.25, 0.4]),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.sampled_from([0.5, 0.75, 1.0]),
)


def event_strategy(max_tid):
    add_annotations = st.lists(
        st.tuples(st.integers(min_value=0, max_value=max_tid - 1),
                  st.sampled_from(ANNOTATIONS)),
        min_size=1, max_size=4,
    ).map(lambda pairs: ("add_annotations", pairs))
    insert_annotated = st.lists(row_strategy, min_size=1, max_size=3).map(
        lambda rows: ("insert_annotated", rows))
    insert_unannotated = st.lists(
        st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
        min_size=1, max_size=3,
    ).map(lambda rows: ("insert_unannotated", rows))
    remove_annotations = st.lists(
        st.tuples(st.integers(min_value=0, max_value=max_tid - 1),
                  st.sampled_from(ANNOTATIONS)),
        min_size=1, max_size=3,
    ).map(lambda pairs: ("remove_annotations", pairs))
    remove_tuples = st.lists(
        st.integers(min_value=0, max_value=max_tid - 1),
        min_size=1, max_size=2, unique=True,
    ).map(lambda tids: ("remove_tuples", tids))
    return st.one_of(add_annotations, insert_annotated,
                     insert_unannotated, remove_annotations, remove_tuples)


def build_manager(rows, thresholds):
    relation = AnnotatedRelation()
    for values, annotations in rows:
        relation.insert(values, annotations)
    min_support, min_confidence, margin = thresholds
    manager = CorrelationEngine(relation, min_support=min_support,
                                min_confidence=min_confidence,
                                margin=margin, validate=True)
    manager.mine()
    return manager


def apply_event(manager, event):
    kind, payload = event
    if kind == "add_annotations":
        live = [(tid, annotation) for tid, annotation in payload
                if manager.relation.is_live(tid)]
        if live:
            manager.add_annotations(live)
    elif kind == "insert_annotated":
        manager.insert_annotated(payload)
    elif kind == "insert_unannotated":
        manager.insert_unannotated(payload)
    elif kind == "remove_annotations":
        live = [(tid, annotation) for tid, annotation in payload
                if manager.relation.is_live(tid)]
        if live:
            manager.remove_annotations(live)
    elif kind == "remove_tuples":
        live = [tid for tid in payload
                if manager.relation.is_live(tid)]
        if live and manager.relation.live_count > len(live):
            manager.remove_tuples(live)


@given(rows=relation_strategy, thresholds=thresholds_strategy,
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_incremental_equals_remine_after_event_sequence(rows, thresholds,
                                                        data):
    manager = build_manager(rows, thresholds)
    events = data.draw(st.lists(
        event_strategy(max_tid=max(2, manager.relation.tid_range)),
        min_size=1, max_size=4))
    for event in events:
        apply_event(manager, event)
    assert_equivalent_to_remine(manager)


@given(rows=relation_strategy, thresholds=thresholds_strategy)
@settings(max_examples=40, deadline=None)
def test_initial_mine_equals_remine(rows, thresholds):
    manager = build_manager(rows, thresholds)
    assert_equivalent_to_remine(manager)


@given(rows=relation_strategy,
       pairs=st.lists(
           st.tuples(st.integers(min_value=0, max_value=13),
                     st.sampled_from(ANNOTATIONS)),
           min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_case3_specifically(rows, pairs):
    """The paper's main contribution gets its own dense property."""
    manager = build_manager(rows, (0.2, 0.6, 0.75))
    live = [(tid, annotation) for tid, annotation in pairs
            if manager.relation.is_live(tid)]
    if live:
        manager.add_annotations(live)
    assert_equivalent_to_remine(manager)


@given(rows=relation_strategy)
@settings(max_examples=40, deadline=None)
def test_case2_never_adds_rules(rows):
    manager = build_manager(rows, (0.2, 0.6, 0.75))
    report = manager.insert_unannotated([("v0", "v1"), ("v2", "v3")])
    assert report.rules_added == []
    assert_equivalent_to_remine(manager)
