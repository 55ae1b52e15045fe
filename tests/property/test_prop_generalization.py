"""Property tests: incremental maintenance over the *extended* database.

Generalization labels are derived items that arrive and leave together
with the raw annotations that imply them — the trickiest interaction in
the incremental engine.  These properties drive random relations,
random keyword/id generalization rules and random event sequences, and
require exact equivalence with re-mining the final extended database.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import CorrelationEngine
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from repro.relation.relation import AnnotatedRelation
from tests.conftest import assert_equivalent_to_remine

ANNOTATIONS = ["Annot_1", "Annot_2", "Annot_3", "Annot_4"]
VALUES = ["v0", "v1", "v2"]

row_strategy = st.tuples(
    st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
    st.frozensets(st.sampled_from(ANNOTATIONS), max_size=2),
)

#: Partition-ish mapping: each label covers a random subset of ids.
mapping_strategy = st.dictionaries(
    keys=st.sampled_from(["LabelA", "LabelB"]),
    values=st.frozensets(st.sampled_from(ANNOTATIONS), min_size=1,
                         max_size=3),
    min_size=1, max_size=2)


def build_manager(rows, mapping, with_hierarchy):
    relation = AnnotatedRelation()
    for values, annotations in rows:
        relation.insert(values, annotations)
    rules = GeneralizationRuleSet(
        [GeneralizationRule(label, IdMatcher(ids))
         for label, ids in sorted(mapping.items())])
    hierarchy = None
    if with_hierarchy:
        hierarchy = ConceptHierarchy.from_edges(
            [(label, "Root") for label in mapping])
    generalizer = Generalizer(relation.registry, rules, hierarchy)
    manager = CorrelationEngine(relation, min_support=0.2,
                                min_confidence=0.6,
                                generalizer=generalizer,
                                validate=True)
    manager.mine()
    return manager


@given(rows=st.lists(row_strategy, min_size=2, max_size=12),
       mapping=mapping_strategy,
       with_hierarchy=st.booleans())
@settings(max_examples=40, deadline=None)
def test_generalized_mine_equals_remine(rows, mapping, with_hierarchy):
    manager = build_manager(rows, mapping, with_hierarchy)
    assert_equivalent_to_remine(manager)


@given(rows=st.lists(row_strategy, min_size=3, max_size=10),
       mapping=mapping_strategy,
       pairs=st.lists(
           st.tuples(st.integers(min_value=0, max_value=9),
                     st.sampled_from(ANNOTATIONS)),
           min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_generalized_case3_equals_remine(rows, mapping, pairs):
    manager = build_manager(rows, mapping, with_hierarchy=False)
    live = [(tid, annotation) for tid, annotation in pairs
            if manager.relation.is_live(tid)]
    if live:
        manager.add_annotations(live)
    assert_equivalent_to_remine(manager)


@given(rows=st.lists(row_strategy, min_size=3, max_size=10),
       mapping=mapping_strategy,
       pairs=st.lists(
           st.tuples(st.integers(min_value=0, max_value=9),
                     st.sampled_from(ANNOTATIONS)),
           min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_generalized_removal_equals_remine(rows, mapping, pairs):
    manager = build_manager(rows, mapping, with_hierarchy=True)
    live = [(tid, annotation) for tid, annotation in pairs
            if manager.relation.is_live(tid)
            and manager.relation.tuple(tid).has_annotation(annotation)]
    if live:
        manager.remove_annotations(live)
    assert_equivalent_to_remine(manager)


@given(rows=st.lists(row_strategy, min_size=2, max_size=10),
       mapping=mapping_strategy)
@settings(max_examples=30, deadline=None)
def test_labels_are_exactly_the_generalizer_output(rows, mapping):
    """After any mine, every tuple's labels == labels_for(annotations)."""
    manager = build_manager(rows, mapping, with_hierarchy=False)
    for row in manager.relation:
        expected = manager.generalizer.labels_for(row.annotation_ids)
        assert frozenset(row.labels) == expected
