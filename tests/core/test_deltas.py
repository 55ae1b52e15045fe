"""The delta-plan compiler: coalescing, elision, provenance, poison."""

import pytest

from repro.core.deltas import compile_plan, event_label
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.errors import DeltaPlanError, SchemaError, UnknownAnnotationError
from repro.relation.annotation import Annotation


def compile_over(events, *, next_tid=10, dead=(), annotations=None):
    """Compile against a synthetic relation of ``next_tid`` tuples."""
    have = {} if annotations is None else dict(annotations)
    return compile_plan(
        events,
        next_tid=next_tid,
        is_live=lambda tid: 0 <= tid < next_tid and tid not in dead,
        annotations_of=lambda tid: frozenset(have.get(tid, ())),
    )


class TestPairCoalescing:
    def test_duplicate_adds_collapse(self):
        plan = compile_over([
            AddAnnotations.build([(1, "A")]),
            AddAnnotations.build([(1, "A"), (2, "B")]),
        ])
        assert plan.annotation_adds == {1: ["A"], 2: ["B"]}
        assert plan.stats.pairs_collapsed == 1

    def test_add_then_remove_of_absent_pair_cancels(self):
        plan = compile_over([
            AddAnnotations.build([(1, "A")]),
            RemoveAnnotations.build([(1, "A")]),
        ])
        assert plan.annotation_adds == {}
        assert plan.annotation_removes == {}
        assert plan.is_empty
        assert plan.stats.pairs_cancelled == 1

    def test_add_then_remove_of_present_pair_nets_to_remove(self):
        plan = compile_over([
            AddAnnotations.build([(1, "A")]),
            RemoveAnnotations.build([(1, "A")]),
        ], annotations={1: {"A"}})
        assert plan.annotation_adds == {}
        assert plan.annotation_removes == {1: ["A"]}

    def test_remove_then_add_of_present_pair_cancels(self):
        plan = compile_over([
            RemoveAnnotations.build([(1, "A")]),
            AddAnnotations.build([(1, "A")]),
        ], annotations={1: {"A"}})
        assert plan.is_empty

    def test_noop_add_of_present_pair_cancels(self):
        plan = compile_over([AddAnnotations.build([(1, "A")])],
                            annotations={1: {"A"}})
        assert plan.is_empty and plan.stats.pairs_cancelled == 1

    def test_noop_remove_of_absent_pair_cancels(self):
        plan = compile_over([RemoveAnnotations.build([(1, "A")])])
        assert plan.is_empty

    def test_without_oracle_last_op_is_kept(self):
        plan = compile_plan(
            [AddAnnotations.build([(1, "A")]),
             RemoveAnnotations.build([(1, "A")])],
            next_tid=10, is_live=lambda tid: True)
        # No pre-batch knowledge: the net remove is carried (a no-op
        # detach at apply time if the pair never existed).
        assert plan.annotation_removes == {1: ["A"]}


class TestInsertMerging:
    def test_inserts_merge_in_tid_order(self):
        plan = compile_over([
            AddAnnotatedTuples.build([(("1", "2"), ("A",))]),
            AddUnannotatedTuples.build([("3", "4"), ("5", "6")]),
        ])
        assert [planned.tid for planned in plan.inserts] == [10, 11, 12]
        assert plan.inserts[0].annotations == {"A"}
        assert plan.inserts[1].annotations == set()

    def test_annotations_fold_into_pending_insert(self):
        plan = compile_over([
            AddAnnotatedTuples.build([(("1", "2"), ("A",))]),
            AddAnnotations.build([(10, "B")]),
            RemoveAnnotations.build([(10, "A")]),
        ])
        assert plan.inserts[0].annotations == {"B"}
        assert plan.annotation_adds == {}
        assert plan.stats.pairs_folded_into_inserts == 2

    def test_insert_then_delete_is_elided(self):
        plan = compile_over([
            AddAnnotatedTuples.build([(("1", "2"), ("A",)),
                                      (("3", "4"), ("B",))]),
            RemoveTuples.build([10]),
        ])
        assert plan.inserts[0].elided and not plan.inserts[1].elided
        assert plan.deletions == []
        assert plan.stats.inserts_elided == 1
        assert [planned.tid for planned in plan.live_inserts()] == [11]

    def test_delete_squashes_prior_annotation_ops(self):
        plan = compile_over([
            AddAnnotations.build([(3, "A")]),
            RemoveTuples.build([3]),
        ])
        assert plan.annotation_adds == {}
        assert plan.deletions == [3]
        assert plan.stats.pairs_cancelled == 1


class TestPoisonDetection:
    def test_unknown_tid_rejected(self):
        with pytest.raises(DeltaPlanError, match="unknown tuple 99"):
            compile_over([AddAnnotations.build([(99, "A")])])

    def test_dead_tid_rejected(self):
        with pytest.raises(DeltaPlanError, match="does not exist or is"):
            compile_over([AddAnnotations.build([(4, "A")])], dead={4})

    def test_annotating_batch_deleted_tuple_rejected(self):
        with pytest.raises(DeltaPlanError, match="deleted"):
            compile_over([
                RemoveTuples.build([3]),
                AddAnnotations.build([(3, "A")]),
            ])

    def test_double_delete_rejected(self):
        with pytest.raises(DeltaPlanError, match="deleted"):
            compile_over([RemoveTuples.build([3]),
                          RemoveTuples.build([3])])

    def test_unknown_event_type_rejected(self):
        with pytest.raises(DeltaPlanError, match="unknown update event"):
            compile_plan(["not-an-event"], next_tid=1,
                         is_live=lambda tid: True)

    def test_empty_batch_rejected(self):
        with pytest.raises(DeltaPlanError, match="empty"):
            compile_plan([], next_tid=1, is_live=lambda tid: True)


class TestFailurePosition:
    """Whatever the compiler raises for an event names its position."""

    def test_plan_errors_carry_the_position(self):
        with pytest.raises(DeltaPlanError) as caught:
            compile_over([AddAnnotations.build([(1, "A")]),
                          RemoveTuples.build([3]),
                          AddAnnotations.build([(3, "A")])])
        assert caught.value.event_position == 3

    def test_validator_errors_carry_the_position(self):
        def reject(values):
            raise SchemaError(f"bad row {values!r}")

        with pytest.raises(SchemaError) as caught:
            compile_plan([AddAnnotations.build([(0, "A")]),
                          AddUnannotatedTuples.build([("1", "2")])],
                         next_tid=1, is_live=lambda tid: True,
                         validate_row=reject)
        assert caught.value.event_position == 2

    def test_annotation_validator_errors_carry_the_position(self):
        with pytest.raises(UnknownAnnotationError) as caught:
            compile_plan([AddAnnotations(additions=((0, ""),))],
                         next_tid=1, is_live=lambda tid: True,
                         validate_annotation=Annotation)
        assert caught.value.event_position == 1

    def test_an_empty_batch_names_no_event(self):
        with pytest.raises(DeltaPlanError) as caught:
            compile_plan([], next_tid=1, is_live=lambda tid: True)
        assert caught.value.event_position is None


class TestProvenance:
    def test_one_audit_row_per_event_in_order(self):
        events = [
            AddAnnotations.build([(1, "A"), (2, "B")]),
            AddAnnotatedTuples.build([(("1", "2"), ("A",))]),
            RemoveAnnotations.build([(1, "A")]),
        ]
        plan = compile_over(events)
        assert [audit.event for audit in plan.audits] == [
            "add-annotations", "add-annotated-tuples",
            "remove-annotations"]
        assert [audit.position for audit in plan.audits] == [1, 2, 3]
        assert plan.audits[0].payload == 2
        assert plan.events == tuple(events)
        assert "add-annotations" in plan.audits[0].summary()

    def test_event_label_rejects_unknown(self):
        with pytest.raises(DeltaPlanError):
            event_label(object())
