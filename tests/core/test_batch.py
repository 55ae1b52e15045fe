"""``CorrelationEngine.apply_batch``: one pass, per-event parity."""

import pytest

from repro.core.engine import engine
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.errors import DeltaPlanError, MaintenanceError, SchemaError
from tests.conftest import (
    assert_equivalent_to_remine,
    make_relation,
)


def mined(relation=None, **overrides):
    options = dict(min_support=0.25, min_confidence=0.6, validate=True)
    options.update(overrides)
    eng = engine(relation if relation is not None else make_relation(),
                 **options)
    eng.mine()
    return eng


MIXED_BATCH = [
    AddAnnotations.build([(3, "A"), (7, "B")]),
    AddAnnotatedTuples.build([(("1", "2"), ("A",)),
                              (("4", "3"), ("B",))]),
    RemoveAnnotations.build([(1, "B")]),
    AddUnannotatedTuples.build([("4", "5")]),
    RemoveTuples.build([5]),
]


class TestBatchEquivalence:
    def test_batch_matches_per_event_and_remine(self):
        per_event = mined()
        batched = mined()
        for event in MIXED_BATCH:
            per_event.apply(event)
        report = batched.apply_batch(MIXED_BATCH)
        assert batched.signature() == per_event.signature()
        assert batched.db_size == per_event.db_size
        assert_equivalent_to_remine(batched)
        assert report.events == len(MIXED_BATCH)

    def test_insert_then_delete_preserves_tid_assignment(self):
        per_event = mined()
        batched = mined()
        batch = [
            AddAnnotatedTuples.build([(("9", "9"), ("A",))]),   # tid 8
            RemoveTuples.build([8]),
            AddAnnotatedTuples.build([(("1", "3"), ("A", "B"))]),  # tid 9
        ]
        for event in batch:
            per_event.apply(event)
        batched.apply_batch(batch)
        assert batched.relation.tid_range == per_event.relation.tid_range
        assert not batched.relation.is_live(8)
        assert batched.relation.is_live(9)
        assert batched.signature() == per_event.signature()
        assert_equivalent_to_remine(batched)

    def test_single_event_batch_equals_apply(self):
        left, right = mined(), mined()
        event = AddAnnotations.build([(3, "A"), (7, "B")])
        report = left.apply(event)
        batch = right.apply_batch([event])
        assert left.signature() == right.signature()
        assert report.event == "add-annotations"
        assert batch.case_reports[0].tuples_scanned == report.tuples_scanned

    def test_fully_cancelled_batch_is_a_noop(self):
        eng = mined()
        before = eng.signature()
        revision = eng.revision
        report = eng.apply_batch([
            AddAnnotations.build([(3, "A")]),
            RemoveAnnotations.build([(3, "A")]),
        ])
        assert eng.signature() == before
        assert report.case_reports == []
        assert report.events == 2
        assert eng.revision == revision + 1  # a cancelled batch still commits


    def test_a_batch_commits_one_revision(self):
        eng = mined()
        revision = eng.revision
        eng.apply_batch(MIXED_BATCH)
        assert eng.revision == revision + 1


class TestBatchReportShape:
    def test_audit_rows_and_summary(self):
        eng = mined()
        report = eng.apply_batch(MIXED_BATCH)
        assert [audit.position for audit in report] == [1, 2, 3, 4, 5]
        assert "batch of 5 event(s)" in report.summary()
        assert report.table_size == len(eng.table)

    def test_one_validation_pass_for_the_whole_batch(self):
        eng = mined()
        calls = []
        original = eng.table.check_invariants

        def counting_check(*, floor=None):
            calls.append(floor)
            return original(floor=floor)

        eng.table.check_invariants = counting_check
        eng.apply_batch(MIXED_BATCH)
        assert len(calls) == 1

    def test_batch_failure_names_the_batch(self, monkeypatch):
        eng = mined()

        def broken_check(*, floor=None):
            raise MaintenanceError("synthetic")

        monkeypatch.setattr(eng.table, "check_invariants", broken_check)
        with pytest.raises(MaintenanceError, match=r"apply-batch\[5\]"):
            eng.apply_batch(MIXED_BATCH)

    def test_failed_validation_leaves_the_engine_stale(self, monkeypatch):
        """A batch whose invariant check fails must not keep serving
        incremental updates over the (possibly corrupt) table."""
        eng = mined()

        def broken_check(*, floor=None):
            raise MaintenanceError("synthetic")

        monkeypatch.setattr(eng.table, "check_invariants", broken_check)
        with pytest.raises(MaintenanceError, match="synthetic"):
            eng.apply_batch(MIXED_BATCH)
        monkeypatch.undo()
        with pytest.raises(MaintenanceError, match="stale"):
            eng.apply(AddAnnotations.build([(3, "A")]))
        eng.mine()   # the documented recovery
        eng.apply(AddAnnotations.build([(3, "A")]))
        assert_equivalent_to_remine(eng)


class TestBatchPoisonSafety:
    def test_compile_failure_mutates_nothing(self):
        eng = mined()
        version = eng.relation.version
        revision = eng.revision
        table_before = dict(eng.table.counts)
        with pytest.raises(DeltaPlanError):
            eng.apply_batch([
                AddAnnotations.build([(3, "A")]),
                AddAnnotations.build([(999, "A")]),   # unknown tuple
            ])
        assert eng.relation.version == version
        assert dict(eng.table.counts) == table_before
        assert eng.revision == revision
        # The engine is still healthy: the good event applies fine.
        eng.apply(AddAnnotations.build([(3, "A")]))
        assert_equivalent_to_remine(eng)

    def test_malformed_insert_row_rejected_before_mutation(self):
        """A schema-invalid row fails at compile time — not after
        earlier inserts in the batch already mutated the relation."""
        eng = mined()
        version = eng.relation.version
        with pytest.raises(SchemaError):
            eng.apply_batch([
                AddAnnotatedTuples.build([(("1", "2"), ("A",))]),
                AddUnannotatedTuples(rows=((),)),   # empty row
            ])
        assert eng.relation.version == version
        eng.apply(AddAnnotations.build([(3, "A")]))   # still healthy
        assert_equivalent_to_remine(eng)

    def test_empty_batch_rejected(self):
        eng = mined()
        with pytest.raises(MaintenanceError):
            eng.apply_batch([])

    def test_requires_mining_first(self):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6)
        with pytest.raises(MaintenanceError, match="mine"):
            eng.apply_batch([AddAnnotations.build([(3, "A")])])


class TestCompilePrefix:
    def test_a_valid_batch_compiles_whole(self):
        eng = mined()
        prefix = eng.compile_prefix(MIXED_BATCH)
        assert prefix.plan.events == tuple(MIXED_BATCH)
        assert prefix.poison is None and prefix.tail == ()

    def test_the_batch_splits_at_its_first_poison(self):
        eng = mined()
        poison = AddAnnotations.build([(999, "A")])
        events = [*MIXED_BATCH[:2], poison, *MIXED_BATCH[2:]]
        version = eng.relation.version
        prefix = eng.compile_prefix(events)
        assert eng.relation.version == version   # compiling is pure
        assert prefix.plan.events == tuple(MIXED_BATCH[:2])
        assert prefix.poison is poison
        assert prefix.tail == tuple(MIXED_BATCH[2:])
        assert prefix.applied == 2
        assert isinstance(prefix.error, DeltaPlanError)
        eng.apply_plan(prefix.plan)
        assert_equivalent_to_remine(eng)

    def test_a_leading_poison_leaves_no_plan(self):
        eng = mined()
        poison = AddUnannotatedTuples(rows=((),))   # empty row
        prefix = eng.compile_prefix([poison, *MIXED_BATCH])
        assert prefix.plan is None and prefix.poison is poison
        assert isinstance(prefix.error, SchemaError)
        assert prefix.tail == tuple(MIXED_BATCH)

    def test_errors_tied_to_no_event_propagate(self):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6)
        with pytest.raises(MaintenanceError, match="mine"):
            eng.compile_prefix(MIXED_BATCH)
        eng = mined()
        eng.relation.insert(("1", "2"), ("A",))   # behind its back
        with pytest.raises(MaintenanceError, match="stale"):
            eng.compile_prefix(MIXED_BATCH)

    def test_a_plan_applies_only_to_the_state_it_was_compiled_on(self):
        eng = mined()
        plan = eng.compile_batch(MIXED_BATCH)
        eng.apply_batch([AddAnnotatedTuples.build([(("1", "2"), ())])])
        with pytest.raises(MaintenanceError, match="another relation"):
            eng.apply_plan(plan)

