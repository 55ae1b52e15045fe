"""CorrelationService: named sessions, batched updates, concurrency."""

import sys
import threading

import pytest

from repro.app.service import CorrelationService, RuleSnapshot
from repro.core.config import EngineConfig
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
)
from repro.core.rules import RuleKind
from repro.errors import MiningError, SessionError
from tests.conftest import make_relation

CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6)


@pytest.fixture
def service():
    return CorrelationService(config=CONFIG)


class TestSessions:
    def test_create_mines_and_snapshots(self, service):
        snap = service.create("main", make_relation())
        assert isinstance(snap, RuleSnapshot)
        assert snap.session == "main"
        assert snap.revision == 1
        assert len(snap) > 0 and snap.pending_events == 0

    def test_multi_dataset_sessions_are_independent(self, service):
        service.create("left", make_relation())
        service.create("right", make_relation(
            [(("9", "9"), ("Z",))] * 4))
        assert service.sessions() == ("left", "right")
        assert (service.snapshot("left").signature
                != service.snapshot("right").signature)
        service.drop("left")
        assert service.sessions() == ("right",)

    def test_per_session_config_override(self, service):
        assert len(service.create("default", make_relation())) > 0
        # Single-item patterns derive no rules: the override took effect.
        snap = service.create("singletons", make_relation(),
                              CONFIG.replace(max_length=1))
        assert len(snap) == 0

    def test_duplicate_name_rejected(self, service):
        service.create("dup", make_relation())
        with pytest.raises(SessionError, match="already exists"):
            service.create("dup", make_relation())

    def test_unknown_session_rejected(self, service):
        with pytest.raises(SessionError, match="unknown session"):
            service.snapshot("ghost")

    def test_unknown_session_error_names_no_other_session(self, service):
        service.create("private", make_relation())
        with pytest.raises(SessionError) as caught:
            service.snapshot("ghost")
        assert str(caught.value) == "unknown session 'ghost'"

    def test_contains_tracks_create_and_drop(self, service):
        assert "s" not in service
        service.create("s", make_relation())
        assert "s" in service
        assert "ghost" not in service and 3 not in service
        service.drop("s")
        assert "s" not in service

    def test_create_without_any_config_rejected(self):
        bare = CorrelationService()
        with pytest.raises(SessionError, match="EngineConfig"):
            bare.create("x", make_relation())

    def test_create_unmined_has_empty_snapshot(self, service):
        snap = service.create("lazy", make_relation(), mine=False)
        assert snap.revision == 0 and len(snap) == 0
        service.mine("lazy")
        assert len(service.snapshot("lazy")) > 0


class TestUpdateQueue:
    def test_submit_queues_without_applying(self, service):
        service.create("s", make_relation())
        before = service.snapshot("s")
        depth = service.submit("s", AddAnnotations.build([(3, "A")]))
        assert depth == 1 and service.pending("s") == 1
        assert service.snapshot("s").signature == before.signature

    def test_flush_applies_in_order_and_bumps_revision(self, service):
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.submit("s", AddAnnotatedTuples.build(
            [(("1", "2"), ("A",))]))
        report = service.flush("s")
        assert [audit.event for audit in report] == [
            "add-annotations", "add-annotated-tuples"]
        snap = service.snapshot("s")
        assert snap.revision == 2 and snap.pending_events == 0
        assert snap.db_size == 9
        assert service.verify("s").equivalent

    def test_flush_returns_one_batch_report(self, service):
        service.create("s", make_relation())
        for _ in range(3):
            service.submit("s", AddAnnotations.build([(3, "A")]))
        report = service.flush("s")
        assert report.events == 3
        # Duplicate submissions of an already-present pair coalesce away.
        assert (report.plan_stats.pairs_collapsed
                + report.plan_stats.pairs_cancelled) >= 2
        assert "batch of 3 event(s)" in report.summary()
        # One flush == one revision bump, however deep the queue was.
        assert service.snapshot("s").revision == 2

    def test_flush_empty_queue_is_a_noop(self, service):
        service.create("s", make_relation())
        assert len(service.flush("s")) == 0
        assert service.snapshot("s").revision == 1

    def test_flush_unknown_session_fails_fast(self, service):
        with pytest.raises(SessionError, match="unknown session"):
            service.flush("ghost")
        with pytest.raises(SessionError, match="unknown session"):
            service.submit("ghost", AddAnnotations.build([(3, "A")]))

    def test_flush_on_another_thread_publishes_the_exact_refresh(
            self, service):
        service.create("s", make_relation())
        service.submit("s", AddAnnotatedTuples.build(
            [(("1", "2"), ("A",))]))
        reports = []
        flusher = threading.Thread(
            target=lambda: reports.append(service.flush("s")))
        flusher.start()
        flusher.join(timeout=10)
        assert not flusher.is_alive()
        assert [report.events for report in reports] == [1]
        assert service.pending("s") == 0
        after = service.snapshot("s")
        assert after.revision == 2 and after.db_size == 9
        assert service.estimate("s").revision == 2

    def test_concurrent_submit_does_not_wait_for_a_flush(self, service):
        """While a flush is applying its batch, a submit queues and
        returns at once with the true depth: it takes only the queue
        mutex, never the session lock the flush holds."""
        service.create("s", make_relation())
        hosted = service._session("s")
        in_flush = threading.Event()
        release = threading.Event()
        real_apply_plan = hosted.engine.apply_plan

        def slow_apply_plan(plan):
            in_flush.set()
            assert release.wait(timeout=5)
            return real_apply_plan(plan)

        hosted.engine.apply_plan = slow_apply_plan
        assert service.submit("s", AddAnnotations.build([(3, "A")])) == 1
        assert service.submit("s", AddAnnotations.build([(5, "A")])) == 2
        flusher = threading.Thread(target=service.flush, args=("s",))
        flusher.start()
        assert in_flush.wait(timeout=5), "flush never started"

        depths: dict[str, int] = {}

        def bystander():  # submits while the flush is running
            depths["bystander"] = service.submit(
                "s", AddAnnotations.build([(0, "B")]))

        other = threading.Thread(target=bystander)
        other.start()
        other.join(timeout=2)
        assert not other.is_alive(), (
            "concurrent submit blocked behind the in-flight flush")
        # The flush drained the first two events: the bystander's is
        # the only one queued.
        assert depths["bystander"] == 1
        assert service.pending("s") == 1

        release.set()
        flusher.join(timeout=5)
        assert not flusher.is_alive()
        assert service.pending("s") == 1
        assert service.snapshot("s").revision == 2

        hosted.engine.apply_plan = real_apply_plan
        service.flush("s")
        assert service.pending("s") == 0
        assert service.verify("s").equivalent

    def test_many_writers_every_event_applied_exactly_once(self, service):
        """Multi-writer soak: 16 writer threads submit while a flushing
        thread drains the queue; whatever the interleaving, each event
        is applied exactly once."""
        service.create("s", make_relation())
        hosted = service._session("s")
        applied: list[object] = []
        applied_lock = threading.Lock()
        real_apply_plan = hosted.engine.apply_plan

        def counting_apply_plan(plan):
            with applied_lock:
                applied.extend(plan.events)
            return real_apply_plan(plan)

        hosted.engine.apply_plan = counting_apply_plan
        events = [AddAnnotatedTuples.build([((str(i), "2"), ("A",))])
                  for i in range(16)]
        stop = threading.Event()

        def flusher():
            while not stop.is_set():
                service.flush("s")

        background = threading.Thread(target=flusher)
        threads = [threading.Thread(target=service.submit, args=("s", event))
                   for event in events]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # switch threads often
        try:
            background.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            stop.set()
            background.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not background.is_alive()
        service.flush("s")   # drain anything submitted after the last

        assert service.pending("s") == 0
        assert sorted(id(event) for event in applied) == sorted(
            id(event) for event in events), "an event was lost or re-applied"
        assert service.snapshot("s").db_size == 8 + len(events)
        assert service.verify("s").equivalent

    def test_flush_failure_requeues_remainder_and_drops_poison(self, service):
        service.create("s", make_relation())
        good_before = AddAnnotations.build([(3, "A")])
        poison = AddAnnotations.build([(999, "A")])   # unknown tuple id
        good_after = AddAnnotations.build([(5, "A")])
        for event in (good_before, poison, good_after):
            service.submit("s", event)
        with pytest.raises(SessionError, match="event 2 of 3"):
            service.flush("s")
        # The event before the poison applied; the one after survived.
        assert service.pending("s") == 1
        snap = service.snapshot("s")
        assert snap.revision == 2 and snap.pending_events == 1

    def test_malformed_insert_row_gets_poison_isolation(self, service):
        """A schema-invalid row compiles out before mutation, so the
        per-event fallback preserves the re-queue/drop semantics."""
        service.create("s", make_relation())
        service.submit("s", AddAnnotations.build([(3, "A")]))
        service.submit("s", AddUnannotatedTuples(rows=((),)))  # empty row
        service.submit("s", AddAnnotations.build([(5, "A")]))
        with pytest.raises(SessionError, match="event 2 of 3"):
            service.flush("s")
        assert service.pending("s") == 1   # the tail survived
        service.flush("s")
        assert service.verify("s").equivalent

    def test_invalid_annotation_id_gets_poison_isolation(self, service):
        """An empty annotation id is caught at compile time, so the
        fallback isolates it instead of losing the queued tail."""
        service.create("s", make_relation())
        service.submit("s", AddAnnotatedTuples.build(
            [(("1", "2"), ("A",))]))
        service.submit("s", AddAnnotations(additions=((3, ""),)))
        service.submit("s", AddAnnotations.build([(5, "A")]))
        with pytest.raises(SessionError, match="event 2 of 3"):
            service.flush("s")
        assert service.pending("s") == 1
        service.flush("s")
        assert service.verify("s").equivalent

    def test_flush_failure_requeue_preserves_submission_order(self, service):
        """The unapplied remainder returns to the *front* of the queue
        in submission order, ahead of anything submitted meanwhile."""
        service.create("s", make_relation())
        poison = AddAnnotations.build([(999, "A")])
        tail = [AddAnnotations.build([(tid, "A")]) for tid in (3, 5, 6)]
        service.submit("s", poison)
        for event in tail:
            service.submit("s", event)
        with pytest.raises(SessionError, match="event 1 of 4"):
            service.flush("s")
        late = AddAnnotations.build([(0, "B")])
        service.submit("s", late)
        hosted = service._session("s")
        with hosted.queue_lock:
            assert list(hosted.queue) == tail + [late]
        # Draining the re-queued remainder works and verifies clean.
        service.flush("s")
        assert service.pending("s") == 0
        assert service.verify("s").equivalent

    def test_threaded_flushes_bump_revision_once_per_nonempty_flush(self):
        """However many events a flush drains, it bumps the revision
        exactly once; concurrent submitters never add extra bumps."""
        service = CorrelationService(config=CONFIG)
        service.create("s", make_relation())
        hosted = service._session("s")
        batches: list[int] = []
        batch_lock = threading.Lock()
        real_apply_plan = hosted.engine.apply_plan

        def recording_apply_plan(plan):
            with batch_lock:
                batches.append(len(plan.events))
            return real_apply_plan(plan)

        hosted.engine.apply_plan = recording_apply_plan
        stop = threading.Event()
        submitted = []

        def writer(offset):
            for index in range(8):
                event = AddAnnotations.build([(offset, "A")])
                service.submit("s", event)
                submitted.append(event)

        def flusher():
            while not stop.is_set():
                service.flush("s")

        writers = [threading.Thread(target=writer, args=(tid,))
                   for tid in (0, 3, 5)]
        background = threading.Thread(target=flusher)
        background.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=10)
        stop.set()
        background.join(timeout=10)
        service.flush("s")   # drain any unflushed tail

        assert service.pending("s") == 0
        assert sum(batches) == len(submitted) == 24
        # create() bumped once; each non-empty flush exactly once more.
        assert service.snapshot("s").revision == 1 + len(batches)
        assert service.verify("s").equivalent

    def test_failed_create_does_not_squat_the_name(self, service):
        class FailingGeneralizer:
            def labels_for(self, annotation_ids):
                raise MiningError("generalizer failed")

        with pytest.raises(MiningError):
            service.create("s", make_relation(),
                           CONFIG.replace(generalizer=FailingGeneralizer()))
        assert service.sessions() == ()
        service.create("s", make_relation())
        assert service.sessions() == ("s",)

    def test_rules_query_by_kind(self, service):
        service.create("s", make_relation())
        for rule in service.rules("s", RuleKind.DATA_TO_ANNOTATION):
            assert rule.kind is RuleKind.DATA_TO_ANNOTATION


class TestConcurrentReadsDuringFlush:
    def test_snapshots_stay_consistent_under_concurrent_flushes(self):
        """Readers hammering snapshot() while a writer queues and
        flushes batches must only ever observe whole rule sets."""
        service = CorrelationService(config=CONFIG)
        service.create("hot", make_relation())
        stop = threading.Event()
        failures: list[str] = []
        observed_revisions: list[int] = []

        def reader():
            revisions = []
            while not stop.is_set():
                snap = service.snapshot("hot")
                # Signature must be derived from exactly the rules in
                # the snapshot — a torn read would break this pairing.
                expected = frozenset(snap.signature)
                if len(expected) != len(snap.rules):
                    failures.append(
                        f"torn snapshot: {len(snap.rules)} rules vs "
                        f"{len(expected)} signature entries")
                    return
                revisions.append(snap.revision)
            if revisions != sorted(revisions):
                failures.append("revision went backwards for a reader")
            observed_revisions.extend(revisions)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for wave in range(5):
                service.submit("hot", AddAnnotations.build([(3, "A")]))
                service.submit("hot", AddAnnotatedTuples.build(
                    [(("1", "2"), ("A",))]))
                service.flush("hot")
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)

        assert not failures, failures
        assert service.snapshot("hot").revision == 6
        assert service.verify("hot").equivalent
        assert max(observed_revisions, default=0) <= 6


class TestSnapshotMemoization:
    """The serving read path: unchanged-revision reads copy nothing."""

    def test_same_revision_snapshot_is_the_same_object(self, service):
        service.create("main", make_relation())
        first = service.snapshot("main")
        assert service.snapshot("main") is first
        assert service.snapshot("main") is first

    def test_pending_change_shares_rules_and_catalog(self, service):
        service.create("main", make_relation())
        first = service.snapshot("main")
        service.submit("main", AddAnnotations.build([(3, "A")]))
        second = service.snapshot("main")
        assert second is not first
        assert second.pending_events == 1
        # Same revision: the heavy parts are shared, never re-copied.
        assert second.rules is first.rules
        assert second.catalog is first.catalog
        assert second.signature is first.signature

    def test_flush_invalidates_the_cached_snapshot(self, service):
        service.create("main", make_relation())
        before = service.snapshot("main")
        service.submit("main", AddAnnotations.build([(3, "A")]))
        service.flush("main")
        after = service.snapshot("main")
        assert after is not before
        assert after.revision == before.revision + 1
        assert after.catalog is not before.catalog
        assert service.snapshot("main") is after

    def test_snapshot_serves_catalog_queries(self, service):
        snap = service.create("main", make_relation())
        assert snap.catalog is not None
        top = snap.query().top(3, by="lift")
        assert len(top) == min(3, len(snap))
        assert snap.of_kind(RuleKind.DATA_TO_ANNOTATION) == \
            snap.catalog.of_kind(RuleKind.DATA_TO_ANNOTATION)


class TestServiceQueries:
    def test_catalog_is_stable_across_reads(self, service):
        service.create("main", make_relation())
        catalog = service.catalog("main")
        assert service.catalog("main") is catalog
        assert service.query("main").all() == catalog.rules

    def test_top_rules_matches_catalog_ordering(self, service):
        service.create("main", make_relation())
        catalog = service.catalog("main")
        assert service.top_rules("main", 2, by="support") == \
            catalog.top(2, by="support")
        narrowed = service.top_rules(
            "main", 2, by="confidence", kind=RuleKind.DATA_TO_ANNOTATION)
        assert all(r.kind is RuleKind.DATA_TO_ANNOTATION for r in narrowed)

    def test_unmined_session_has_no_catalog(self, service):
        service.create("raw", make_relation(), mine=False)
        with pytest.raises(SessionError, match="no mined rules"):
            service.catalog("raw")
        snap = service.snapshot("raw")
        assert snap.catalog is None
        with pytest.raises(SessionError, match="no mined rules"):
            snap.query()


class TestSnapshotCacheStaleness:
    def test_failed_remine_does_not_serve_stale_snapshots(
            self, service, monkeypatch):
        """A re-mine that commits its rules and then dies in the
        invariant check must still publish them, or readers see rules
        the engine no longer holds."""
        from repro.errors import MaintenanceError

        service.create("main", make_relation(),
                       config=EngineConfig(min_support=0.25,
                                           min_confidence=0.6,
                                           validate=True))
        stale = service.snapshot("main")
        engine = service._session("main").engine

        def boom(*args, **kwargs):
            raise MaintenanceError("forced validation failure")
        monkeypatch.setattr(engine.table, "check_invariants", boom)
        with pytest.raises(MaintenanceError, match="forced validation"):
            service.mine("main")
        monkeypatch.undo()

        snap = service.snapshot("main")
        assert snap is not stale
        # The mine committed its rules before it raised: they are the
        # published ones.
        assert snap.catalog is engine.catalog()
        assert snap.catalog is service.catalog("main")
        assert snap.rules == service.catalog("main").rules
        assert service.snapshot("main") is snap  # memo works again


class TestDropWithPending:
    def test_drop_refuses_when_events_are_queued(self, service):
        service.create("main", make_relation())
        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        service.submit("main", AddAnnotations.build([(1, "Z1")]))
        with pytest.raises(SessionError,
                           match=r"has 2 queued event\(s\)"):
            service.drop("main")
        # The refusal left the session fully intact.
        assert service.sessions() == ("main",)
        assert service.pending("main") == 2

    def test_drop_force_discards_queued_events(self, service):
        service.create("main", make_relation())
        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        service.drop("main", force=True)
        assert service.sessions() == ()

    def test_drop_after_flush_needs_no_force(self, service):
        service.create("main", make_relation())
        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        service.flush("main")
        service.drop("main")
        assert service.sessions() == ()


class TestServiceIntrospection:
    def test_vocabulary_is_the_engine_vocabulary(self, service):
        service.create("main", make_relation())
        vocabulary = service.snapshot("main").vocabulary
        assert vocabulary is service._session("main").engine.vocabulary

    def test_config_of_returns_the_effective_config(self, service):
        service.create("main", make_relation())
        assert service.config_of("main") is CONFIG
        override = CONFIG.replace(max_length=2)
        service.create("other", make_relation(), override)
        assert service.config_of("other") is override


class TestServiceInstrumentation:
    def test_flush_and_snapshot_metrics_are_fed(self):
        from repro.server.metrics import ServiceInstrumentation

        bundle = ServiceInstrumentation()
        service = CorrelationService(config=CONFIG,
                                     instrumentation=bundle)
        service.create("main", make_relation())
        assert bundle.snapshot_misses.value == 1   # one publication

        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        service.submit("main", AddAnnotations.build([(1, "Z1")]))
        assert bundle.submitted_events.value == 2

        service.flush("main")
        assert bundle.flush_batches.value == 1
        assert bundle.flushed_events.value == 2
        assert bundle.flush_seconds.count == 1
        assert bundle.flush_failures.value == 0
        assert bundle.snapshot_misses.value == 2   # the flush published

        hits_before = bundle.snapshot_hits.value
        service.snapshot("main")
        service.catalog("main")
        # Reads count as hits and publish nothing.
        assert bundle.snapshot_hits.value == hits_before + 2
        assert bundle.snapshot_misses.value == 2

    def test_empty_flush_records_no_batch(self):
        from repro.server.metrics import ServiceInstrumentation

        bundle = ServiceInstrumentation()
        service = CorrelationService(config=CONFIG,
                                     instrumentation=bundle)
        service.create("main", make_relation())
        service.flush("main")
        assert bundle.flush_batches.value == 0

    def test_uninstrumented_service_still_works(self, service):
        service.create("main", make_relation())
        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        assert service.flush("main").events == 1

    def test_phase_timings_reach_the_registry(self):
        from repro.server.metrics import ServiceInstrumentation

        bundle = ServiceInstrumentation()
        service = CorrelationService(config=CONFIG,
                                     instrumentation=bundle)
        service.create("main", make_relation())
        service.submit("main", AddAnnotations.build([(0, "Z1")]))
        service.flush("main")
        service.mine("main")
        rendered = bundle.registry.render()
        series = rendered["service_phase_seconds"]["series"]
        # Flush and mine both report; apply/refresh come from the
        # monolithic engine's batch path, mine/refresh from mine().
        assert "phase=refresh" in series
        assert series["phase=refresh"]["count"] >= 2
