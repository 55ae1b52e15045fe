"""The estimate read tier: metrics, overlays, snapshots, serving.

Covers the layers of ``mode=estimate``: the count-to-metric arithmetic
and event-queue overlay encoding (:mod:`repro.app.estimate`), the
estimate snapshot itself (exact counts, zero bounds), and the serving
facade's lock-free estimate read.
"""

import pytest

from repro.app.estimate import (
    ESTIMATE_METRICS,
    EstimatedRule,
    EstimateSnapshot,
    PendingOverlay,
    combine_rule_estimate,
    estimate_snapshot,
    overlay_from_events,
    z_score,
)
from repro.app.service import CorrelationService
from repro.app.session import Session
from repro.core.config import EngineConfig
from repro.core.engine import engine
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.core.rules import RuleKind
from repro.errors import MiningError, SessionError
from repro.synth.workloads import paper_scale
from tests.conftest import make_relation

CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6)


@pytest.fixture
def mined():
    manager = engine(make_relation(), min_support=0.25,
                     min_confidence=0.6, validate=True)
    manager.mine()
    return manager


def overlay_for(manager, events):
    return overlay_from_events(
        events, relation=manager.relation,
        vocabulary=manager.vocabulary,
        generalizer=manager.generalizer)


class TestZScore:
    def test_standard_levels(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_monotone_in_the_level(self):
        assert z_score(0.99) > z_score(0.95) > z_score(0.5)

    @pytest.mark.parametrize("level", (0.0, 1.0, -0.5, 1.5))
    def test_out_of_range_rejected(self, level):
        with pytest.raises(MiningError, match=r"\(0, 1\)"):
            z_score(level)


class TestCombineRuleEstimate:
    def test_arithmetic(self):
        combined = combine_rule_estimate(both=3, lhs=6, rhs_count=4,
                                         db_size=10)
        assert combined.support == pytest.approx(0.3)
        assert combined.confidence == pytest.approx(0.5)
        assert combined.lift == pytest.approx(0.5 / 0.4)
        assert combined.count == 3.0

    def test_exact_inputs_give_exact_output(self, mined):
        """Integer counts in, zero bounds out: every metric of the
        re-scored rule reports a 0.0 bound and renders as ``±0.0000``."""
        estimated = EstimatedRule(
            rule=mined.catalog().rules[0],
            estimate=combine_rule_estimate(both=3, lhs=6, rhs_count=4,
                                           db_size=10))
        for name in ESTIMATE_METRICS:
            assert estimated.bound(name) == 0.0
        assert estimated.render(mined.vocabulary).endswith(
            ", 0.5000±0.0000, 0.3000±0.0000")

    def test_confidence_clamped_into_unit_range(self):
        # An overlay can count a union row whose LHS row it has not
        # seen yet; the ratio must still read as a probability.
        combined = combine_rule_estimate(both=5, lhs=4, rhs_count=5,
                                         db_size=10)
        assert combined.confidence == 1.0
        assert combined.lift == pytest.approx(2.0)

    def test_unseen_rhs_yields_zero_lift(self):
        combined = combine_rule_estimate(both=0, lhs=3, rhs_count=0,
                                         db_size=10)
        assert combined.support == combined.confidence == 0.0
        assert combined.lift == 0.0

    def test_empty_database_yields_zeros(self):
        combined = combine_rule_estimate(both=0, lhs=0, rhs_count=0,
                                         db_size=0)
        assert combined.support == combined.confidence == combined.lift == 0.0


class TestPendingOverlay:
    def test_insert_rows_encode_known_items(self, mined):
        overlay = overlay_for(mined, [
            AddAnnotatedTuples.build([(("1", "2"), ("A",))])])
        assert overlay.inserts == 1 and len(overlay.rows) == 1
        row = overlay.rows[0]
        # The row must contain ids for both data tokens and the
        # annotation — all of which the mined vocabulary knows.
        assert len(row) == 3
        assert overlay.count_containing(row) == 1

    def test_unseen_tokens_are_skipped_not_interned(self, mined):
        vocab_before = len(mined.vocabulary)
        overlay = overlay_for(mined, [
            AddAnnotatedTuples.build([(("999", "2"), ("NEW",))])])
        assert len(mined.vocabulary) == vocab_before
        row = overlay.rows[0]
        # Only the known "2" (column 2) token survives the encoding.
        assert len(row) == 1

    def test_unannotated_rows_count_as_inserts(self, mined):
        overlay = overlay_for(mined, [
            AddUnannotatedTuples.build([("1", "2")])])
        assert overlay.inserts == 1
        assert overlay.removals == overlay.deferred == 0

    def test_arity_mismatch_matches_nothing(self):
        # A schema-bearing relation enforces arity at token time; the
        # reference fixture uses opaque tokens, so build one here.
        from repro.relation.relation import AnnotatedRelation
        from repro.relation.schema import Schema

        relation = AnnotatedRelation(Schema(["c1", "c2"]))
        for values, annotations in [(("1", "2"), ("A",)),
                                    (("1", "3"), ("A",)),
                                    (("4", "2"), ())] * 2:
            relation.insert(values, annotations)
        manager = engine(relation, min_support=0.25, min_confidence=0.6)
        manager.mine()
        overlay = overlay_for(manager, [
            AddAnnotatedTuples(rows=((("1", "2", "3", "4"), ("A",)),))])
        assert overlay.rows == (frozenset(),)
        # The well-formed twin row still encodes its known items.
        good = overlay_for(manager, [
            AddAnnotatedTuples.build([(("1", "2"), ("A",))])])
        assert len(good.rows[0]) == 3

    def test_removals_and_deferred_events_counted(self, mined):
        overlay = overlay_for(mined, [
            RemoveTuples.build([3, 7]),
            AddAnnotations.build([(0, "B")]),
            RemoveAnnotations.build([(1, "A")]),
        ])
        assert overlay.removals == 2
        assert overlay.deferred == 2
        assert overlay.inserts == 0
        assert not overlay.is_empty
        assert overlay_for(mined, []).is_empty

    def test_count_item(self):
        overlay = PendingOverlay(
            rows=(frozenset({1, 2}), frozenset({2, 3})),
            inserts=2, removals=0, deferred=0)
        assert overlay.count_item(2) == 2
        assert overlay.count_item(1) == 1
        assert overlay.count_containing(frozenset({2, 3})) == 1


class TestEstimateSnapshot:
    def test_exact_at_reference_scale(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1)
        assert isinstance(snap, EstimateSnapshot)
        assert snap.estimated and snap.revision == 1
        assert snap.db_size == mined.db_size
        assert len(snap) == len(mined.catalog().rules)
        for estimated in snap:
            rule = estimated.rule
            assert estimated.metric("support") == pytest.approx(rule.support)
            assert estimated.bound("support") == 0.0
            assert estimated.metric("confidence") == \
                pytest.approx(rule.confidence)

    def test_ordering_and_top_n(self, mined):
        rules = mined.catalog().rules
        by_support = estimate_snapshot(mined, rules, [], session="s",
                                       revision=1, by="support")
        values = [er.metric("support") for er in by_support]
        assert values == sorted(values, reverse=True)
        top = estimate_snapshot(mined, rules, [], session="s",
                                revision=1, by="support", n=2)
        assert top.rules == by_support.rules[:2]

    def test_kind_filter(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1,
                                 kind=RuleKind.DATA_TO_ANNOTATION)
        assert snap.rules
        assert all(er.rule.kind is RuleKind.DATA_TO_ANNOTATION
                   for er in snap)

    def test_significance_metrics_need_exact_mode(self, mined):
        with pytest.raises(SessionError, match="mode=exact"):
            estimate_snapshot(mined, mined.catalog().rules, [],
                              session="s", revision=1, by="p_value")

    def test_z_and_confidence_level_are_exclusive(self, mined):
        with pytest.raises(SessionError, match="not both"):
            estimate_snapshot(mined, mined.catalog().rules, [],
                              session="s", revision=1,
                              z=2.0, confidence_level=0.95)

    def test_confidence_level_resolves_z(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1,
                                 confidence_level=0.95)
        assert snap.confidence_level == 0.95
        assert snap.z == pytest.approx(1.959964, abs=1e-5)
        default = estimate_snapshot(mined, mined.catalog().rules, [],
                                    session="s", revision=1)
        assert default.z == 2.0 and default.confidence_level is None

    def test_pending_inserts_shift_counts_exactly(self, mined):
        rules = mined.catalog().rules
        before = estimate_snapshot(mined, rules, [], session="s",
                                   revision=1)
        pending = [AddAnnotatedTuples.build([(("1", "2"), ("A",))] * 4)]
        after = estimate_snapshot(mined, rules, pending, session="s",
                                  revision=1)
        assert after.db_size == before.db_size + 4
        assert after.pending_events == 1 and after.overlay_rows == 4
        footprint = overlay_for(mined, pending).rows[0]
        by_key = {er.rule.key: er for er in after}
        for estimated in before:
            rule = estimated.rule
            # Rules inside the pending rows' item footprint gain
            # exactly 4 hits; everything else is untouched.
            gain = 4 if frozenset(rule.lhs + (rule.rhs,)) <= footprint \
                else 0
            assert by_key[rule.key].estimate.count == \
                rule.union_count + gain
        # At least one rule actually absorbed the pending rows.
        assert any(by_key[er.rule.key].estimate.count
                   > er.rule.union_count for er in before)

    def test_pending_removals_shrink_db_size_only(self, mined):
        rules = mined.catalog().rules
        snap = estimate_snapshot(mined, rules,
                                 [RemoveTuples.build([0, 1])],
                                 session="s", revision=1)
        assert snap.db_size == mined.db_size - 2
        assert snap.deferred_events == 0

    def test_render_shows_the_bounds(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1)
        text = snap.rules[0].render(mined.vocabulary)
        assert "==>" in text and "±" in text

    def test_unknown_estimate_metric_rejected(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1)
        with pytest.raises(SessionError, match="unknown estimate metric"):
            snap.rules[0].metric("chi_square")
        assert set(ESTIMATE_METRICS) == {"support", "confidence", "lift"}

    def test_bound_of_unknown_metric_rejected(self, mined):
        snap = estimate_snapshot(mined, mined.catalog().rules, [],
                                 session="s", revision=1)
        with pytest.raises(SessionError, match="unknown estimate metric"):
            snap.rules[0].bound("chi_square")


class TestServiceEstimate:
    @pytest.fixture
    def service(self):
        service = CorrelationService(config=CONFIG)
        service.create("s", make_relation())
        yield service
        service.close()

    def test_estimate_matches_the_published_revision(self, service):
        snap = service.estimate("s")
        assert snap.estimated and snap.revision == 1
        assert snap.session == "s"
        assert len(snap) == len(service.snapshot("s"))

    def test_estimate_never_disturbs_exact_reads(self, service):
        exact_before = service.snapshot("s")
        service.estimate("s")
        service.estimate("s", by="lift", n=2)
        assert service.snapshot("s") is exact_before
        assert service.snapshot("s").signature == exact_before.signature

    def test_queued_events_appear_in_the_estimate(self, service):
        service.submit("s", AddAnnotatedTuples.build(
            [(("1", "2"), ("A",))] * 3))
        snap = service.estimate("s")
        assert snap.pending_events == 1
        assert snap.overlay_rows == 3
        assert snap.db_size == 8 + 3
        # The exact tier still serves the pre-flush revision.
        assert service.snapshot("s").revision == snap.revision == 1

    def test_estimate_alone_sees_a_landed_flush(self, service):
        """No intervening exact read: the estimate path itself must
        notice the bumped revision and drop the stale cached catalog
        (regression — it used to serve the pre-flush rule set until
        some exact read refreshed the snapshot cache)."""
        service.estimate("s")   # publish + warm at revision 1
        service.submit("s", AddAnnotatedTuples.build(
            [(("1", "2"), ("A",))] * 3))
        service.flush("s")
        snap = service.estimate("s")
        assert snap.revision == 2
        assert snap.pending_events == 0 and snap.overlay_rows == 0
        catalog = service.catalog("s")
        assert {er.rule.key for er in snap} <= \
            {rule.key for rule in catalog.rules}
        by_key = {rule.key: rule for rule in catalog.rules}
        for er in snap:
            rule = by_key[er.rule.key]
            assert abs(er.metric("support") - rule.support) <= \
                er.bound("support")
        assert service.verify("s").equivalent

    def test_estimate_on_unmined_session_rejected(self, service):
        service.create("raw", make_relation(), mine=False)
        with pytest.raises(SessionError, match="no mined rules"):
            service.estimate("raw")

    def test_estimate_instrumentation(self):
        from repro.server.metrics import ServiceInstrumentation

        bundle = ServiceInstrumentation()
        service = CorrelationService(config=CONFIG,
                                     instrumentation=bundle)
        try:
            service.create("s", make_relation())
            service.estimate("s")
            service.estimate("s")
            assert bundle.estimate_reads.value == 2
            assert bundle.estimate_seconds.count == 2
        finally:
            service.close()


class TestZValidation:
    """``z`` must be a finite number > 0 whatever the tenant's size —
    it used to pass or crash depending on whether any count was
    sampled."""

    @pytest.fixture(scope="class", params=(200, 8000),
                    ids=("paper200", "paper8000"))
    def paper_service(self, request):
        workload = paper_scale(request.param)
        service = CorrelationService(config=EngineConfig(
            min_support=workload.min_support,
            min_confidence=workload.min_confidence))
        service.create("t", workload.relation)
        yield service
        service.close()

    @pytest.mark.parametrize("z", (-1.0, float("nan"), 0.0, float("inf")))
    def test_bad_z_rejected(self, paper_service, z):
        with pytest.raises(SessionError, match="z must be a finite"):
            paper_service.estimate("t", z=z)

    def test_good_z_echoed(self, paper_service):
        snap = paper_service.estimate("t", z=1.5)
        assert snap.z == 1.5 and len(snap) > 0
        assert all(er.bound(metric) == 0.0 for er in snap
                   for metric in ESTIMATE_METRICS)

    def test_confidence_level_echoed(self, paper_service):
        snap = paper_service.estimate("t", confidence_level=0.95)
        assert snap.confidence_level == 0.95
        assert snap.z == z_score(0.95) and len(snap) > 0
        assert all(er.bound(metric) == 0.0 for er in snap
                   for metric in ESTIMATE_METRICS)


class TestSessionEstimate:
    DATASET = ("1 2 Annot_1\n" "1 3 Annot_1 Annot_2\n" "1 2 Annot_1\n"
               "4 2\n" "1 3 Annot_1 Annot_2\n" "4 3 Annot_2\n"
               "1 5 Annot_1\n" "4 5\n")

    @pytest.fixture
    def session(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(self.DATASET)
        session = Session(auto_flush_every=10)
        session.load_dataset(path)
        session.mine(0.25, 0.6)
        return session

    def test_estimate_rules_over_the_live_queue(self, session, tmp_path):
        update = tmp_path / "tuples.txt"
        update.write_text("1 2 Annot_1\n")
        session.add_annotated_tuples_from_file(update)   # queued
        assert session.pending_updates
        snap = session.estimate_rules(by="lift")
        assert snap.estimated and snap.overlay_rows == 1
        assert snap.db_size == 9
        values = [er.metric("lift") for er in snap]
        assert values == sorted(values, reverse=True)

    def test_significant_rules_ordered_by_p_value(self, session):
        significant = session.significant_rules(max_p_value=0.9, limit=5)
        catalog = session.catalog()
        p_values = [catalog.p_value_of(rule) for rule in significant]
        assert p_values == sorted(p_values)
        assert all(p <= 0.9 for p in p_values)

    def test_estimate_before_mine_rejected(self):
        with pytest.raises(SessionError, match="no rules mined"):
            Session().estimate_rules()
