"""Tenant creation and status, and the JSON wire codecs the endpoints
use."""

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.core.journal import event_from_json as decode_event
from repro.errors import ServerError, SessionError
from repro.server.tenants import (
    create_tenant,
    engine_config_from_json,
    engine_config_to_json,
    parse_metric,
    parse_rule_kind,
    resolve_item,
    rule_to_json,
    tenant_status,
)

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)


def event_from_json(obj):
    """Decode an event the way the event endpoints do."""
    return decode_event(obj, ServerError)


ROWS = [
    [["a", "x"], ["A1"]],
    [["a", "y"], ["A1"]],
    [["b", "x"], ["A2"]],
    [["a", "x"], ["A1", "A2"]],
]


@pytest.fixture
def service():
    return CorrelationService()


def create(service, name, **fields):
    """Create a tenant the way ``POST /v1/tenants`` does."""
    return create_tenant(service, name, default_engine=ENGINE, **fields)


class TestEngineConfigCodec:
    def test_overrides_merge_onto_template(self):
        config = engine_config_from_json({"min_support": 0.5}, ENGINE)
        assert config.min_support == 0.5
        assert config.min_confidence == ENGINE.min_confidence

    def test_no_template_requires_thresholds(self):
        with pytest.raises(ServerError, match="incomplete engine config"):
            engine_config_from_json({"max_length": 3}, None)

    @pytest.mark.parametrize("field", ["min_suport", "backend", "counter"])
    def test_unknown_field_rejected_by_name(self, field):
        with pytest.raises(ServerError, match=field):
            engine_config_from_json({field: 0.5}, ENGINE)

    def test_round_trip(self):
        rendered = engine_config_to_json(ENGINE)
        assert rendered["min_support"] == 0.25
        restored = engine_config_from_json(rendered, None)
        assert restored.min_confidence == ENGINE.min_confidence


class TestEventCodec:
    def test_add_annotations(self):
        event = event_from_json(
            {"type": "add_annotations", "additions": [[0, "A9"]]})
        assert isinstance(event, AddAnnotations)
        assert event.additions == ((0, "A9"),)

    def test_remove_annotations(self):
        event = event_from_json(
            {"type": "remove_annotations", "removals": [[1, "A1"]]})
        assert isinstance(event, RemoveAnnotations)

    def test_add_annotated_tuples(self):
        event = event_from_json(
            {"type": "add_annotated_tuples",
             "rows": [[["a", "z"], ["A3"]]]})
        assert isinstance(event, AddAnnotatedTuples)

    def test_add_unannotated_tuples(self):
        event = event_from_json(
            {"type": "add_unannotated_tuples", "rows": [["a", "z"]]})
        assert isinstance(event, AddUnannotatedTuples)

    def test_remove_tuples(self):
        event = event_from_json({"type": "remove_tuples", "tids": [0, 2]})
        assert isinstance(event, RemoveTuples)
        assert event.tids == (0, 2)

    def test_unknown_type_rejected(self):
        with pytest.raises(ServerError, match="unknown event type"):
            event_from_json({"type": "upsert"})

    def test_extra_fields_rejected(self):
        with pytest.raises(ServerError, match="unexpected field"):
            event_from_json({"type": "remove_tuples", "tids": [0],
                             "cascade": True})

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ServerError, match="tid:int"):
            event_from_json({"type": "add_annotations",
                             "additions": [["0", "A9"]]})

    def test_empty_payload_rejected_as_protocol_error(self):
        # The constructor's MaintenanceError surfaces as a 400-mapped
        # ServerError, not a server-side fault.
        with pytest.raises(ServerError, match="invalid add_annotations"):
            event_from_json({"type": "add_annotations", "additions": []})

    def test_non_object_rejected(self):
        with pytest.raises(ServerError, match="JSON object"):
            event_from_json([1, 2])


class TestParsers:
    def test_rule_kind(self):
        kind = parse_rule_kind("data-to-annotation")
        assert kind.value == "data-to-annotation"
        with pytest.raises(ServerError, match="unknown rule kind"):
            parse_rule_kind("bogus")

    def test_metric(self):
        assert parse_metric("lift") == "lift"
        with pytest.raises(ServerError, match="unknown metric"):
            parse_metric("coverage")


class TestTenants:
    def test_create_publishes_snapshot_and_vocabulary(self, service):
        create(service, "demo", columns=["c1", "c2"], rows=ROWS)
        snapshot = service.snapshot("demo")
        assert snapshot.revision == 1
        assert len(snapshot) > 0
        rendered = rule_to_json(snapshot.rules[0], snapshot.vocabulary)
        assert set(rendered) >= {"kind", "lhs", "rhs", "support",
                                 "confidence", "lift", "rendered"}

    def test_bad_names_rejected(self, service):
        for name in ("", "a/b", "a b", "x" * 65, "tenants"):
            with pytest.raises(ServerError):
                create(service, name, rows=ROWS)

    def test_unknown_tenant_raises(self, service):
        with pytest.raises(ServerError, match="unknown tenant"):
            tenant_status(service, "ghost")

    def test_drop_removes_and_names_sorted(self, service):
        create(service, "beta", rows=ROWS)
        create(service, "alpha", rows=ROWS)
        assert service.sessions() == ("alpha", "beta")
        service.drop("beta")
        assert service.sessions() == ("alpha",)
        assert len(service.sessions()) == 1

    def test_drop_with_pending_propagates_refusal(self, service):
        create(service, "demo", rows=ROWS)
        service.submit("demo", event_from_json(
            {"type": "add_annotations", "additions": [[0, "A9"]]}))
        with pytest.raises(SessionError, match="queued event"):
            service.drop("demo")
        service.drop("demo", force=True)
        assert service.sessions() == ()

    def test_status_reads_each_commit_without_a_refresh(self, service):
        """A flush driven straight through the service, not the
        server, is visible in the status row: nothing keeps a copy of
        the snapshot to go stale."""
        create(service, "demo", rows=ROWS)
        before = tenant_status(service, "demo")
        service.submit("demo", event_from_json(
            {"type": "add_annotations", "additions": [[2, "A1"]]}))
        assert tenant_status(service, "demo")["pending_events"] == 1
        service.flush("demo")
        after = tenant_status(service, "demo")
        assert after["revision"] == before["revision"] + 1
        assert after["pending_events"] == 0

    def test_status_row(self, service):
        create(service, "demo", columns=["c1", "c2"], rows=ROWS)
        status = tenant_status(service, "demo")
        assert status["tenant"] == "demo"
        assert status["rules"] > 0
        assert status["db_size"] == 4
        assert status["pending_events"] == 0
        assert status["config"]["min_support"] == 0.25

    def test_resolve_item(self, service):
        create(service, "demo", columns=["c1", "c2"], rows=ROWS)
        vocabulary = service.snapshot("demo").vocabulary
        assert resolve_item(vocabulary, "A1") is not None
        assert resolve_item(vocabulary, "nope") is None
