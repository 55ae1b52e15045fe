"""Admission policy: queue bounds, flush slots, Retry-After sizing."""

import pytest

from repro.errors import ServerError
from repro.server.admission import AdmissionController, retry_after_header
from repro.server.config import ServerConfig
from repro.server.metrics import MetricsRegistry


def controller(registry=None, **overrides):
    settings = dict(max_pending_events=10, max_inflight_flushes=2,
                    retry_after_floor=0.25, retry_after_cap=30.0,
                    flush_watermark=0.5)
    settings.update(overrides)
    return AdmissionController(ServerConfig(**settings), registry)


class TestEventAdmission:
    def test_admits_under_the_limit(self):
        decision = controller().admit_events("t", pending=4, incoming=6)
        assert decision and decision.queue_depth == 4
        assert decision.retry_after == 0.0

    def test_rejects_past_the_limit(self):
        decision = controller().admit_events("t", pending=5, incoming=6)
        assert not decision
        assert "queue full" in decision.reason
        assert decision.retry_after >= 0.25  # at least the floor

    def test_exact_fit_admits(self):
        assert controller().admit_events("t", pending=4, incoming=6)

    def test_zero_incoming_rejected_as_misuse(self):
        with pytest.raises(ServerError, match=">= 1 incoming"):
            controller().admit_events("t", pending=0, incoming=0)

    def test_rejections_are_counted_per_tenant(self):
        registry = MetricsRegistry()
        policy = controller(registry)
        policy.admit_events("noisy", pending=10, incoming=1)
        policy.admit_events("noisy", pending=10, incoming=1)
        assert registry.counter("admission_rejected", tenant="noisy",
                                reason="queue_full").value == 2


class TestFlushSlots:
    def test_slots_are_held_until_released(self):
        policy = controller(max_inflight_flushes=2)
        assert policy.admit_flush("a")
        assert policy.admit_flush("b")
        assert policy.inflight_flushes == 2
        rejected = policy.admit_flush("c")
        assert not rejected and "in flight" in rejected.reason
        policy.release_flush()
        assert policy.admit_flush("c")

    def test_release_without_admit_rejected(self):
        with pytest.raises(ServerError, match="without a matching"):
            controller().release_flush()


class TestRetryAfter:
    def test_cold_tenant_backs_off_at_the_floor(self):
        assert controller().retry_after("cold", queue_depth=10) == 0.25

    def test_ewma_scales_the_hint(self):
        policy = controller()
        policy.record_flush_seconds("t", 2.0)
        # Trigger depth is 5 (10 * 0.5); a queue at 10 suggests two
        # flush cycles of the 2s estimate.
        assert policy.retry_after("t", queue_depth=10) == \
            pytest.approx(4.0)

    def test_hint_is_capped(self):
        policy = controller(retry_after_cap=3.0)
        policy.record_flush_seconds("t", 100.0)
        assert policy.retry_after("t", queue_depth=10) == 3.0

    def test_ewma_folds_observations(self):
        policy = controller()
        policy.record_flush_seconds("t", 1.0)
        policy.record_flush_seconds("t", 2.0)
        # alpha=0.3: 0.3*2 + 0.7*1
        assert policy.flush_estimate("t") == pytest.approx(1.3)

    def test_forget_drops_history(self):
        policy = controller()
        policy.record_flush_seconds("t", 5.0)
        policy.forget("t")
        assert policy.flush_estimate("t") == 0.0


class TestRetryAfterHeader:
    def test_rounds_up_to_integer_seconds(self):
        assert retry_after_header(0.25) == "1"
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(3.0) == "3"

    def test_never_below_one(self):
        assert retry_after_header(0.0) == "1"
