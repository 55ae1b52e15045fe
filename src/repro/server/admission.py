"""Admission control for the write path: bounded queues, honest 429s.

The serving contract for writes is *bounded memory, explicit
backpressure*: a tenant's submit queue may hold at most
``max_pending_events`` events, and at most ``max_inflight_flushes``
flush/mine jobs run at once across all tenants.  Past either bound the
server does not buffer harder — it rejects with ``429 Too Many
Requests`` and a ``Retry-After`` hint derived from the tenant's recent
flush latency, so well-behaved clients converge on the rate the engine
can actually absorb.

This module is pure bookkeeping (no sockets, no HTTP): the endpoint
layer asks :meth:`AdmissionController.admit_events` /
:meth:`admit_flush` from its connection threads and translates the
returned decision, which keeps the policy unit-testable without a
running server.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.errors import ServerError
from repro.server.config import ServerConfig
from repro.server.metrics import MetricsRegistry

#: Weight of the newest observation in the per-tenant flush-latency
#: EWMA used to size Retry-After hints.
EWMA_ALPHA = 0.3


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    #: Queue depth the check saw (before the incoming events).
    queue_depth: int
    limit: int
    reason: str = ""
    #: Suggested client back-off (seconds); 0.0 when admitted.
    retry_after: float = 0.0

    def __bool__(self) -> bool:
        return self.admitted


class AdmissionController:
    """Stateful admission policy shared by every write endpoint.

    Tracks, per tenant, an EWMA of flush wall-clock latency (fed by the
    server after each completed flush) and, globally, the number of
    in-flight blocking jobs.  Thread-safe: checks and the flush
    latency feed arrive from every connection and flush thread.
    """

    def __init__(self, config: ServerConfig,
                 registry: MetricsRegistry | None = None) -> None:
        self._config = config
        self._registry = registry if registry is not None \
            else MetricsRegistry()
        self._lock = threading.Lock()
        self._flush_ewma: dict[str, float] = {}
        self._inflight = 0

    # -- latency feedback ------------------------------------------------------

    def record_flush_seconds(self, tenant: str, seconds: float) -> None:
        """Fold one completed flush's wall-clock into the tenant EWMA."""
        with self._lock:
            previous = self._flush_ewma.get(tenant)
            self._flush_ewma[tenant] = (
                seconds if previous is None
                else EWMA_ALPHA * seconds + (1 - EWMA_ALPHA) * previous)

    def forget(self, tenant: str) -> None:
        """Drop per-tenant state (the tenant was deleted)."""
        with self._lock:
            self._flush_ewma.pop(tenant, None)

    def flush_estimate(self, tenant: str) -> float:
        """Current flush-latency estimate (0.0 with no history)."""
        with self._lock:
            return self._flush_ewma.get(tenant, 0.0)

    def retry_after(self, tenant: str, *, queue_depth: int) -> float:
        """Back-off hint: roughly how long until the queue has room.

        With latency history, one flush drains the whole queue, so the
        estimate is the EWMA scaled by how saturated the queue is (a
        queue two times over the trigger suggests two flush cycles).
        Clamped to the configured floor/cap so a cold tenant still
        backs off and a pathological one never sleeps forever.
        """
        estimate = self.flush_estimate(tenant)
        trigger = self._config.flush_trigger_depth
        cycles = 1.0
        if trigger:
            cycles = max(1.0, queue_depth / trigger)
        hint = estimate * cycles if estimate > 0 else 0.0
        return min(self._config.retry_after_cap,
                   max(self._config.retry_after_floor, hint))

    # -- admission checks ------------------------------------------------------

    def admit_events(self, tenant: str, *, pending: int,
                     incoming: int) -> AdmissionDecision:
        """May ``incoming`` events join a queue currently ``pending``
        deep?  Rejections are counted per tenant under
        ``admission_rejected`` with ``reason=queue_full``."""
        if incoming < 1:
            raise ServerError(
                f"admission check needs >= 1 incoming event, "
                f"got {incoming}")
        limit = self._config.max_pending_events
        if pending + incoming <= limit:
            return AdmissionDecision(admitted=True, queue_depth=pending,
                                     limit=limit)
        self._registry.counter("admission_rejected", tenant=tenant,
                               reason="queue_full").inc()
        return AdmissionDecision(
            admitted=False, queue_depth=pending, limit=limit,
            reason=(f"queue full: {pending} pending + {incoming} "
                    f"incoming > limit {limit}"),
            retry_after=self.retry_after(tenant, queue_depth=pending))

    def admit_flush(self, tenant: str) -> AdmissionDecision:
        """May another blocking flush/mine job start right now?

        On success the in-flight slot is *held* — the caller must pair
        it with :meth:`release_flush` (the server does so in a
        ``finally``).  Rejections count under ``admission_rejected``
        with ``reason=flushes_saturated``.
        """
        limit = self._config.max_inflight_flushes
        with self._lock:
            if self._inflight < limit:
                self._inflight += 1
                return AdmissionDecision(admitted=True,
                                         queue_depth=self._inflight - 1,
                                         limit=limit)
            inflight = self._inflight
        self._registry.counter("admission_rejected", tenant=tenant,
                               reason="flushes_saturated").inc()
        return AdmissionDecision(
            admitted=False, queue_depth=inflight, limit=limit,
            reason=f"{inflight} flushes already in flight (limit {limit})",
            retry_after=max(self._config.retry_after_floor,
                            self.flush_estimate(tenant)))

    def release_flush(self) -> None:
        with self._lock:
            if self._inflight <= 0:
                raise ServerError(
                    "release_flush() without a matching admit_flush()")
            self._inflight -= 1

    @property
    def inflight_flushes(self) -> int:
        with self._lock:
            return self._inflight


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` is integer delta-seconds on the wire; round up
    so clients never retry early."""
    return str(max(1, math.ceil(seconds)))
