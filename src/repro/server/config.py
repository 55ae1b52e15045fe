"""Serving-tier configuration: one frozen object, validated eagerly.

Mirrors :class:`~repro.core.config.EngineConfig`'s philosophy — every
operational knob of :class:`~repro.server.http.CorrelationServer` lives
here, validation happens where the config is written, and a config can
be shared or templated with :meth:`ServerConfig.replace` without
aliasing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dataclass_replace
from typing import Any

from repro.core.config import EngineConfig
from repro.errors import ServerError


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Complete configuration of one serving process."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests, smoke jobs) which
    #: ``CorrelationServer.port`` reports after ``start()``.
    port: int = 8765
    #: Default engine template for tenants created without an explicit
    #: config; ``POST /v1/tenants`` overrides individual fields.
    default_engine: EngineConfig | None = None
    #: Admission limit: events queued (pending + incoming batch) per
    #: tenant before writes are rejected with 429 + Retry-After.
    max_pending_events: int = 10_000
    #: Background flush trigger, as a fraction of
    #: :attr:`max_pending_events`; once a tenant's queue crosses it the
    #: server schedules one coalescing flush.  ``None`` disables
    #: server-initiated flushes (tests drive them explicitly).
    flush_watermark: float | None = 0.5
    #: Global bound on concurrently running flush/mine jobs; writes
    #: beyond it are not queued but rejected with 429, keeping memory
    #: and engine work bounded.
    max_inflight_flushes: int = 2
    #: Floor (seconds) for computed Retry-After hints; the estimate
    #: scales with the tenant's recent flush latency.
    retry_after_floor: float = 0.25
    #: Ceiling (seconds) for Retry-After hints.
    retry_after_cap: float = 30.0
    #: Graceful-shutdown budget (seconds) for in-flight requests and
    #: the final drain flushes.
    drain_timeout: float = 30.0
    #: Largest accepted request body (bytes) — oversized writes get 413.
    max_request_bytes: int = 8 * 1024 * 1024
    #: A connection waiting this many seconds for the first byte of its
    #: next request is closed (the rest of the request must then arrive
    #: within :data:`repro.server.http.REQUEST_READ_SECONDS`).
    keep_alive_timeout: float = 60.0
    #: Root directory for per-tenant write-ahead journals.  ``None``
    #: (the default) serves purely in memory; set, every flush is
    #: journaled before it mutates the engine and ``start()`` recovers
    #: any journaled tenants found on disk before the socket opens.
    journal_dir: str | None = None
    #: fsync each journal append (durable through power loss).  Off,
    #: appends only reach the OS page cache — faster, and still safe
    #: across process crashes, but not across machine crashes.
    journal_fsync: bool = True
    #: Write a compacted snapshot every N journaled records (bounds
    #: recovery replay time); ``None`` disables periodic snapshots.
    journal_snapshot_every: int | None = 64

    def __post_init__(self) -> None:
        if not self.host:
            raise ServerError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ServerError(f"port must be in [0, 65535], got {self.port}")
        if self.max_pending_events < 1:
            raise ServerError(
                f"max_pending_events must be >= 1, "
                f"got {self.max_pending_events}")
        if (self.flush_watermark is not None
                and not 0.0 < self.flush_watermark <= 1.0):
            raise ServerError(
                f"flush_watermark must be in (0, 1] or None, "
                f"got {self.flush_watermark}")
        if self.max_inflight_flushes < 1:
            raise ServerError(
                f"max_inflight_flushes must be >= 1, "
                f"got {self.max_inflight_flushes}")
        if self.retry_after_floor <= 0:
            raise ServerError(
                f"retry_after_floor must be > 0, "
                f"got {self.retry_after_floor}")
        if self.retry_after_cap < self.retry_after_floor:
            raise ServerError(
                f"retry_after_cap ({self.retry_after_cap}) must be >= "
                f"retry_after_floor ({self.retry_after_floor})")
        if self.drain_timeout <= 0:
            raise ServerError(
                f"drain_timeout must be > 0, got {self.drain_timeout}")
        if self.max_request_bytes < 1024:
            raise ServerError(
                f"max_request_bytes must be >= 1024, "
                f"got {self.max_request_bytes}")
        if self.keep_alive_timeout <= 0:
            raise ServerError(
                f"keep_alive_timeout must be > 0, "
                f"got {self.keep_alive_timeout}")
        if self.journal_dir is not None and not self.journal_dir:
            raise ServerError("journal_dir must be a non-empty path "
                              "or None")
        if (self.journal_snapshot_every is not None
                and self.journal_snapshot_every < 1):
            raise ServerError(
                f"journal_snapshot_every must be >= 1 or None, "
                f"got {self.journal_snapshot_every}")

    @property
    def flush_trigger_depth(self) -> int | None:
        """Queue depth at which a background flush is scheduled."""
        if self.flush_watermark is None:
            return None
        return max(1, int(self.max_pending_events * self.flush_watermark))

    def replace(self, **changes: Any) -> "ServerConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return _dataclass_replace(self, **changes)
