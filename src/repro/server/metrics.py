"""Lightweight operational metrics: counters, gauges, histograms.

The serving tier needs live numbers — flush latency, queue depths,
admission rejections, per-endpoint request latency, snapshot hit
rates — without dragging in a metrics client.  This module is the
whole dependency: three thread-safe primitive types and a registry
that renders them as one JSON-friendly dict for ``GET /metrics``.

Design points:

* every metric is identified by a name plus an optional frozen label
  set (``registry.counter("admission_rejected", tenant="a")``), so the
  same logical series fans out per tenant / endpoint / status without
  string mangling at call sites;
* :class:`Histogram` keeps fixed cumulative buckets (count + sum +
  min/max), sized for request/flush latencies in seconds; quantile
  estimates interpolate inside the winning bucket, which is accurate
  enough for an operational read-out (benchmarks measure client-side);
* :class:`ServiceInstrumentation` is the bundle the serving tier
  threads into :class:`~repro.app.service.CorrelationService` — the
  service stays import-clean (it only ever calls ``observe``/``inc``
  on whatever it was handed).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections.abc import Iterable, Mapping

from repro.errors import ServerError

#: Default latency buckets (seconds): sub-millisecond reads through
#: multi-second mines.  The terminal +inf bucket is implicit.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone counter (``inc`` only)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ServerError(f"counter increments must be >= 0, "
                              f"got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def render(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, tenant count)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Buckets are cumulative-style upper bounds; an observation lands in
    the first bucket whose bound is >= the value (or the implicit +inf
    tail).  :meth:`quantile` walks the non-cumulative counts and
    linearly interpolates inside the winning bucket — the tail bucket
    interpolates toward the observed maximum so a handful of slow
    outliers still produce a finite p99.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(b <= 0 for b in bounds):
            raise ServerError("histogram buckets must be positive")
        if len(set(bounds)) != len(bounds):
            raise ServerError("histogram buckets must be distinct")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +inf tail
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ServerError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._count:
                return 0.0
            if self._count == 1 or self._min == self._max:
                # Interpolating inside a bucket would smear a single
                # (or constant) observation across the bucket's span,
                # making p50 and p99 disagree about a distribution with
                # exactly one point in it.  Report that point.
                return self._max
            rank = q * self._count
            seen = 0.0
            for index, bucket_count in enumerate(self._counts):
                if not bucket_count:
                    continue
                if seen + bucket_count >= rank:
                    lower = self._bounds[index - 1] if index else 0.0
                    upper = (self._bounds[index]
                             if index < len(self._bounds)
                             else (self._max or lower))
                    upper = max(upper, lower)
                    fraction = (rank - seen) / bucket_count
                    return lower + (upper - lower) * min(1.0, fraction)
                seen += bucket_count
            return self._max or 0.0  # pragma: no cover — defensive

    def render(self) -> dict:
        with self._lock:
            count, total = self._count, self._sum
            counts = list(self._counts)
            observed_min, observed_max = self._min, self._max
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": observed_min,
            "max": observed_max,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": {
                **{str(bound): bucket_count
                   for bound, bucket_count
                   in zip(self._bounds, counts)},
                "+inf": counts[-1],
            },
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named (and optionally labelled) metrics.

    ``registry.counter("x", tenant="a")`` and a later identical call
    return the *same* counter; asking for an existing name with a
    different metric type raises.  :meth:`render` groups label fan-outs
    under their base name, which is the ``GET /metrics`` payload.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelSet], Metric] = {}

    def _get_or_create(self, name: str, labels: Mapping[str, object],
                       factory, kind: type) -> Metric:
        if not name:
            raise ServerError("metric name must be non-empty")
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise ServerError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}")
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(name, labels, Gauge, Gauge)

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: object) -> Histogram:
        return self._get_or_create(
            name, labels, lambda: Histogram(buckets), Histogram)

    def render(self) -> dict:
        """One JSON-friendly dict: ``{name: rendered | {labels: rendered}}``.

        Unlabelled metrics render flat; labelled ones nest under a
        ``"k=v,k=v"`` key per series.
        """
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, dict] = {}
        for (name, labels), metric in items:
            rendered = metric.render()
            if not labels:
                out[name] = rendered
            else:
                series = out.setdefault(name, {"type": rendered["type"],
                                               "series": {}})
                key = ",".join(f"{k}={v}" for k, v in labels)
                series["series"][key] = rendered
        return out


class ServiceInstrumentation:
    """The metric bundle :class:`~repro.app.service.CorrelationService`
    reports into when the serving tier (or a test) hands it one.

    The service treats this as an opaque sink — it only calls the
    attributes below — so the app layer carries no import of the
    server package at runtime.
    """

    __slots__ = ("registry", "flush_seconds", "flush_batches",
                 "flushed_events", "flush_failures", "submitted_events",
                 "snapshot_hits", "snapshot_misses", "estimate_reads",
                 "estimate_seconds", "journal_appends",
                 "journal_append_seconds", "_prefix")

    def __init__(self, registry: MetricsRegistry | None = None,
                 *, prefix: str = "service") -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._prefix = prefix
        reg = self.registry
        #: Wall-clock seconds per coalesced flush (write-lock hold).
        self.flush_seconds = reg.histogram(f"{prefix}_flush_seconds")
        self.flush_batches = reg.counter(f"{prefix}_flush_batches")
        self.flushed_events = reg.counter(f"{prefix}_flushed_events")
        self.flush_failures = reg.counter(f"{prefix}_flush_failures")
        self.submitted_events = reg.counter(f"{prefix}_submitted_events")
        #: Reads served from a session's published snapshot (zero
        #: rules copied) vs. publications (one per commit).
        self.snapshot_hits = reg.counter(f"{prefix}_snapshot_hits")
        self.snapshot_misses = reg.counter(f"{prefix}_snapshot_misses")
        #: Approximate-tier reads (mode=estimate) and their latency —
        #: the number the exact/estimate trade is judged by.
        self.estimate_reads = reg.counter(f"{prefix}_estimate_reads")
        self.estimate_seconds = reg.histogram(
            f"{prefix}_estimate_seconds")
        #: Write-ahead journal appends and their fsync-inclusive
        #: latency — the durability tax every flush pays up front.
        self.journal_appends = reg.counter(f"{prefix}_journal_appends")
        self.journal_append_seconds = reg.histogram(
            f"{prefix}_journal_append_seconds")

    def observe_phases(self, phases) -> None:
        """Record a report's phase-level wall timings as one labelled
        histogram series per phase (``<prefix>_phase_seconds``).

        ``phases`` is duck-typed (anything with a ``wall`` mapping of
        phase name -> seconds) so the app layer can hand over a
        :class:`~repro.core.maintenance.PhaseTimings` without this
        module importing it.
        """
        for phase, seconds in phases.wall.items():
            self.registry.histogram(
                f"{self._prefix}_phase_seconds",
                phase=phase).observe(seconds)

    def snapshot_hit_rate(self) -> float:
        hits = self.snapshot_hits.value
        total = hits + self.snapshot_misses.value
        return hits / total if total else 0.0
