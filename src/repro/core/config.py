"""Engine configuration: one immutable object instead of sprawling kwargs.

:class:`EngineConfig` gathers every knob the correlation engine takes —
thresholds, the near-miss margin, generalization, search limits,
sharding, observability toggles.  It is frozen, so a config can be
shared between engines, stored on a service, or used as a template
(:meth:`EngineConfig.replace`) without aliasing bugs.

:class:`EngineConfigBuilder` is the fluent construction path::

    config = (EngineConfig.builder()
              .support(0.2).confidence(0.6)
              .max_length(3)
              .build())

Thresholds are validated eagerly at :meth:`~EngineConfigBuilder.build`
(and at ``EngineConfig`` construction) through the same
:class:`~repro.core.stats.Thresholds` rules the engine enforces, so a
bad config fails where it is written, not where it is first mined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dataclass_replace
from typing import Any

from repro.core.stats import DEFAULT_MARGIN, Thresholds
from repro.errors import InvalidThresholdError


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Complete, validated configuration of a :class:`CorrelationEngine`."""

    min_support: float
    min_confidence: float
    margin: float = DEFAULT_MARGIN
    generalizer: Any = None
    max_length: int | None = None
    track_candidates: bool = True
    validate: bool = False
    #: Retain at most this many events in the engine's provenance log
    #: (``None`` = unbounded).  Long-lived served sessions set a bound
    #: so the log rotates instead of growing with the write stream.
    max_log_events: int | None = None
    #: Number of hash partitions the relation is mined and maintained
    #: in.  1 (the default) builds the classic monolithic
    #: :class:`~repro.core.engine.CorrelationEngine`; >= 2 makes the
    #: :func:`~repro.core.engine.engine` factory (and the serving
    #: facade) build a :class:`~repro.shard.ShardedEngine` whose rules
    #: are byte-identical to the monolithic ones (SON-style exact
    #: merge).
    shards: int = 1
    #: Workers for the concurrent phase-1 shard mines (``None`` =
    #: min(shards, cpu count)).  Only consulted when ``shards >= 2``.
    shard_workers: int | None = None
    #: Bottom-k sample size of the approximate read tier
    #: (:mod:`repro.mining.sketch`): each item keeps the ``sketch_k``
    #: smallest tid hashes, giving estimate relative error around
    #: ``1/sqrt(sketch_k)``.  Sketches are built lazily on the first
    #: estimate read, so exact-only workloads pay nothing.
    sketch_k: int = 256

    def __post_init__(self) -> None:
        # Thresholds shares its validation; a bad fraction raises here.
        self.thresholds()
        # Tenant-create bodies reach this constructor straight from
        # JSON, so types are checked here, not where a value is used.
        for name in ("track_candidates", "validate"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidThresholdError(
                    f"{name} must be a bool, got {value!r}")
        for name, least, optional in (("max_length", 1, True),
                                      ("max_log_events", 1, True),
                                      ("shards", 1, False),
                                      ("shard_workers", 1, True),
                                      ("sketch_k", 8, False)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < least):
                raise InvalidThresholdError(
                    f"{name} must be an int >= {least}"
                    f"{' or None' if optional else ''}, got {value!r}")

    def thresholds(self) -> Thresholds:
        """The engine-facing thresholds triple."""
        return Thresholds(self.min_support, self.min_confidence, self.margin)

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return _dataclass_replace(self, **changes)

    @classmethod
    def builder(cls) -> "EngineConfigBuilder":
        return EngineConfigBuilder()


class EngineConfigBuilder:
    """Fluent builder; every setter returns the builder itself."""

    def __init__(self) -> None:
        self._values: dict[str, Any] = {}

    # -- required knobs --------------------------------------------------------

    def support(self, min_support: float) -> "EngineConfigBuilder":
        self._values["min_support"] = min_support
        return self

    def confidence(self, min_confidence: float) -> "EngineConfigBuilder":
        self._values["min_confidence"] = min_confidence
        return self

    # -- optional knobs --------------------------------------------------------

    def margin(self, margin: float) -> "EngineConfigBuilder":
        self._values["margin"] = margin
        return self

    def generalizer(self, generalizer: Any) -> "EngineConfigBuilder":
        self._values["generalizer"] = generalizer
        return self

    def max_length(self, max_length: int | None) -> "EngineConfigBuilder":
        self._values["max_length"] = max_length
        return self

    def track_candidates(self, enabled: bool = True) -> "EngineConfigBuilder":
        self._values["track_candidates"] = enabled
        return self

    def validate(self, enabled: bool = True) -> "EngineConfigBuilder":
        self._values["validate"] = enabled
        return self

    def max_log_events(self, bound: int | None) -> "EngineConfigBuilder":
        self._values["max_log_events"] = bound
        return self

    def shards(self, count: int) -> "EngineConfigBuilder":
        self._values["shards"] = count
        return self

    def shard_workers(self, workers: int | None) -> "EngineConfigBuilder":
        self._values["shard_workers"] = workers
        return self

    def sketch_k(self, k: int) -> "EngineConfigBuilder":
        self._values["sketch_k"] = k
        return self

    # -- terminal --------------------------------------------------------------

    def build(self) -> EngineConfig:
        missing = [name for name in ("min_support", "min_confidence")
                   if name not in self._values]
        if missing:
            raise InvalidThresholdError(
                "EngineConfig.builder() is missing required "
                f"{' and '.join(missing)} — call .support(...) / "
                ".confidence(...) before .build()")
        return EngineConfig(**self._values)
