"""Engine configuration: one immutable object instead of sprawling kwargs.

:class:`EngineConfig` gathers every knob the correlation engine takes —
thresholds, the near-miss margin, generalization, search limits,
sharding and post-update validation.  It is frozen, so a config can be
shared between engines, stored on a service, or used as a template
(:meth:`EngineConfig.replace`) without aliasing bugs.

Build one directly::

    config = EngineConfig(min_support=0.2, min_confidence=0.6,
                          max_length=3)

Thresholds are validated eagerly at construction through the same
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
    validate: bool = False
    #: Number of hash partitions the relation is mined and maintained
    #: in.  1 (the default) builds the classic monolithic
    #: :class:`~repro.core.engine.CorrelationEngine`; >= 2 makes the
    #: :func:`~repro.core.engine.engine` factory (and the serving
    #: facade) build a :class:`~repro.shard.ShardedEngine` whose rules
    #: are byte-identical to the monolithic ones (SON-style exact
    #: merge).
    shards: int = 1

    def __post_init__(self) -> None:
        # Thresholds shares its validation; a bad fraction raises here.
        self.thresholds()
        # Tenant-create bodies reach this constructor straight from
        # JSON, so types are checked here, not where a value is used.
        if not isinstance(self.validate, bool):
            raise InvalidThresholdError(
                f"validate must be a bool, got {self.validate!r}")
        for name, least, optional in (("max_length", 1, True),
                                      ("shards", 1, False)):
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
