"""Small internal helpers shared across subsystems."""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import InvalidThresholdError

#: Tolerance used when comparing fractional thresholds computed from
#: integer counts.  Both the from-scratch miner and the incremental
#: maintenance path use the same helpers below, so thresholding is applied
#: identically on both sides of every equivalence check.
EPSILON = 1e-9


def fsync_directory(directory: str) -> None:
    """fsync a directory so a rename inside it is durable.

    Best effort: some platforms refuse ``O_RDONLY`` directory fds.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover — platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover — platform-dependent
        pass
    finally:
        os.close(fd)


def validate_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a usable threshold in ``(0, 1]``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidThresholdError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or not 0.0 < value <= 1.0:
        raise InvalidThresholdError(
            f"{name} must be in (0, 1], got {value!r}"
        )
    return float(value)


def min_count_for(fraction: float, total: int) -> int:
    """Smallest integer count whose ratio to ``total`` is >= ``fraction``.

    ``count / total >= fraction`` for integer counts is equivalent to
    ``count >= ceil(fraction * total)`` up to floating point noise, which
    :data:`EPSILON` absorbs.  A minimum of 1 is enforced so empty patterns
    never count as frequent.
    """
    if total <= 0:
        return 1
    return max(1, math.ceil(fraction * total - EPSILON))


def meets_fraction(numerator: int, denominator: int, fraction: float) -> bool:
    """Check ``numerator / denominator >= fraction`` without division noise."""
    if denominator <= 0:
        return False
    return numerator >= fraction * denominator - EPSILON


def sorted_tuple(items: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) tuple form of an itemset."""
    return tuple(sorted(set(items)))


@dataclass
class Stopwatch:
    """Accumulating wall-clock timer used by maintenance reports."""

    elapsed: float = 0.0
    _started: float | None = field(default=None, repr=False)

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            return self.elapsed
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        return self.elapsed


@contextmanager
def timed():
    """Context manager yielding a stopwatch that is running inside the block."""
    watch = Stopwatch().start()
    try:
        yield watch
    finally:
        watch.stop()
