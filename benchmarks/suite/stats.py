"""Order statistics the suite reports samples with.

A tail percentile is only as trustworthy as the samples beyond it, so
:func:`percentile` refuses to name one that fewer than
:data:`MIN_BEYOND` samples exceed: a p99 needs at least 1000 samples,
a p95 at least 200.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first, by :func:`highest_tail`.
TAILS = (99.0, 95.0, 90.0)


class TooFewSamples(ValueError):
    """A statistic was asked of a sample too small to support it."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (the same cut points
    as ``statistics.quantiles(samples, n=4)``)."""
    if len(samples) < 2:
        raise TooFewSamples(f"quartiles of {len(samples)} sample(s)")
    first, _, third = statistics.quantiles(samples, n=4)
    return first, statistics.median(samples), third


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, middle, third = quartiles(samples)
    return (third - first) / middle if middle else math.inf


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, 0 < q < 100.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples rank above it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    count = len(samples)
    rank = math.ceil(q / 100.0 * count)
    beyond = count - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {max(beyond, 0)} beyond it; "
            f"{MIN_BEYOND} are needed")
    return sorted(samples)[rank - 1]


def highest_tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` of the highest percentile in :data:`TAILS` the
    sample supports, or ``None`` when it supports none of them."""
    for q in TAILS:
        try:
            return q, percentile(samples, q)
        except TooFewSamples:
            continue
    return None
