"""Bottom-k (KMV) tidset sketches for approximate correlation serving.

Exact SON re-mining is seconds away at fig7-plus scale, so the serving
tier needs a read path that answers *now* and quantifies how wrong it
might be.  Following Santos et al. (*Correlation Sketches for
Approximate Join-Correlation Queries*), each item keeps the ``k``
smallest 64-bit hash values of its tidset — a bottom-k / K-Minimum-
Values sample.  Because every item hashes tids through the same
bijective mixer, the samples are *coordinated*: the same tid lands on
the same hash everywhere, so sample intersection witnesses real tidset
intersection and a multiway KMV estimator turns the witnesses into a
support estimate with a computable error bound.

Three properties the rest of the stack relies on:

* **Exact at small scale.**  The mixer is a bijection on 64-bit
  integers, so distinct tids never collide.  While an item's
  cardinality is <= ``k`` the sample *is* the tidset and every
  estimate degrades gracefully to an exact count with bound 0.
* **O(1) maintenance per (item, tid) delta.**  ``insert`` is a bounded
  insort; ``discard`` only rebuilds an item's sample when a sampled
  hash leaves a non-exhaustive sketch, which happens with probability
  ``k/n`` — amortized O(k log k) per delete.  This is what lets the
  engine keep sketches fresh on every ``apply_batch`` without ever
  re-mining.

Estimates are count-level (:class:`Estimate`) so shard-local answers
compose by summation (values and bounds both add, exactness AND-s);
:func:`combine_rule_estimate` then assembles support / confidence /
lift figures with propagated bounds from the summed counts.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Mapping
from heapq import nsmallest
from dataclasses import dataclass
from statistics import NormalDist

from repro.errors import MiningError

_MASK64 = (1 << 64) - 1
_SCALE = float(1 << 64)

#: Default bottom-k sample size; 256 keeps per-item state under 2 KiB
#: while the 1/sqrt(k) relative error lands around 6%.
DEFAULT_SKETCH_K = 256

#: Default hash salt (any fixed odd constant works; exposed so shard
#: layouts that want decorrelated samples can vary it).
DEFAULT_SALT = 0x9E3779B97F4A7C15


def mix64(value: int, salt: int = DEFAULT_SALT) -> int:
    """SplitMix64 finalizer — a *bijection* on 64-bit integers.

    Bijectivity matters more than avalanche here: distinct tids can
    never collide, so an exhaustive sample is exactly the tidset and
    cross-item hash equality certifies tid equality.
    """
    x = (value + salt) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def z_score(confidence_level: float) -> float:
    """Two-sided normal quantile for a coverage target in (0, 1)."""
    if not 0.0 < confidence_level < 1.0:
        raise MiningError(
            f"confidence level must be in (0, 1), got {confidence_level}")
    return NormalDist().inv_cdf((1.0 + confidence_level) / 2.0)


@dataclass(frozen=True, slots=True)
class Estimate:
    """A point estimate with a symmetric error bound (same units)."""

    value: float
    bound: float
    exact: bool

    def __post_init__(self) -> None:
        if self.bound < 0.0:
            raise MiningError(f"bound must be >= 0, got {self.bound}")

    @classmethod
    def exactly(cls, value: float) -> "Estimate":
        return cls(value=value, bound=0.0, exact=True)


def sum_estimates(estimates: Iterable[Estimate]) -> Estimate:
    """Combine independent per-shard counts: values and bounds add."""
    value = bound = 0.0
    exact = True
    for estimate in estimates:
        value += estimate.value
        bound += estimate.bound
        exact = exact and estimate.exact
    return Estimate(value=value, bound=bound, exact=exact)


@dataclass(frozen=True, slots=True)
class RuleEstimate:
    """Approximate support/confidence/lift for one rule, with bounds."""

    support: float
    support_bound: float
    confidence: float
    confidence_bound: float
    lift: float
    lift_bound: float
    count: float
    exact: bool


def combine_rule_estimate(both: Estimate, lhs: Estimate, rhs_count: int,
                          db_size: int) -> RuleEstimate:
    """Assemble rule metrics from (possibly summed) count estimates.

    ``rhs_count`` is the *exact* RHS marginal (sketches track
    cardinalities exactly), so the lift denominator contributes no
    extra error; confidence propagates the ratio bound
    ``|d(a/b)| <= (da + (a/b)·db) / b``.
    """
    n = max(db_size, 0)
    support = both.value / n if n else 0.0
    support_bound = min(both.bound / n, 1.0) if n else 0.0
    lhs_floor = max(lhs.value, 1.0)
    confidence = min(both.value / lhs_floor, 1.0) if lhs.value > 0 else 0.0
    confidence_bound = min(
        (both.bound + confidence * lhs.bound) / lhs_floor, 1.0)
    p_rhs = rhs_count / n if n else 0.0
    lift = confidence / p_rhs if p_rhs else 0.0
    lift_bound = confidence_bound / p_rhs if p_rhs else 0.0
    return RuleEstimate(
        support=support, support_bound=support_bound,
        confidence=confidence, confidence_bound=confidence_bound,
        lift=lift, lift_bound=lift_bound,
        count=both.value, exact=both.exact and lhs.exact)


class TidsetSketch:
    """Bottom-k sample of one item's tidset + its exact cardinality."""

    __slots__ = ("_k", "_salt", "_hashes", "_members", "_cardinality")

    def __init__(self, k: int, salt: int = DEFAULT_SALT) -> None:
        if k < 8:
            raise MiningError(f"sketch k must be >= 8, got {k}")
        self._k = k
        self._salt = salt
        self._hashes: list[int] = []       # sorted ascending
        self._members: set[int] = set()    # same contents, O(1) lookup
        self._cardinality = 0

    @classmethod
    def from_tids(cls, tids: Iterable[int], k: int,
                  salt: int = DEFAULT_SALT) -> "TidsetSketch":
        sketch = cls(k, salt)
        sketch._rebuild(tids)
        return sketch

    # -- maintenance ---------------------------------------------------------

    def insert(self, tid: int) -> None:
        self._cardinality += 1
        value = mix64(tid, self._salt)
        if len(self._hashes) < self._k:
            insort(self._hashes, value)
            self._members.add(value)
        elif value < self._hashes[-1]:
            evicted = self._hashes.pop()
            self._members.discard(evicted)
            insort(self._hashes, value)
            self._members.add(value)

    def discard(self, tid: int, tids: Iterable[int] | None = None) -> None:
        """Remove ``tid``; ``tids`` is the *remaining* tidset, consulted
        only when a sampled hash leaves a non-exhaustive sketch (the
        bottom-k of the survivors is then unknowable from the sample
        alone and the sketch rebuilds in one sweep)."""
        was_exhaustive = self.is_exhaustive
        value = mix64(tid, self._salt)
        self._cardinality -= 1
        if value not in self._members:
            return  # sample unchanged: still the bottom-k of survivors
        if was_exhaustive:
            self._hashes.remove(value)
            self._members.discard(value)
            return
        if tids is None:
            raise MiningError(
                "discard of a sampled tid from a non-exhaustive sketch "
                "requires the remaining tidset to rebuild from")
        self._rebuild(tids)

    def _rebuild(self, tids: Iterable[int]) -> None:
        salt = self._salt
        hashes = [mix64(tid, salt) for tid in tids]
        self._cardinality = len(hashes)
        # nsmallest returns ascending order: O(n log k), not a full sort.
        self._hashes = nsmallest(self._k, hashes)
        self._members = set(self._hashes)

    # -- introspection -------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    @property
    def cardinality(self) -> int:
        return self._cardinality

    @property
    def is_exhaustive(self) -> bool:
        """True while the sample holds *every* tid's hash."""
        return self._cardinality <= self._k

    @property
    def max_hash(self) -> int:
        if not self._hashes:
            raise MiningError("empty sketch has no max hash")
        return self._hashes[-1]

    @property
    def sample(self) -> frozenset[int]:
        return frozenset(self._members)

    def __contains__(self, hash_value: int) -> bool:
        return hash_value in self._members

    def __len__(self) -> int:
        return len(self._hashes)


class SketchIndex:
    """Item -> :class:`TidsetSketch` registry with KMV estimation.

    Mirrors the maintained item -> tidset map of
    :class:`~repro.core.annotation_index.VerticalIndex`: one sketch per
    live item, dropped when the item's last tid disappears.  All
    estimation happens at *count* level so shard-local indexes compose
    by summing (:func:`sum_estimates`).
    """

    __slots__ = ("_k", "_salt", "_sketches")

    def __init__(self, k: int = DEFAULT_SKETCH_K,
                 salt: int = DEFAULT_SALT) -> None:
        if k < 8:
            raise MiningError(f"sketch k must be >= 8, got {k}")
        self._k = k
        self._salt = salt
        self._sketches: dict[int, TidsetSketch] = {}

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Iterable[int]],
                     k: int = DEFAULT_SKETCH_K,
                     salt: int = DEFAULT_SALT) -> "SketchIndex":
        """One-sweep build alongside a bitmap substrate (item ->
        iterable of tids, e.g. ``VerticalIndex.as_mapping()``)."""
        index = cls(k, salt)
        for item, tids in mapping.items():
            sketch = TidsetSketch.from_tids(tids, k, salt)
            if sketch.cardinality:
                index._sketches[item] = sketch
        return index

    # -- maintenance (the VerticalIndex observer protocol) -------------------

    def on_add(self, item: int, tid: int) -> None:
        sketch = self._sketches.get(item)
        if sketch is None:
            sketch = self._sketches[item] = TidsetSketch(self._k, self._salt)
        sketch.insert(tid)

    def on_discard(self, item: int, tid: int,
                   tids: Iterable[int] | None = None) -> None:
        sketch = self._sketches.get(item)
        if sketch is None:
            return
        sketch.discard(tid, tids)
        if sketch.cardinality <= 0:
            del self._sketches[item]

    # -- introspection -------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    @property
    def salt(self) -> int:
        return self._salt

    def __len__(self) -> int:
        return len(self._sketches)

    def __contains__(self, item: int) -> bool:
        return item in self._sketches

    def items(self) -> list[int]:
        return sorted(self._sketches)

    def cardinality(self, item: int) -> int:
        """Exact tidset cardinality (sketches count inserts/deletes)."""
        sketch = self._sketches.get(item)
        return sketch.cardinality if sketch is not None else 0

    def sketch(self, item: int) -> TidsetSketch | None:
        return self._sketches.get(item)

    # -- estimation ----------------------------------------------------------

    def itemset_estimate(self, items: Iterable[int], *,
                         z: float = 2.0) -> Estimate:
        """Estimated ``|intersection of the items' tidsets|``.

        Exhaustive everywhere -> exact count, bound 0.  Otherwise the
        multiway KMV estimator: take tau = the smallest "full sample"
        threshold across the non-exhaustive sketches; every union
        element hashing <= tau is present in *some* sample (bottom-k
        property) and its membership in *every* set is decidable, so
        ``K = {h <= tau}`` is a valid bottom-|K| union sample.  Then
        ``U = (|K|-1)/norm(tau)`` estimates the union size,
        ``p = hits/|K|`` the intersection share, and the bound
        propagates the binomial error of ``p`` plus the 1/sqrt(|K|-2)
        relative error of ``U``.
        """
        sketches = []
        for item in items:
            sketch = self._sketches.get(item)
            if sketch is None or sketch.cardinality == 0:
                return Estimate.exactly(0.0)
            sketches.append(sketch)
        if not sketches:
            raise MiningError("itemset estimate requires at least one item")
        ceiling = float(min(s.cardinality for s in sketches))
        if all(s.is_exhaustive for s in sketches):
            count = len(frozenset.intersection(
                *(s.sample for s in sketches)))
            return Estimate.exactly(float(count))
        tau = min(s.max_hash for s in sketches if not s.is_exhaustive)
        union: set[int] = set()
        for sketch in sketches:
            union.update(h for h in sketch.sample if h <= tau)
        k_union = len(union)
        hits = sum(1 for h in union
                   if all(h in sketch for sketch in sketches))
        if k_union < 3:
            # Degenerate sample; answer with the witnesses and a bound
            # covering the whole feasible range.
            return Estimate(value=float(hits), bound=ceiling, exact=False)
        tau_norm = (tau + 1) / _SCALE
        union_size = (k_union - 1) / tau_norm
        share = hits / k_union
        value = min(share * union_size, ceiling)
        spread = (share * (1.0 - share) / k_union) ** 0.5
        bound = z * union_size * (spread + (k_union - 2) ** -0.5)
        return Estimate(value=value, bound=min(bound, ceiling), exact=False)

    def rule_estimate(self, lhs: Iterable[int], rhs: int, db_size: int, *,
                      z: float = 2.0) -> RuleEstimate:
        """Approximate support/confidence/lift of ``lhs -> rhs``."""
        lhs_items = tuple(lhs)
        both = self.itemset_estimate(lhs_items + (rhs,), z=z)
        lhs_estimate = self.itemset_estimate(lhs_items, z=z)
        return combine_rule_estimate(
            both, lhs_estimate, self.cardinality(rhs), db_size)

