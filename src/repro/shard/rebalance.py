"""Online shard rebalancing: skew detection, layout plans, rebuilds.

A hash-partitioned session drifts: deletes hollow some shards out, a
hot-tuple write stream piles annotations onto one slice, or an operator
simply wants more (or fewer) shards than the session started with.
This module computes *plans* — the deterministic tid -> shard layout a
rebalance would cut over to — and builds the replacement engine from a
persistence snapshot, so the rebuild inherits every restore-time
verification (pattern table count-by-count, catalog shape).

The operational shape mirrors infra tooling: ``plan`` (inspect, no
mutation), ``dry_run`` (the service returns the plan without acting),
``apply`` (the service's background build + write-lock cutover, see
:meth:`repro.app.service.CorrelationService.rebalance`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import CorrelationEngine
from repro.errors import MaintenanceError


@dataclass(frozen=True)
class ShardSkew:
    """Live-tuple balance of a session's current layout."""

    counts: tuple[int, ...]
    total: int
    #: ``max(counts) / (total / shards)`` — 1.0 is perfectly balanced.
    max_ratio: float

    @property
    def shard_count(self) -> int:
        return len(self.counts)

    def skewed(self, *, threshold: float = 1.5) -> bool:
        """True when the hottest shard exceeds ``threshold`` x ideal."""
        return self.max_ratio >= threshold

    def as_dict(self) -> dict:
        return {"counts": list(self.counts), "total": self.total,
                "max_ratio": self.max_ratio}


@dataclass(frozen=True)
class RebalancePlan:
    """A deterministic target layout for one session."""

    current_shards: int
    target_shards: int
    current_counts: tuple[int, ...]
    target_counts: tuple[int, ...]
    #: Live tuples whose shard changes under the plan.
    moved: int
    total: int
    #: tid -> target shard (None for dead tids); index = tid.  Future
    #: inserts beyond the assignment fall back to ``tid % target``.
    assignment: tuple[int | None, ...]

    @property
    def noop(self) -> bool:
        return self.moved == 0 and self.target_shards == self.current_shards

    def as_dict(self) -> dict:
        """JSON-able summary (the assignment itself is omitted: it is
        O(relation) and belongs in snapshots, not status payloads)."""
        return {
            "current_shards": self.current_shards,
            "target_shards": self.target_shards,
            "current_counts": list(self.current_counts),
            "target_counts": list(self.target_counts),
            "moved": self.moved,
            "total": self.total,
            "noop": self.noop,
        }


def current_layout(engine: CorrelationEngine
                   ) -> tuple[int, list[int | None]]:
    """``(shard_count, tid -> shard | None)`` of a live engine.

    A monolithic engine is layout "one shard holds everything"; a
    :class:`~repro.shard.ShardedEngine` reports its real assignment.
    """
    from repro.shard.engine import ShardedEngine  # local: avoid cycle

    relation = engine.relation
    if isinstance(engine, ShardedEngine):
        return engine.shard_count, engine.assignment()
    assignment: list[int | None] = [
        0 if relation.is_live(tid) else None
        for tid in range(relation.tid_range)]
    return 1, assignment


def shard_skew(engine: CorrelationEngine) -> ShardSkew:
    """Live-tuple distribution across the engine's current shards."""
    count, assignment = current_layout(engine)
    counts = [0] * count
    for shard in assignment:
        if shard is not None:
            counts[shard] += 1
    total = sum(counts)
    ideal = total / count if count else 0.0
    max_ratio = (max(counts) / ideal) if total else 1.0
    return ShardSkew(counts=tuple(counts), total=total,
                     max_ratio=max_ratio)


def plan_rebalance(engine: CorrelationEngine, *,
                   target_shards: int | None = None) -> RebalancePlan:
    """A balanced round-robin layout over the engine's live tuples.

    Live tids are dealt to target shards in ascending tid order, so
    target shard sizes differ by at most one and the plan is a pure
    function of (relation state, target count) — two operators planning
    the same session get the identical layout.
    """
    count, assignment = current_layout(engine)
    if target_shards is None:
        target_shards = count
    if target_shards < 1:
        raise MaintenanceError(
            f"target_shards must be >= 1, got {target_shards}")
    live = [tid for tid, shard in enumerate(assignment)
            if shard is not None]
    target: list[int | None] = [None] * len(assignment)
    target_counts = [0] * target_shards
    moved = 0
    for position, tid in enumerate(live):
        shard = position % target_shards
        target[tid] = shard
        target_counts[shard] += 1
        if assignment[tid] != shard:
            moved += 1
    current_counts = [0] * count
    for shard in assignment:
        if shard is not None:
            current_counts[shard] += 1
    return RebalancePlan(
        current_shards=count,
        target_shards=target_shards,
        current_counts=tuple(current_counts),
        target_counts=tuple(target_counts),
        moved=moved,
        total=len(live),
        assignment=tuple(target))


def layout_document(document: dict, plan: RebalancePlan) -> dict:
    """A copy of a persistence snapshot with the plan's layout.

    Feeding the result to :func:`repro.core.persistence.restore`
    rebuilds the session's exact state under the *new* layout — and
    runs restore's full pattern-table and catalog verification against
    it, so a rebuild that would change any count fails before cutover.
    """
    rebuilt = dict(document)
    if plan.target_shards > 1:
        rebuilt["shards"] = {
            "count": plan.target_shards,
            "assignment": list(plan.assignment),
        }
    else:
        rebuilt.pop("shards", None)
    return rebuilt


def rebuild_with_plan(document: dict, plan: RebalancePlan, *,
                      generalizer=None) -> CorrelationEngine:
    """Build the replacement engine a plan cuts over to."""
    from repro.core import persistence  # local: persistence imports shard

    return persistence.restore(
        layout_document(document, plan),
        generalizer=generalizer)


__all__ = [
    "RebalancePlan",
    "ShardSkew",
    "current_layout",
    "layout_document",
    "plan_rebalance",
    "rebuild_with_plan",
    "shard_skew",
]
