"""Updating existing correlations — the paper's Figure 12.

The defining property of Case 3 maintenance is its access pattern: only
the *newly annotated* tuples are read.  A pattern's count increases by
exactly the number of δ tuples where the pattern (a) is contained in the
tuple's post-update item set and (b) includes at least one of the items
added by the batch — condition (b) is what certifies the pattern was not
already satisfied before the update, because the added items were absent
by construction.

The same walk with ``delta=-1`` over the *pre-update* item set handles
annotation removal (future-work extension), and with no required-items
filter it handles whole-tuple deletion.  Every walk *adjusts* stored
counts in place (``count += delta`` per touched tuple), which keeps the
table exact because stored counts are exact before the batch.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.deltas import EventAudit, PlanStats
from repro.core.pattern_table import FrequentPatternTable
from repro.core.rules import AssociationRule, RuleKey
from repro.mining.itemsets import Itemset, Transaction
from repro.mining.tables import increment_counts


@dataclass(frozen=True, slots=True)
class TupleDelta:
    """One tuple touched by a δ batch.

    ``after`` is the tuple's item set once the whole batch is applied;
    ``changed_items`` the annotation/label items the batch added to (or,
    for removals, removed from) this tuple.
    """

    tid: int
    after: Transaction
    changed_items: frozenset[int]


@dataclass
class PhaseTimings:
    """Structured wall-clock breakdown of one lifecycle operation.

    ``wall`` maps a phase name to the seconds the caller spent in it
    (phases of an initial mine: ``partition`` / ``encode`` / ``build``
    / ``mine`` / ``merge`` / ``refresh``; a routed flush uses
    ``partition`` / ``apply`` / ``merge`` / ``refresh``).
    ``per_shard`` maps a phase name to one duration per shard, in shard
    order, for the phases that run per shard (each shard's ``mine``
    duration lands here — the wall for that phase includes thread-pool
    dispatch).
    """

    wall: dict[str, float] = field(default_factory=dict)
    per_shard: dict[str, list[float]] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        self.wall[phase] = self.wall.get(phase, 0.0) + seconds

    @contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - started)

    def record_shards(self, phase: str, seconds: Iterable[float]) -> None:
        self.per_shard.setdefault(phase, []).extend(seconds)

    def __bool__(self) -> bool:
        return bool(self.wall or self.per_shard)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (benchmark rows, ``/metrics``, status)."""
        return {"wall": dict(self.wall),
                "per_shard": {phase: list(values)
                              for phase, values in self.per_shard.items()}}

    def summary(self) -> str:
        """Compact one-line breakdown for CLI status output."""
        return " ".join(f"{phase}={seconds * 1000:.1f}ms"
                        for phase, seconds in self.wall.items())


@dataclass
class MaintenanceReport:
    """What one update event did — returned by ``manager.apply``."""

    event: str
    db_size: int
    duration_seconds: float = 0.0
    #: Time spent in post-event invariant validation (0.0 when disabled).
    validation_seconds: float = 0.0
    patterns_touched: int = 0
    patterns_added: list[Itemset] = field(default_factory=list)
    patterns_pruned: list[Itemset] = field(default_factory=list)
    rules_added: list[AssociationRule] = field(default_factory=list)
    rules_dropped: list[RuleKey] = field(default_factory=list)
    rules_updated: int = 0
    table_size: int = 0
    tuples_scanned: int = 0
    #: Phase-level wall/per-shard timing breakdown (empty when the
    #: operation predates phase instrumentation, e.g. per-case reports).
    phases: PhaseTimings = field(default_factory=PhaseTimings)

    def summary(self) -> str:
        line = (f"{self.event}: db={self.db_size} "
                f"rules +{len(self.rules_added)}/-{len(self.rules_dropped)} "
                f"(~{self.rules_updated} updated), "
                f"patterns +{len(self.patterns_added)}"
                f"/-{len(self.patterns_pruned)} "
                f"({self.patterns_touched} refreshed), "
                f"{self.duration_seconds * 1000:.2f} ms")
        if self.phases:
            line += f" | {self.phases.summary()}"
        return line


@dataclass
class BatchReport:
    """What one coalesced batch of update events did.

    ``apply_batch`` runs the whole delta plan through one relation/index
    update, one maintenance walk per case, and **one** rule refresh —
    so rule- and table-level statistics live here, at batch granularity,
    while :attr:`case_reports` carries the per-case maintenance detail
    and :attr:`audits` the per-event provenance rows the serving layer
    and the event log still account for individually.
    """

    db_size: int
    #: Report label (mirrors ``MaintenanceReport.event`` so validation
    #: failures can name what was being applied).
    event: str = "apply-batch"
    #: Per-case maintenance reports, in application order (inserts,
    #: annotation adds, annotation removes, tuple deletes) — only the
    #: cases the plan actually exercised appear.
    case_reports: list[MaintenanceReport] = field(default_factory=list)
    #: One provenance row per submitted event, in submission order.
    audits: list[EventAudit] = field(default_factory=list)
    plan_stats: PlanStats = field(default_factory=PlanStats)
    duration_seconds: float = 0.0
    validation_seconds: float = 0.0
    #: Distinct patterns the dirty-scoped rule refresh re-derived from.
    patterns_dirty: int = 0
    #: Partitions a sharded engine routed sub-plans to (0 on the
    #: monolithic engine).
    shards_touched: int = 0
    rules_added: list[AssociationRule] = field(default_factory=list)
    rules_dropped: list[RuleKey] = field(default_factory=list)
    rules_updated: int = 0
    table_size: int = 0
    #: Phase-level wall/per-shard timing breakdown of this flush.
    phases: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def events(self) -> int:
        return len(self.audits)

    def __len__(self) -> int:
        return len(self.audits)

    def __iter__(self) -> Iterator[EventAudit]:
        return iter(self.audits)

    def summary(self) -> str:
        saved = (self.plan_stats.pairs_cancelled
                 + self.plan_stats.pairs_collapsed
                 + self.plan_stats.pairs_folded_into_inserts
                 + self.plan_stats.inserts_elided)
        line = (f"batch of {self.events} event(s): db={self.db_size} "
                f"rules +{len(self.rules_added)}/-{len(self.rules_dropped)} "
                f"(~{self.rules_updated} updated), "
                f"{self.patterns_dirty} dirty pattern(s), "
                f"{saved} op(s) coalesced away, "
                f"{self.duration_seconds * 1000:.2f} ms")
        if self.phases:
            line += f" | {self.phases.summary()}"
        return line


def _adjust_counts(table: FrequentPatternTable,
                   deltas: Sequence[TupleDelta],
                   *,
                   delta: int,
                   touched_out: set[Itemset] | None) -> int:
    """The horizontal walk: ``count += delta`` per (pattern, δ tuple)."""
    touched = 0
    for tuple_delta in deltas:
        touched += increment_counts(
            table.counts, tuple_delta.after,
            required_items=tuple_delta.changed_items, delta=delta,
            touched_out=touched_out)
    return touched


def refresh_for_added_items(table: FrequentPatternTable,
                            deltas: Sequence[TupleDelta],
                            *,
                            touched_out: set[Itemset] | None = None) -> int:
    """Figure 12: bump counts of stored patterns newly satisfied by δ.

    Touches only the δ tuples.  A stored pattern gains one occurrence
    per δ tuple that contains it *and* where it includes a changed item
    (so it cannot have been satisfied before the batch).
    Returns the number of (pattern, tuple) increments performed.  With
    ``touched_out``, the identities of the touched patterns are
    collected there (the dirty set of the scoped rule refresh).
    """
    return _adjust_counts(table, deltas, delta=1, touched_out=touched_out)


def decay_for_removed_items(table: FrequentPatternTable,
                            deltas: Sequence[TupleDelta],
                            *,
                            touched_out: set[Itemset] | None = None) -> int:
    """Inverse walk for annotation removal.

    ``delta.after`` must hold the tuple's item set *before* the removal
    (the last state in which the patterns were satisfied) and
    ``changed_items`` the removed items.
    """
    return _adjust_counts(table, deltas, delta=-1, touched_out=touched_out)


def decay_for_deleted_tuples(table: FrequentPatternTable,
                             old_transactions: Sequence[Transaction],
                             *,
                             touched_out: set[Itemset] | None = None) -> int:
    """Remove a deleted tuple's contribution from every stored pattern."""
    touched = 0
    for transaction in old_transactions:
        touched += increment_counts(table.counts, transaction, delta=-1,
                                    touched_out=touched_out)
    return touched
