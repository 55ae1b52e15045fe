"""Approximate-first reads: estimate snapshots that never wait for a flush.

The exact read path answers from the engine's mined rule catalog —
after a write burst that means waiting for the next flush (and, on a
sharded engine, its SON re-merge) before the numbers move.  This module
is the read tier in front of it:

* the *candidate* rules come from the last **published** catalog (an
  immutable object, readable without any session lock);
* their counts are re-read from the engine's vertical index — one
  bitmap AND chain plus a popcount per itemset, summed across the
  partitions of a sharded engine by its index view — so the substrate
  part of every figure is exact;
* events still queued (or draining in an in-flight flush) are layered
  on as a **pending overlay**: inserted rows are fully described by
  their event, so their contribution is exact — encoded against the
  engine vocabulary without interning anything (an unseen token cannot
  match an existing rule, so it is skipped, not added).

Every figure is therefore exact.  The wire still pairs each with a
zero bound and ``exact: true``, and ``z`` / ``confidence_level`` stay,
so estimate clients keep one shape.  Annotation add/remove events
reference tuples by tid and need engine state to score, so they are
*deferred*: counted in :attr:`EstimateSnapshot.deferred_events` and
reflected as soon as the flush that is already under way lands.
Estimate reads take no session lock, so a concurrent flush may be
mid-way through the substrate — the trade the caller makes by asking
for ``mode=estimate``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.events import (
    AddAnnotatedTuples,
    AddUnannotatedTuples,
    RemoveTuples,
    UpdateEvent,
)
from repro.core.rules import AssociationRule, RuleKind
from repro.errors import MiningError, SessionError, VocabularyError
from repro.mining.itemsets import Item, ItemKind, ItemVocabulary
from repro.relation.schema import SchemaError, opaque_token

#: Metrics an estimate snapshot can rank by.  Significance metrics are
#: exact-tier only: a chi-square over *estimated* counts would present
#: a precise-looking p-value computed from approximate inputs.
ESTIMATE_METRICS = ("support", "confidence", "lift")


def z_score(confidence_level: float) -> float:
    """Two-sided normal quantile for a coverage target in (0, 1)."""
    if not 0.0 < confidence_level < 1.0:
        raise MiningError(
            f"confidence level must be in (0, 1), got {confidence_level}")
    # Loaded on the first estimate: a server that never estimates
    # never imports statistics.
    from statistics import NormalDist
    return NormalDist().inv_cdf((1.0 + confidence_level) / 2.0)


@dataclass(frozen=True, slots=True)
class RuleEstimate:
    """Support/confidence/lift for one rule, from exact counts."""

    support: float
    confidence: float
    lift: float
    count: float


def combine_rule_estimate(both: int, lhs: int, rhs_count: int,
                          db_size: int) -> RuleEstimate:
    """Rule metrics from the counts of the rule's union, its LHS and
    its RHS in a database of ``db_size`` tuples."""
    n = max(db_size, 0)
    support = both / n if n else 0.0
    confidence = min(both / lhs, 1.0) if lhs > 0 else 0.0
    p_rhs = rhs_count / n if n else 0.0
    lift = confidence / p_rhs if p_rhs else 0.0
    return RuleEstimate(support=support, confidence=confidence, lift=lift,
                        count=float(both))


@dataclass(frozen=True, slots=True)
class EstimatedRule:
    """One catalog rule re-scored through the estimate tier."""

    #: The rule as last published (its counts are the *flushed* state).
    rule: AssociationRule
    #: Index + overlay statistics (exact: every error bound is zero).
    estimate: RuleEstimate

    def metric(self, name: str) -> float:
        if name not in ESTIMATE_METRICS:
            raise SessionError(
                f"unknown estimate metric {name!r}; choose from "
                f"{', '.join(ESTIMATE_METRICS)}")
        return getattr(self.estimate, name)

    def bound(self, name: str) -> float:
        """The metric's error bound: always 0.0, as every count is
        exact."""
        self.metric(name)
        return 0.0

    def render(self, vocabulary: ItemVocabulary) -> str:
        """Figure 7 style with the (zero) uncertainty made visible."""
        lhs = vocabulary.render(self.rule.lhs)
        rhs = vocabulary.item(self.rule.rhs).token
        est = self.estimate
        return (f"{lhs} ==> {rhs}, {est.confidence:.4f}±0.0000, "
                f"{est.support:.4f}±0.0000")


@dataclass(frozen=True, slots=True)
class PendingOverlay:
    """Exact contributions of queued events, pre-encoded for scoring.

    ``rows`` holds the item-id sets of pending *inserted* tuples (only
    items the vocabulary already knows — unseen tokens cannot match an
    existing rule).  ``removals`` counts pending tuple deletions: they
    adjust the estimated database size, but their per-rule count effect
    needs engine state, so it lands with the flush.  ``deferred``
    counts the annotation add/remove events in the same boat.
    """

    rows: tuple[frozenset[int], ...]
    inserts: int
    removals: int
    deferred: int

    @property
    def is_empty(self) -> bool:
        return not (self.inserts or self.removals or self.deferred)

    def count_containing(self, items: frozenset[int]) -> int:
        """Pending inserted rows containing every id in ``items``."""
        return sum(1 for row in self.rows if items <= row)

    def count_item(self, item: int) -> int:
        return sum(1 for row in self.rows if item in row)


def _encode_pending_row(values: Sequence[str],
                        annotations: Iterable[str],
                        *, relation, vocabulary: ItemVocabulary,
                        generalizer) -> frozenset[int]:
    """The known-item footprint of a not-yet-inserted row.

    Mirrors :func:`repro.relation.transactions.encode_tuple` for a row
    that has no tid yet, resolving tokens instead of interning them: a
    token the mined vocabulary never saw gets its id at flush time and
    cannot occur in any already-published rule, so dropping it here
    loses nothing.
    """
    schema = getattr(relation, "schema", None)
    try:
        if schema is None:
            tokens = [opaque_token(value) for value in values]
        else:
            tokens = [schema.data_token(position, value)
                      for position, value in enumerate(values)]
    except SchemaError:
        # Arity mismatch: the flush will reject this row; until then it
        # matches nothing.
        return frozenset()
    items: set[int] = set()
    for token in tokens:
        try:
            items.add(vocabulary.id_of(Item(ItemKind.DATA, token)))
        except VocabularyError:
            pass
    annotation_set = frozenset(annotations)
    for annotation_id in annotation_set:
        try:
            items.add(vocabulary.id_of(
                Item(ItemKind.ANNOTATION, annotation_id)))
        except VocabularyError:
            pass
    if generalizer is not None and annotation_set:
        for label in generalizer.labels_for(annotation_set):
            try:
                items.add(vocabulary.id_of(Item(ItemKind.LABEL, label)))
            except VocabularyError:
                pass
    return frozenset(items)


def overlay_from_events(events: Iterable[UpdateEvent], *,
                        relation, vocabulary: ItemVocabulary,
                        generalizer=None) -> PendingOverlay:
    """Fold a queue of update events into a :class:`PendingOverlay`."""
    rows: list[frozenset[int]] = []
    inserts = removals = deferred = 0
    for event in events:
        if isinstance(event, AddAnnotatedTuples):
            for values, annotations in event.rows:
                rows.append(_encode_pending_row(
                    values, annotations, relation=relation,
                    vocabulary=vocabulary, generalizer=generalizer))
                inserts += 1
        elif isinstance(event, AddUnannotatedTuples):
            for values in event.rows:
                rows.append(_encode_pending_row(
                    values, (), relation=relation,
                    vocabulary=vocabulary, generalizer=generalizer))
                inserts += 1
        elif isinstance(event, RemoveTuples):
            removals += len(event.tids)
        else:
            deferred += 1
    return PendingOverlay(rows=tuple(rows), inserts=inserts,
                          removals=removals, deferred=deferred)


@dataclass(frozen=True, slots=True)
class EstimateSnapshot:
    """A point-in-time *approximate* view of one session's rules.

    The exact-mode counterpart is
    :class:`repro.app.service.RuleSnapshot`; this one is tagged
    ``estimated=True``, carries the revision of the catalog it
    re-scored, and every rule in it has per-metric error bounds.
    """

    session: str
    #: Revision of the published catalog the candidates came from.
    revision: int
    #: Estimated live tuple count (flushed size + pending inserts −
    #: pending removals).
    db_size: int
    #: Events queued (or draining) when the estimate was taken.
    pending_events: int
    #: Pending inserted rows folded into the counts exactly.
    overlay_rows: int
    #: Pending events whose count effect waits for the flush.
    deferred_events: int
    #: Two-sided confidence level of the bounds (None when a raw
    #: z-multiplier was requested instead).
    confidence_level: float | None
    z: float
    ordered_by: str
    rules: tuple[EstimatedRule, ...]
    #: The vocabulary the rules' item ids render through.
    vocabulary: ItemVocabulary = field(repr=False, compare=False)
    #: Always True — the discriminator callers switch on.
    estimated: bool = True

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[EstimatedRule]:
        return iter(self.rules)

    def top(self, n: int) -> tuple[EstimatedRule, ...]:
        return self.rules[:n]


def _resolve_z(z: float | None, confidence_level: float | None) -> float:
    if z is not None and confidence_level is not None:
        raise SessionError(
            "pass either z or confidence_level, not both")
    if confidence_level is not None:
        return z_score(confidence_level)
    if z is None:
        return 2.0
    value = float(z)
    if not (math.isfinite(value) and value > 0.0):
        raise SessionError(f"z must be a finite number > 0, got {z!r}")
    return value


def estimate_snapshot(engine, rules: Sequence[AssociationRule],
                      pending: Sequence[UpdateEvent], *,
                      session: str, revision: int,
                      n: int | None = None,
                      by: str = "confidence",
                      kind: RuleKind | None = None,
                      z: float | None = None,
                      confidence_level: float | None = None
                      ) -> EstimateSnapshot:
    """Re-score ``rules`` from the engine's vertical index + the
    pending overlay and rank them by a metric.

    Shared by the serving facade and the standalone session; the caller
    owns whatever locking discipline its queue needs — this function
    only reads.
    """
    if by not in ESTIMATE_METRICS:
        raise SessionError(
            f"estimate mode ranks by one of {', '.join(ESTIMATE_METRICS)}, "
            f"got {by!r}; significance metrics need mode=exact")
    z_value = _resolve_z(z, confidence_level)
    overlay = overlay_from_events(
        pending, relation=engine.relation, vocabulary=engine.vocabulary,
        generalizer=engine.generalizer)
    db_size = max(engine.db_size + overlay.inserts - overlay.removals, 0)
    index = engine.index

    counts: dict[tuple[int, ...], int] = {}
    rhs_counts: dict[int, int] = {}

    def count(items: tuple[int, ...]) -> int:
        found = counts.get(items)
        if found is None:
            found = index.count(items)
            if overlay.rows:
                found += overlay.count_containing(frozenset(items))
            counts[items] = found
        return found

    def rhs_count(item: int) -> int:
        found = rhs_counts.get(item)
        if found is None:
            found = index.frequency(item)
            if overlay.rows:
                found += overlay.count_item(item)
            rhs_counts[item] = found
        return found

    estimated: list[EstimatedRule] = []
    for rule in rules:
        if kind is not None and rule.kind is not kind:
            continue
        union = tuple(sorted(rule.lhs + (rule.rhs,)))
        rule_estimate = combine_rule_estimate(
            count(union), count(rule.lhs), rhs_count(rule.rhs), db_size)
        estimated.append(EstimatedRule(rule=rule, estimate=rule_estimate))

    estimated.sort(key=lambda er: (-er.metric(by),
                                   er.rule.kind.value,
                                   er.rule.lhs,
                                   er.rule.rhs))
    if n is not None:
        estimated = estimated[:n]
    return EstimateSnapshot(
        session=session,
        revision=revision,
        db_size=db_size,
        pending_events=len(pending),
        overlay_rows=overlay.inserts,
        deferred_events=overlay.deferred,
        confidence_level=confidence_level,
        z=z_value,
        ordered_by=by,
        rules=tuple(estimated),
        vocabulary=engine.vocabulary,
    )
