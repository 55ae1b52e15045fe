"""Coalescing a batch of update events into one normalized delta plan.

The paper's cost model says maintenance should scale with the δ batch,
not the database — and a *served* system receives its δ as a queue of
heterogeneous events.  Applying them one at a time multiplies every
fixed cost (rule derivation, invariant checking, index bookkeeping) by
the queue depth.  :func:`compile_plan` instead folds an ordered
``list[UpdateEvent]`` into a single :class:`DeltaPlan`:

* annotation adds/removes are netted **per (tuple, annotation) pair**:
  the last operation against the pre-batch state wins, so an
  add-then-remove of a pair the tuple never had cancels outright and
  duplicate pairs collapse to one;
* tuple inserts from any number of Case 1 / Case 2 events merge into
  one increment (annotation events targeting a tuple inserted earlier
  in the same batch fold into that tuple's insert row);
* a tuple inserted and deleted within the batch is *elided*: it still
  consumes its tid (so per-event and batched application assign
  identical tids to every other row) but never reaches the mining
  substrate;
* per-event provenance survives as :class:`EventAudit` rows, so the
  serving layer can still account for each submitted event
  individually.

Compilation is **pure**: it reads batch-local state plus two optional
oracles describing the current relation, and mutates nothing.  Every
condition that would make per-event application fail on some event —
an unknown tid, a dead target, an event of unknown type, a malformed
row — is detected here and raised *before* the engine touches any
state, with the failing event's 1-based position recorded as the
error's ``event_position``.  That is what lets every flush path
compile the longest valid prefix (:class:`CompiledPrefix`), journal
and apply it as one batch, and drop only the poison event.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
    UpdateEvent,
)
from repro.errors import DeltaPlanError, ReproError

#: Human-readable labels, matching the per-event MaintenanceReport names.
EVENT_LABELS = {
    AddAnnotatedTuples: "add-annotated-tuples",
    AddUnannotatedTuples: "add-unannotated-tuples",
    AddAnnotations: "add-annotations",
    RemoveAnnotations: "remove-annotations",
    RemoveTuples: "remove-tuples",
}


def event_label(event: UpdateEvent) -> str:
    """The report label of ``event`` (raises on unknown event types)."""
    try:
        return EVENT_LABELS[type(event)]
    except KeyError:
        raise DeltaPlanError(f"unknown update event {event!r}") from None


@dataclass(frozen=True, slots=True)
class EventAudit:
    """Provenance of one input event inside a compiled plan."""

    #: 1-based position of the event in the submitted batch.
    position: int
    #: Report label (``"add-annotations"``, ...), as per-event apply uses.
    event: str
    #: Rows / pairs / tids the event carried.
    payload: int
    #: Pairs or rows whose effect was absorbed by coalescing (duplicate
    #: pairs, add-then-remove cancellations, rows elided by a same-batch
    #: delete, annotation ops folded into a pending insert row).
    coalesced: int = 0

    def summary(self) -> str:
        note = f" ({self.coalesced} coalesced)" if self.coalesced else ""
        return f"#{self.position} {self.event}: {self.payload} item(s){note}"


@dataclass
class PlannedInsert:
    """One tuple the batch inserts, with batch-merged annotations."""

    tid: int
    values: tuple[str, ...]
    annotations: set[str]
    #: True when a later event in the same batch deletes this tuple: it
    #: still consumes its tid (tid parity with per-event application)
    #: but is born tombstoned and never enters the mining substrate.
    elided: bool = False


@dataclass
class PlanStats:
    """What coalescing saved, for reports and the CLI."""

    events: int = 0
    #: (tid, annotation) operations that cancelled against the pre-batch
    #: state (add-then-remove of an absent pair, no-op adds/removes).
    pairs_cancelled: int = 0
    #: Duplicate (tid, annotation) operations collapsed into one.
    pairs_collapsed: int = 0
    #: Annotation ops folded into a same-batch pending insert row.
    pairs_folded_into_inserts: int = 0
    #: Insert rows elided by a same-batch delete.
    inserts_elided: int = 0


@dataclass
class DeltaPlan:
    """The normalized net effect of an ordered batch of update events."""

    #: ``relation.tid_range`` at compile time; planned inserts occupy
    #: ``base_tid, base_tid + 1, ...`` in order.
    base_tid: int
    inserts: list[PlannedInsert] = field(default_factory=list)
    #: Net annotation additions on pre-existing tuples, tid → ids.
    annotation_adds: dict[int, list[str]] = field(default_factory=dict)
    #: Net annotation removals on pre-existing tuples, tid → ids.
    annotation_removes: dict[int, list[str]] = field(default_factory=dict)
    #: Pre-existing tuples the batch deletes, in event order.
    deletions: list[int] = field(default_factory=list)
    #: The original events, in order.
    events: tuple[UpdateEvent, ...] = ()
    audits: list[EventAudit] = field(default_factory=list)
    stats: PlanStats = field(default_factory=PlanStats)

    @property
    def is_empty(self) -> bool:
        """True when coalescing left nothing for the engine to do."""
        return not (self.inserts or self.annotation_adds
                    or self.annotation_removes or self.deletions)

    def live_inserts(self) -> list[PlannedInsert]:
        return [planned for planned in self.inserts if not planned.elided]


@dataclass(frozen=True)
class CompiledPrefix:
    """A batch split at its first poison event.

    ``plan`` covers the longest valid prefix (``None`` when the first
    event is the poison); ``poison`` is the event the compiler rejected
    with ``error`` (``None`` when the whole batch compiled), and
    ``tail`` holds the events after it, which were never looked at.
    """

    plan: DeltaPlan | None
    poison: UpdateEvent | None = None
    tail: tuple[UpdateEvent, ...] = ()
    error: Exception | None = None

    @property
    def applied(self) -> int:
        """Events in the valid prefix."""
        return 0 if self.plan is None else len(self.plan.events)


def compile_plan(events: Sequence[UpdateEvent],
                 *,
                 next_tid: int,
                 is_live: Callable[[int], bool],
                 annotations_of: Callable[[int], frozenset[str]] | None = None,
                 validate_row: Callable[[Sequence[str]], object] | None = None,
                 validate_annotation: Callable[[str], object] | None = None,
                 ) -> DeltaPlan:
    """Coalesce ``events`` into a :class:`DeltaPlan`.

    ``next_tid`` is the tid the next inserted tuple would receive
    (``relation.tid_range``); ``is_live(tid)`` must answer for every
    ``tid < next_tid``.  ``annotations_of(tid)``, when given, enables
    cancellation against the pre-batch state: a net "add" of a pair the
    tuple already has (or a net "remove" of a pair it lacks) is dropped
    as a no-op instead of being carried to apply time.  ``validate_row``
    is called on every inserted row and ``validate_annotation`` on
    every annotation id an attach would register, so a malformed row
    (wrong arity, empty) or a bad id fails here instead of
    mid-application; whatever they raise (e.g. ``SchemaError``,
    ``UnknownAnnotationError``) propagates unchanged, matching what
    per-event application would have raised.

    Raises :class:`DeltaPlanError` — without any side effect — whenever
    sequential per-event application would raise on one of the events;
    every error raised for an event carries its 1-based position as
    ``event_position``.
    """
    if not events:
        raise DeltaPlanError("cannot compile an empty event batch")
    plan = DeltaPlan(base_tid=next_tid, events=tuple(events))
    plan.stats.events = len(events)
    #: Last surviving op per (tid, annotation): True = add, False = remove.
    pair_ops: dict[tuple[int, str], bool] = {}
    #: tid -> its keys in ``pair_ops`` (O(pairs-on-tid) delete squash).
    pairs_by_tid: dict[int, set[tuple[int, str]]] = {}
    deleted: set[int] = set()

    def check_target(tid: int, position: int, verb: str) -> None:
        if tid in deleted:
            raise DeltaPlanError(
                f"event {position} {verb}s tuple {tid}, which an earlier "
                f"event in the same batch deleted")
        if tid >= next_tid:
            if tid >= next_tid + len(plan.inserts):
                raise DeltaPlanError(
                    f"event {position} {verb}s unknown tuple {tid}")
        elif not is_live(tid):
            raise DeltaPlanError(
                f"event {position} {verb}s tuple {tid}, which does not "
                f"exist or is deleted")

    position = 0
    try:
        for position, event in enumerate(events, start=1):
            label = event_label(event)
            coalesced = 0
            if isinstance(event, (AddAnnotatedTuples, AddUnannotatedTuples)):
                payload = len(event.rows)
                for row in event.rows:
                    if isinstance(event, AddAnnotatedTuples):
                        values, annotations = row
                    else:
                        values, annotations = row, frozenset()
                    if validate_row is not None:
                        validate_row(values)
                    if validate_annotation is not None:
                        for annotation_id in annotations:
                            validate_annotation(annotation_id)
                    plan.inserts.append(PlannedInsert(
                        tid=next_tid + len(plan.inserts),
                        values=tuple(values),
                        annotations=set(annotations)))
            elif isinstance(event, AddAnnotations):
                payload = len(event.additions)
                for tid, annotation_id in event.additions:
                    check_target(tid, position, "annotate")
                    if validate_annotation is not None:
                        validate_annotation(annotation_id)
                    if tid >= next_tid:
                        row = plan.inserts[tid - next_tid]
                        coalesced += 1
                        plan.stats.pairs_folded_into_inserts += 1
                        if annotation_id not in row.annotations:
                            row.annotations.add(annotation_id)
                        continue
                    key = (tid, annotation_id)
                    if key in pair_ops:
                        coalesced += 1
                        plan.stats.pairs_collapsed += 1
                    pair_ops[key] = True
                    pairs_by_tid.setdefault(tid, set()).add(key)
            elif isinstance(event, RemoveAnnotations):
                payload = len(event.removals)
                for tid, annotation_id in event.removals:
                    check_target(tid, position, "detache")
                    if tid >= next_tid:
                        row = plan.inserts[tid - next_tid]
                        coalesced += 1
                        plan.stats.pairs_folded_into_inserts += 1
                        row.annotations.discard(annotation_id)
                        continue
                    key = (tid, annotation_id)
                    if key in pair_ops:
                        coalesced += 1
                        plan.stats.pairs_collapsed += 1
                    pair_ops[key] = False
                    pairs_by_tid.setdefault(tid, set()).add(key)
            elif isinstance(event, RemoveTuples):
                payload = len(event.tids)
                for tid in event.tids:
                    check_target(tid, position, "delete")
                    deleted.add(tid)
                    if tid >= next_tid:
                        row = plan.inserts[tid - next_tid]
                        row.elided = True
                        coalesced += 1
                        plan.stats.inserts_elided += 1
                        continue
                    plan.deletions.append(tid)
                    # Annotation ops that preceded the delete are absorbed:
                    # the decay walk over the tuple's pre-batch item set is
                    # their exact net effect.
                    for key in pairs_by_tid.pop(tid, ()):
                        del pair_ops[key]
                        plan.stats.pairs_cancelled += 1
            else:
                raise DeltaPlanError(f"unknown update event {event!r}")
            plan.audits.append(EventAudit(
                position=position, event=label,
                payload=payload, coalesced=coalesced))
    except ReproError as error:
        # Whatever the event raised (plan, schema or annotation error)
        # names it, so a caller can split the batch around it.
        error.event_position = position
        raise

    # Net the surviving pair ops against the pre-batch state.
    for (tid, annotation_id), is_add in pair_ops.items():
        if annotations_of is not None:
            present = annotation_id in annotations_of(tid)
            if is_add == present:
                plan.stats.pairs_cancelled += 1
                continue
        bucket = (plan.annotation_adds if is_add
                  else plan.annotation_removes)
        bucket.setdefault(tid, []).append(annotation_id)
    return plan


@dataclass(frozen=True, slots=True)
class ShardPlacement:
    """Where one planned insert lands in a partitioned engine."""

    tid: int        #: Global tid the plan assigned.
    shard: int      #: Partition the tuple hashes to.
    local_tid: int  #: Tid inside that partition's relation.


def split_plan(plan: DeltaPlan,
               *,
               locate: Callable[[int], tuple[int, int]],
               place: Callable[[int], int],
               next_local_tid: Callable[[int], int],
               shard_count: int,
               ) -> tuple[list[list[UpdateEvent]], list[ShardPlacement]]:
    """Split a compiled plan into per-shard sub-plans.

    Each sub-plan is an ordered event list over the shard's *local* tid
    space, ready for that shard engine's own ``apply_batch`` (which
    re-compiles it — cheap, and it keeps every engine-level guard).
    ``locate(tid)`` maps a pre-existing global tid to ``(shard,
    local_tid)``; ``place(tid)`` picks the shard of a newly planned
    global tid; ``next_local_tid(shard)`` is the local tid the shard's
    next insert will receive.  Returns the sub-plans plus one
    :class:`ShardPlacement` per planned insert (elided ones included —
    they consume a local tid just like a global one) so the caller can
    extend its tid maps.

    The global plan is already coalesced and validated, so the split is
    a pure re-addressing pass: net annotation ops target pre-existing
    tuples only (ops on pending inserts were folded into their rows),
    and a shard's sub-plan replays insert rows, pair ops and deletions
    in the global plan's order.
    """
    inserts: list[list[tuple[tuple[str, ...], frozenset[str]]]] = \
        [[] for _ in range(shard_count)]
    adds: list[list[tuple[int, str]]] = [[] for _ in range(shard_count)]
    removes: list[list[tuple[int, str]]] = [[] for _ in range(shard_count)]
    deletions: list[list[int]] = [[] for _ in range(shard_count)]
    placements: list[ShardPlacement] = []

    pending: list[int] = [0] * shard_count
    for planned in plan.inserts:
        shard = place(planned.tid)
        if not 0 <= shard < shard_count:
            raise DeltaPlanError(
                f"partitioner placed tid {planned.tid} on shard {shard}, "
                f"outside 0..{shard_count - 1}")
        local_tid = next_local_tid(shard) + pending[shard]
        pending[shard] += 1
        placements.append(ShardPlacement(
            tid=planned.tid, shard=shard, local_tid=local_tid))
        inserts[shard].append((planned.values,
                               frozenset(planned.annotations)))
        if planned.elided:
            deletions[shard].append(local_tid)
    for tid, annotation_ids in plan.annotation_adds.items():
        shard, local_tid = locate(tid)
        adds[shard].extend((local_tid, annotation_id)
                           for annotation_id in annotation_ids)
    for tid, annotation_ids in plan.annotation_removes.items():
        shard, local_tid = locate(tid)
        removes[shard].extend((local_tid, annotation_id)
                              for annotation_id in annotation_ids)
    for tid in plan.deletions:
        shard, local_tid = locate(tid)
        deletions[shard].append(local_tid)

    sub_plans: list[list[UpdateEvent]] = []
    for shard in range(shard_count):
        events: list[UpdateEvent] = []
        if inserts[shard]:
            events.append(AddAnnotatedTuples.build(inserts[shard]))
        if adds[shard]:
            events.append(AddAnnotations.build(adds[shard]))
        if removes[shard]:
            events.append(RemoveAnnotations.build(removes[shard]))
        if deletions[shard]:
            events.append(RemoveTuples.build(deletions[shard]))
        sub_plans.append(events)
    return sub_plans, placements
