"""Workload inputs generated from the seed, and stationary event streams.

The benchmark, not the program, generates the events.  They must keep
the data stationary, or a run measures a different relation at its end
than at its start: the default ``EventStream`` at fig7 scale grows the
relation several-fold and dissolves the planted rules.  So here

* inserted rows are drawn from the workload's own synthetic
  configuration (a second relation generated by the same
  ``repro.synth`` workload under a derived seed), and every insert is
  balanced by the removal of a random live tuple, keeping ``db_size``
  within one tuple of its start;
* annotation removals detach a pair the tuple carries, and annotation
  adds re-attach a previously detached pair, so the joint distribution
  of values and annotations never drifts.

Every choice comes from one seeded :class:`random.Random`: the same seed
yields the same event sequence however many batches a run consumes.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
    UpdateEvent,
)
from repro.relation.relation import AnnotatedRelation

Row = tuple[tuple[str, ...], tuple[str, ...]]

#: Added to the run's seed for the insert-row pool and the stream.
POOL_SEED_OFFSET = 1_000_003
STREAM_SEED_OFFSET = 2_000_029

#: Detached (tid, annotation) pairs held back before re-attaching is
#: forced; bounds how far the relation strays from its start.
MAX_DETACHED = 64

#: Share of events that insert or delete a tuple (half each); the rest
#: detach or re-attach annotations, the paper's Case 3.  Kept small
#: because every insert takes a fresh tid, so tuple churn lengthens
#: every bitmap even though ``db_size`` stays put.
TUPLE_CHURN = 0.2


def rows_of(relation: AnnotatedRelation) -> list[Row]:
    """The relation's live rows as ``(values, sorted annotations)``."""
    return [(tuple(row.values), tuple(sorted(row.annotation_ids)))
            for row in relation]


def relation_from_rows(rows: list[Row]) -> AnnotatedRelation:
    """Build a relation the way the server's tenant create does, so an
    in-process oracle interns items in the server's order."""
    relation = AnnotatedRelation()
    for values, annotations in rows:
        relation.insert(list(values), list(annotations))
    return relation


@dataclass
class Inputs:
    """One workload's generated inputs (built outside every timer)."""

    rows: list[Row]
    insert_pool: list[Row]
    stream_seed: int


def make_inputs(generate: Callable, n_tuples: int, seed: int, *,
                data_seed: int | None = None) -> Inputs:
    """``generate`` is a ``repro.synth.workloads`` constructor.

    The initial relation is the constructor's own (``data_seed=None``
    keeps its default seed), so every run starts from the same data;
    the run's ``seed`` draws the insert pool and the event stream.  A
    relation re-drawn per seed moved mining and flush costs by more
    than the run-to-run noise of the machine.
    """
    relation = (generate(n_tuples) if data_seed is None
                else generate(n_tuples, seed=data_seed)).relation
    return Inputs(
        rows=rows_of(relation),
        insert_pool=rows_of(generate(max(1, n_tuples // 2),
                                     seed=seed + POOL_SEED_OFFSET).relation),
        stream_seed=seed + STREAM_SEED_OFFSET)


class StationaryStream:
    """Seeded single-item update events against a shadow of the relation.

    The shadow tracks live tids, each tuple's annotations and the next
    tid the engine will assign, so every event is valid when the events
    are applied in the order they were drawn.
    """

    def __init__(self, rows: list[Row], insert_pool: list[Row], *,
                 seed: int) -> None:
        self._rng = random.Random(seed)
        self._pool = insert_pool
        self._drawn_rows = 0
        self._live = list(range(len(rows)))
        self._slot = {tid: tid for tid in self._live}
        self._annotations = {tid: list(annotations)
                             for tid, (_values, annotations)
                             in enumerate(rows)}
        self._target = len(rows)
        self._next_tid = len(rows)
        self._detached: deque[tuple[int, str]] = deque()

    def batch(self, size: int) -> list[UpdateEvent]:
        return [self._event() for _ in range(size)]

    def _event(self) -> UpdateEvent:
        rng = self._rng
        if rng.random() < TUPLE_CHURN:
            live = len(self._live)
            grow = (rng.random() < 0.5 if live == self._target
                    else live < self._target)
            return self._insert() if grow else self._delete()
        if self._detached and (len(self._detached) >= MAX_DETACHED
                               or rng.random() < 0.5):
            event = self._reattach()
            if event is not None:
                return event
        return self._detach()

    def _insert(self) -> UpdateEvent:
        values, annotations = self._pool[self._drawn_rows % len(self._pool)]
        self._drawn_rows += 1
        tid = self._next_tid
        self._next_tid += 1
        self._slot[tid] = len(self._live)
        self._live.append(tid)
        self._annotations[tid] = list(annotations)
        if annotations:
            return AddAnnotatedTuples.build([(values, annotations)])
        return AddUnannotatedTuples.build([values])

    def _delete(self) -> UpdateEvent:
        tid = self._live[self._rng.randrange(len(self._live))]
        last = self._live.pop()
        if last != tid:
            self._live[self._slot[tid]] = last
            self._slot[last] = self._slot[tid]
        del self._slot[tid]
        del self._annotations[tid]
        return RemoveTuples.build([tid])

    def _detach(self) -> UpdateEvent:
        while True:
            tid = self._live[self._rng.randrange(len(self._live))]
            annotations = self._annotations[tid]
            if annotations:
                break
        annotation = annotations.pop(self._rng.randrange(len(annotations)))
        self._detached.append((tid, annotation))
        return RemoveAnnotations.build([(tid, annotation)])

    def _reattach(self) -> UpdateEvent | None:
        while self._detached:
            tid, annotation = self._detached.popleft()
            if tid in self._slot:  # its tuple may have been deleted since
                self._annotations[tid].append(annotation)
                return AddAnnotations.build([(tid, annotation)])
        return None
