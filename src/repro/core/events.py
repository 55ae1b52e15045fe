"""Update events — the paper's three cases plus the future-work pair.

Every mutation of an annotated database flows through one of these
events so the manager can route it to the matching incremental
algorithm:

* :class:`AddAnnotatedTuples`    — Case 1 (FUP-style increment mining);
* :class:`AddUnannotatedTuples`  — Case 2 (counts of annotation patterns
  frozen; supports dilute);
* :class:`AddAnnotations`        — Case 3, the paper's main contribution
  (the δ batch of ``(tid, annotation)`` pairs);
* :class:`RemoveAnnotations`, :class:`RemoveTuples` — the deletion
  support the paper lists as future work, implemented as an extension.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import MaintenanceError


@dataclass(frozen=True, slots=True)
class AddAnnotatedTuples:
    """Case 1: new tuples that arrive already carrying annotations."""

    rows: tuple[tuple[tuple[str, ...], frozenset[str]], ...]

    @classmethod
    def build(cls, rows: Iterable[tuple[Sequence[str], Iterable[str]]]
              ) -> "AddAnnotatedTuples":
        packed = tuple((tuple(str(value) for value in values),
                        frozenset(annotations))
                       for values, annotations in rows)
        return cls(packed)

    def __post_init__(self) -> None:
        if not self.rows:
            raise MaintenanceError("AddAnnotatedTuples needs at least one row")


@dataclass(frozen=True, slots=True)
class AddUnannotatedTuples:
    """Case 2: new tuples without any annotations."""

    rows: tuple[tuple[str, ...], ...]

    @classmethod
    def build(cls, rows: Iterable[Sequence[str]]) -> "AddUnannotatedTuples":
        return cls(tuple(tuple(str(value) for value in values)
                         for values in rows))

    def __post_init__(self) -> None:
        if not self.rows:
            raise MaintenanceError(
                "AddUnannotatedTuples needs at least one row")


@dataclass(frozen=True, slots=True)
class AddAnnotations:
    """Case 3: the δ batch — new annotations on existing tuples.

    This is the file format of the paper's Figure 14 (``150: Annot_3``)
    lifted into an event.  Duplicate pairs are collapsed; attaching an
    annotation a tuple already has is a silent no-op at apply time (the
    paper counts each (tuple, annotation) pair at most once).
    """

    additions: tuple[tuple[int, str], ...]

    @classmethod
    def build(cls, additions: Iterable[tuple[int, str]]) -> "AddAnnotations":
        seen: set[tuple[int, str]] = set()
        packed: list[tuple[int, str]] = []
        for tid, annotation_id in additions:
            pair = (int(tid), str(annotation_id))
            if pair not in seen:
                seen.add(pair)
                packed.append(pair)
        return cls(tuple(packed))

    def __post_init__(self) -> None:
        if not self.additions:
            raise MaintenanceError("AddAnnotations needs at least one pair")

    def by_tid(self) -> dict[int, list[str]]:
        grouped: dict[int, list[str]] = {}
        for tid, annotation_id in self.additions:
            grouped.setdefault(tid, []).append(annotation_id)
        return grouped


@dataclass(frozen=True, slots=True)
class RemoveAnnotations:
    """Future-work extension: detach annotations from tuples."""

    removals: tuple[tuple[int, str], ...]

    @classmethod
    def build(cls, removals: Iterable[tuple[int, str]]) -> "RemoveAnnotations":
        return cls(tuple((int(tid), str(annotation_id))
                         for tid, annotation_id in dict.fromkeys(
                             (int(tid), str(annotation_id))
                             for tid, annotation_id in removals)))

    def __post_init__(self) -> None:
        if not self.removals:
            raise MaintenanceError("RemoveAnnotations needs at least one pair")

    def by_tid(self) -> dict[int, list[str]]:
        grouped: dict[int, list[str]] = {}
        for tid, annotation_id in self.removals:
            grouped.setdefault(tid, []).append(annotation_id)
        return grouped


@dataclass(frozen=True, slots=True)
class RemoveTuples:
    """Future-work extension: delete whole tuples."""

    tids: tuple[int, ...]

    @classmethod
    def build(cls, tids: Iterable[int]) -> "RemoveTuples":
        return cls(tuple(dict.fromkeys(int(tid) for tid in tids)))

    def __post_init__(self) -> None:
        if not self.tids:
            raise MaintenanceError("RemoveTuples needs at least one tid")


#: Union of every event the manager accepts.
UpdateEvent = (AddAnnotatedTuples | AddUnannotatedTuples | AddAnnotations
               | RemoveAnnotations | RemoveTuples)

