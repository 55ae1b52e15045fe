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

It also holds their one JSON wire form (:func:`event_to_json`,
:func:`event_from_json`) and the annotated-row check shared by event
and tenant-create bodies, so a server that keeps no journal never loads
:mod:`repro.core.journal`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import FormatError, MaintenanceError, ReproError
from repro.relation.relation import interned_strs


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


# -- event codec ---------------------------------------------------------------
#
# The one wire form of an update event, ``{"type": <kind>, ...payload}``:
# the journal writes it, and the server's event endpoints read it.  The
# decoder validates every field, so the caller picks the error a
# malformed event raises — FormatError (corruption) for journal
# records, ServerError (a 400) for HTTP bodies.

def event_to_json(event: UpdateEvent) -> dict:
    """One update event as a deterministic JSON-able dict."""
    if isinstance(event, AddAnnotatedTuples):
        return {"type": "add_annotated_tuples",
                "rows": [[list(values), sorted(annotations)]
                         for values, annotations in event.rows]}
    if isinstance(event, AddUnannotatedTuples):
        return {"type": "add_unannotated_tuples",
                "rows": [list(values) for values in event.rows]}
    if isinstance(event, AddAnnotations):
        return {"type": "add_annotations",
                "additions": [[tid, annotation]
                              for tid, annotation in event.additions]}
    if isinstance(event, RemoveAnnotations):
        return {"type": "remove_annotations",
                "removals": [[tid, annotation]
                             for tid, annotation in event.removals]}
    if isinstance(event, RemoveTuples):
        return {"type": "remove_tuples", "tids": list(event.tids)}
    raise MaintenanceError(f"cannot encode unknown event {event!r}")


def _pairs(raw: object, noun: str,
           error: type[ReproError]) -> list[tuple[int, str]]:
    if not isinstance(raw, list):
        raise error(f"{noun} must be a list of [tid, annotation] "
                    f"pairs, got {type(raw).__name__}")
    pairs = []
    for entry in raw:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], str)):
            raise error(
                f"each {noun} entry must be [tid:int, annotation:str], "
                f"got {entry!r}")
        pairs.append((entry[0], entry[1]))
    return pairs


def annotated_row(entry: object, error: type[ReproError]
                  ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Check one ``[[value, ...], [annotation, ...]]`` row and return it
    as ``(values, annotations)`` tuples of interned strings, the form
    :meth:`AnnotatedRelation.insert_many` keeps."""
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not isinstance(entry[0], (list, tuple))
            or not isinstance(entry[1], (list, tuple))):
        raise error(
            f"each row must be [[value, ...], [annotation, ...]], "
            f"got {entry!r}")
    values, annotations = entry
    return interned_strs(values), interned_strs(annotations)


def annotated_rows(raw: object, error: type[ReproError]
                   ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Check and yield each row of the list ``raw`` as
    :func:`annotated_row` does, one row at a time: a consumer such as
    :meth:`AnnotatedRelation.insert_many` never holds a second copy of
    the batch.  ``raw`` is left as it was."""
    if not isinstance(raw, list):
        raise error(f"rows must be a list, got {type(raw).__name__}")
    for entry in raw:
        yield annotated_row(entry, error)


def event_from_json(obj: object, error: type[ReproError] = FormatError
                    ) -> UpdateEvent:
    """Decode one update event from its wire form.

    Anything malformed raises ``error``: an envelope that is not an
    object, an unknown ``type``, a field the type does not take, a
    payload of the wrong shape, and an event the constructors reject
    (e.g. an empty batch).
    """
    if not isinstance(obj, dict):
        raise error(f"event must be a JSON object, "
                    f"got {type(obj).__name__}")
    kind = obj.get("type")
    payload = {key: value for key, value in obj.items() if key != "type"}

    def _only(*fields: str) -> None:
        extra = sorted(set(payload) - set(fields))
        if extra:
            raise error(
                f"unexpected field(s) {', '.join(extra)} for event "
                f"type {kind!r}")

    try:
        if kind == "add_annotations":
            _only("additions")
            return AddAnnotations.build(
                _pairs(payload.get("additions"), "additions", error))
        if kind == "remove_annotations":
            _only("removals")
            return RemoveAnnotations.build(
                _pairs(payload.get("removals"), "removals", error))
        if kind == "add_annotated_tuples":
            _only("rows")
            return AddAnnotatedTuples.build(
                annotated_rows(payload.get("rows"), error))
        if kind == "add_unannotated_tuples":
            _only("rows")
            raw = payload.get("rows")
            if not isinstance(raw, list) or not all(
                    isinstance(row, (list, tuple)) for row in raw):
                raise error("rows must be a list of [value, ...] lists")
            return AddUnannotatedTuples.build(
                [[str(value) for value in row] for row in raw])
        if kind == "remove_tuples":
            _only("tids")
            raw = payload.get("tids")
            if not isinstance(raw, list) or not all(
                    isinstance(tid, int) for tid in raw):
                raise error("tids must be a list of integers")
            return RemoveTuples.build(raw)
    except MaintenanceError as failure:
        raise error(f"invalid {kind} event: {failure}") from None
    raise error(
        f"unknown event type {kind!r}; expected one of add_annotations, "
        f"remove_annotations, add_annotated_tuples, "
        f"add_unannotated_tuples, remove_tuples")
