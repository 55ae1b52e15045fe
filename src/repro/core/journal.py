"""Write-ahead event journal: durable flushes, point-in-time recovery.

The paper's future work moves the incremental maintainer "into an
actual database management system"; a database that forgets its write
history on a crash is not one.  This module is the durability tier the
serving stack flushes through:

* :class:`EventJournal` — one append-only file of length-prefixed,
  CRC-checksummed JSON records.  Every record is written in a single
  ``write()`` + ``flush`` + ``fsync`` before the engine mutates, so an
  acknowledged flush survives any crash.  Opening a journal scans it
  and truncates a torn tail (a record cut short by a crash mid-append)
  — a *mid-file* checksum mismatch, which no crash can produce, is
  corruption and raises :class:`~repro.errors.FormatError` instead;
* :class:`JournalStore` — a journal plus its periodic compacted
  snapshots (persistence format v4) in one directory.  Snapshot writes
  are atomic (tmp + fsync + rename + directory fsync), so the store
  always holds at least one loadable base state;
* :func:`JournalStore.recover` — latest snapshot at-or-before the
  requested sequence + replay of the journal suffix through the
  delta-plan compiler.  ``upto`` gives point-in-time recovery to any
  journaled flush boundary still covered by a retained snapshot.

Replay commits each record the way a live flush does: the record's
longest valid prefix applies as one batch.  A live flush journals only
that prefix, so every record it writes replays whole; a record written
before it did holds the submitted batch, and replay applies its prefix
and *skips* the poison event and the rest — live, the rest was
re-queued and therefore appears again in a later journal record.

Crash injection hooks: both classes accept a ``fault_hook`` callable
invoked with a named fault point (``"journal.append"``,
``"snapshot.written"``, ``"snapshot.renamed"``, ``"compact.trim"``).
A hook may raise to simulate a crash at that point; for
``"journal.append"`` it may instead return a byte budget, in which
case only that many bytes of the record are written (and flushed)
before :class:`CrashInjected` is raised — a genuinely torn tail on
disk, exactly what a power cut mid-``write`` leaves behind.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro._util import fsync_directory
from repro.core.engine import CorrelationEngine
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
    UpdateEvent,
)
from repro.errors import FormatError, MaintenanceError, ReproError
from repro.relation.relation import interned_strs

#: File magic: identifies a journal and its record format revision.
MAGIC = b"RPJRNL1\n"
#: Per-record header: payload length + CRC32 of the payload, both LE.
_HEADER = struct.Struct("<II")
#: Snapshot files are ``snapshot-<zero-padded seq>.json``.
_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{10})\.json$")
WAL_NAME = "events.wal"

#: Named fault points a crash-injection hook is called at.
FAULT_POINTS = ("journal.append", "snapshot.written",
                "snapshot.renamed", "compact.trim")

FaultHook = Callable[[str], int | None]


class CrashInjected(RuntimeError):
    """Raised by the crash-injection plumbing, never by real operation.

    Tests install a ``fault_hook`` that raises this (or returns a byte
    budget for a torn ``journal.append``); production code never sees
    it.
    """


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
    raise MaintenanceError(f"cannot journal unknown event {event!r}")


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


# -- records -------------------------------------------------------------------

@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    seq: int
    #: ``"batch"`` (a flushed event batch) or ``"mine"`` (a full
    #: re-mine boundary — replay runs ``engine.mine()``).
    kind: str
    events: tuple[UpdateEvent, ...] = ()
    #: Byte offset of the record header in the journal file.
    offset: int = 0


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file."""

    records: tuple[JournalRecord, ...]
    #: Bytes up to and including the last valid record.
    valid_bytes: int
    #: Bytes past ``valid_bytes`` that form a torn (incomplete) tail.
    torn_bytes: int

    @property
    def last_seq(self) -> int:
        """Seq of the newest record (0 = none on disk)."""
        return self.records[-1].seq if self.records else 0

    @property
    def floor_seq(self) -> int:
        """Seq of the record before the first on-disk one — the
        compaction floor (records below it were trimmed)."""
        return self.records[0].seq - 1 if self.records else 0


def _decode_payload(payload: bytes, offset: int,
                    previous_seq: int | None) -> JournalRecord:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise FormatError(f"journal record at byte {offset} is not "
                          f"valid JSON: {error}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"journal record at byte {offset} is not "
                          f"an object")
    seq = doc.get("seq")
    kind = doc.get("kind")
    if not isinstance(seq, int) or seq < 1:
        raise FormatError(f"journal record at byte {offset} has "
                          f"invalid seq {seq!r}")
    if previous_seq is not None and seq != previous_seq + 1:
        raise FormatError(
            f"journal sequence break at byte {offset}: record {seq} "
            f"follows {previous_seq}")
    if kind == "batch":
        events = tuple(event_from_json(entry)
                       for entry in doc.get("events", ()))
        if not events:
            raise FormatError(f"journal batch record {seq} carries "
                              f"no events")
        return JournalRecord(seq=seq, kind="batch", events=events,
                             offset=offset)
    if kind == "mine":
        return JournalRecord(seq=seq, kind="mine", offset=offset)
    raise FormatError(f"journal record {seq} has unknown kind {kind!r}")


def scan_journal(path: str | os.PathLike, *,
                 start_seq: int | None = None) -> JournalScan:
    """Scan a journal file, validating every record.

    A tail that stops mid-record (header or payload cut short, or a
    checksum/parse failure on the *final* record — what a crash during
    append leaves) is reported as ``torn_bytes``, not an error.  The
    same damage anywhere *before* the final record cannot be produced
    by an append crash and raises :class:`FormatError`.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(MAGIC):
        if MAGIC.startswith(blob):
            # A crash while writing the magic of a brand-new journal:
            # nothing was ever appended, the whole file is a torn tail.
            return JournalScan(records=(), valid_bytes=0,
                               torn_bytes=len(blob))
        raise FormatError(
            f"{os.fspath(path)!r} is not an event journal "
            f"(bad magic {blob[:8]!r})")
    records: list[JournalRecord] = []
    offset = len(MAGIC)
    previous = None if start_seq is None else start_seq
    size = len(blob)

    def torn() -> JournalScan:
        return JournalScan(records=tuple(records), valid_bytes=offset,
                           torn_bytes=size - offset)

    while offset < size:
        if size - offset < _HEADER.size:
            return torn()
        length, crc = _HEADER.unpack_from(blob, offset)
        end = offset + _HEADER.size + length
        if end > size:
            return torn()
        payload = blob[offset + _HEADER.size:end]
        at_tail = end == size
        if zlib.crc32(payload) != crc:
            if at_tail:
                return torn()
            raise FormatError(
                f"journal checksum mismatch at byte {offset} with "
                f"{size - end} valid bytes following — file corrupted")
        try:
            record = _decode_payload(payload, offset, previous)
        except FormatError:
            if at_tail:
                # The checksum matched but the content does not parse
                # or continue the sequence: on the final record this is
                # still recoverable-by-truncation (e.g. a torn write
                # that happened to checksum), so prefer recovery.
                return torn()
            raise
        records.append(record)
        previous = record.seq
        offset = end
    return JournalScan(records=tuple(records), valid_bytes=offset,
                       torn_bytes=0)


# -- the journal file ----------------------------------------------------------

class EventJournal:
    """Append-only, checksummed, fsync'd journal of update batches."""

    def __init__(self, path: str | os.PathLike, *,
                 fsync: bool = True,
                 fault_hook: FaultHook | None = None) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self.fault_hook = fault_hook
        #: Bytes of torn tail truncated when the journal was opened.
        self.truncated_bytes = 0
        if os.path.exists(self.path):
            scan = scan_journal(self.path)
            if scan.torn_bytes:
                with open(self.path, "rb+") as handle:
                    handle.truncate(scan.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.truncated_bytes = scan.torn_bytes
            self._last_seq = scan.last_seq
            self._floor_seq = scan.floor_seq
            self._handle = open(self.path, "ab")
            if scan.valid_bytes == 0:
                self._handle.write(MAGIC)
                self._handle.flush()
                os.fsync(self._handle.fileno())
        else:
            self._last_seq = 0
            self._floor_seq = 0
            self._handle = open(self.path, "ab")
            self._handle.write(MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._dirty = False

    # -- write side ------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 = none)."""
        return self._last_seq

    @property
    def floor_seq(self) -> int:
        """Records with seq <= this were compacted out of the file."""
        return self._floor_seq

    def advance_to(self, seq: int) -> None:
        """Move an empty journal's sequence floor forward.

        A compaction can trim *every* record (they are all covered by
        the retained snapshot), after which the file itself carries no
        sequence state — the store re-anchors the counter here from
        its newest snapshot so appends continue the global sequence
        instead of restarting at 1.
        """
        if seq <= self._last_seq:
            return
        if self._last_seq != self._floor_seq:
            raise FormatError(
                f"cannot advance journal {self.path!r} to seq {seq}: "
                f"it still holds records up to {self._last_seq}")
        self._last_seq = seq
        self._floor_seq = seq

    def append_batch(self, events: Sequence[UpdateEvent]) -> int:
        """Durably append one flush batch; returns its sequence."""
        if not events:
            raise MaintenanceError("cannot journal an empty batch")
        return self._append({
            "seq": self._last_seq + 1,
            "kind": "batch",
            "events": [event_to_json(event) for event in events],
        })

    def append_mine(self) -> int:
        """Durably append a re-mine boundary; returns its sequence."""
        return self._append({"seq": self._last_seq + 1, "kind": "mine"})

    def _append(self, document: dict) -> int:
        payload = json.dumps(document, separators=(",", ":"),
                             sort_keys=True).encode("utf-8")
        blob = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        budget = self._fault("journal.append")
        if budget is not None and budget < len(blob):
            # Simulate a crash mid-write: persist a genuinely torn
            # record, then die.  The partial bytes are flushed so the
            # tear is really on disk for the re-open to truncate.
            self._handle.write(blob[:budget])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise CrashInjected(
                f"torn journal append: {budget} of {len(blob)} bytes")
        self._handle.write(blob)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
            self._dirty = False
        else:
            self._dirty = True
        self._last_seq = document["seq"]
        return self._last_seq

    def sync(self) -> None:
        """Force every appended record onto disk (no-op when clean).

        With ``fsync=False`` appends only reach the OS; :meth:`close`,
        :meth:`records` and ``CorrelationService.close`` call this so
        deferred records are on disk before the journal is closed or
        re-read.
        """
        if self._dirty:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._dirty = False

    def close(self) -> None:
        if not self._handle.closed:
            self.sync()
            self._handle.close()

    # -- read side -------------------------------------------------------------

    def records(self, *, after: int = 0,
                tolerate_torn_tail: bool = False
                ) -> Iterator[JournalRecord]:
        """Records with ``seq > after``, re-read from disk.

        ``tolerate_torn_tail=True`` stops silently at an incomplete
        tail instead of raising — for readers (compaction) that keep
        only whole records anyway, where a half-written final record is
        an interrupted append, not damage.
        """
        self.sync()
        scan = scan_journal(self.path)
        if scan.torn_bytes and not tolerate_torn_tail:
            raise FormatError(
                f"journal {self.path!r} has a {scan.torn_bytes}-byte "
                f"torn tail — reopen it to truncate and recover")
        for record in scan.records:
            if record.seq > after:
                yield record

    # -- plumbing --------------------------------------------------------------

    def _fault(self, point: str) -> int | None:
        if self.fault_hook is not None:
            return self.fault_hook(point)
        return None


# -- replay --------------------------------------------------------------------

@dataclass
class ReplayStats:
    """What a replay pass did."""

    records: int = 0
    events: int = 0
    mines: int = 0
    #: Batch records replay could not apply whole (a poison event, or
    #: a failure repaired by a re-mine).
    poisoned: int = 0


def replay_into(engine: CorrelationEngine,
                records: Iterable[JournalRecord]) -> ReplayStats:
    """Apply journal records to ``engine``, mirroring flush semantics.

    Each batch record goes through the same commit step as a live
    flush (:meth:`~repro.core.engine.CorrelationEngine.compile_prefix`):
    the valid prefix applies as one batch and the rest is skipped (see
    the module docstring for why that matches older journals too).  A
    record no event of which can apply (stale or unmined engine) is
    skipped whole.  A failure that mutated mid-batch is repaired the
    way the live system's version guard forces: a full re-mine (the
    live operator had to ``mine()`` before further updates too, which
    journaled a ``mine`` record).
    """
    stats = ReplayStats()
    for record in records:
        stats.records += 1
        if record.kind == "mine":
            engine.mine()
            stats.mines += 1
            continue
        stats.events += len(record.events)
        version_before = engine.relation.version
        try:
            prefix = engine.compile_prefix(record.events)
            if prefix.plan is not None:
                engine.apply_plan(prefix.plan)
        except Exception:
            stats.poisoned += 1
            if engine.relation.version != version_before:
                engine.mine()
            continue
        if prefix.poison is not None:
            stats.poisoned += 1
    return stats


# -- the store: journal + snapshots --------------------------------------------

def list_snapshots(directory: str | os.PathLike) -> list[tuple[int, str]]:
    """``(seq, path)`` of every snapshot file in a store directory,
    oldest first (a read-only listing; opens nothing)."""
    directory = os.fspath(directory)
    found = []
    for name in os.listdir(directory):
        match = _SNAPSHOT_NAME.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return sorted(found)


@dataclass
class RecoveryResult:
    """Outcome of :meth:`JournalStore.recover`."""

    engine: CorrelationEngine
    #: Seq of the snapshot the recovery started from.
    snapshot_seq: int
    #: Seq of the last record replayed (== snapshot_seq when none).
    last_seq: int
    replay: ReplayStats = field(default_factory=ReplayStats)
    #: Torn-tail bytes truncated since the store was opened.
    truncated_bytes: int = 0


class JournalStore:
    """One session's durability directory: ``events.wal`` + snapshots.

    Layout::

        <directory>/events.wal          append-only journal
        <directory>/snapshot-NNNNNNNNNN.json   state at journal seq N

    The store is created with a *base* snapshot (seq = the journal's
    current tail, usually 0) the first time an engine attaches, so
    every recovery has a floor to replay from.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 fsync: bool = True,
                 snapshot_every: int | None = None,
                 fault_hook: FaultHook | None = None) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise MaintenanceError(
                f"snapshot_every must be >= 1 or None, "
                f"got {snapshot_every}")
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.fault_hook = fault_hook
        self.journal = EventJournal(
            os.path.join(self.directory, WAL_NAME),
            fsync=fsync, fault_hook=fault_hook)
        #: Torn-tail bytes truncated by every journal open since the
        #: store was opened (the constructor's open included).
        self.truncated_bytes = self.journal.truncated_bytes
        self._align_journal()

    def _align_journal(self) -> None:
        """Re-anchor the journal sequence from the newest snapshot.

        A fully-trimmed journal (compaction retained no records) holds
        no sequence state of its own; without this, reopening it would
        restart appends at seq 1 and collide with compacted history.
        A *non-empty* journal whose tail is still behind the newest
        snapshot means acknowledged records were lost (only possible
        with ``fsync=False``) — refuse rather than reuse sequences.
        """
        snapshots = self.snapshots()
        if not snapshots:
            return
        newest = snapshots[-1][0]
        if newest <= self.journal.last_seq:
            return
        if self.journal.last_seq != self.journal.floor_seq:
            raise FormatError(
                f"journal store {self.directory!r} is inconsistent: "
                f"snapshot-{newest:010d}.json is newer than the "
                f"journal tail (seq {self.journal.last_seq}) — "
                f"journaled records were lost")
        self.journal.advance_to(newest)

    # -- journal pass-through --------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self.journal.last_seq

    def append_batch(self, events: Sequence[UpdateEvent]) -> int:
        return self.journal.append_batch(events)

    def append_mine(self) -> int:
        return self.journal.append_mine()

    def records(self, *, after: int = 0,
                tolerate_torn_tail: bool = False
                ) -> Iterator[JournalRecord]:
        return self.journal.records(after=after,
                                    tolerate_torn_tail=tolerate_torn_tail)

    def sync(self) -> None:
        self.journal.sync()

    def close(self) -> None:
        self.journal.close()

    # -- snapshots -------------------------------------------------------------

    def snapshot_path(self, seq: int) -> str:
        return os.path.join(self.directory, f"snapshot-{seq:010d}.json")

    def snapshots(self) -> list[tuple[int, str]]:
        """``(seq, path)`` of every snapshot file, oldest first."""
        return list_snapshots(self.directory)

    @property
    def has_snapshot(self) -> bool:
        return bool(self.snapshots())

    def write_snapshot(self, engine: CorrelationEngine, seq: int) -> str:
        """Atomically persist the engine's state as of journal ``seq``.

        tmp-write + fsync + rename + directory fsync: a crash at any
        point leaves either no snapshot (a stale ``.tmp`` is ignored
        by :meth:`snapshots`) or the complete one — never a torn file.
        """
        from repro.core import persistence  # local: persistence imports shard

        path = self.snapshot_path(seq)
        tmp = path + ".tmp"
        persistence.write_synced(engine, tmp, journal_seq=seq)
        self._fault("snapshot.written")
        os.replace(tmp, path)
        self._fault("snapshot.renamed")
        fsync_directory(self.directory)
        return path

    def ensure_base_snapshot(self, engine: CorrelationEngine) -> bool:
        """Write the initial snapshot if the store has none yet."""
        if self.has_snapshot:
            return False
        self.write_snapshot(engine, self.journal.last_seq)
        return True

    def maybe_snapshot(self, engine: CorrelationEngine,
                       seq: int) -> bool:
        """Periodic compaction point: snapshot once ``snapshot_every``
        records accumulated past the newest snapshot."""
        if self.snapshot_every is None:
            return False
        snapshots = self.snapshots()
        newest = snapshots[-1][0] if snapshots else 0
        if seq - newest < self.snapshot_every:
            return False
        self.write_snapshot(engine, seq)
        return True

    def compact(self, engine: CorrelationEngine, seq: int, *,
                keep_snapshots: int = 2) -> int:
        """Snapshot at ``seq``, prune old snapshots, trim the journal.

        Keeps the newest ``keep_snapshots`` snapshot files and every
        journal record newer than the *oldest retained* snapshot — so
        point-in-time recovery still reaches any seq at or above that
        floor.  Returns the number of journal records trimmed.

        Order matters for crash safety: the new snapshot lands first
        (atomic), snapshot pruning is per-file atomic, and the journal
        rewrite is tmp + rename — a crash between any two steps leaves
        a recoverable store, at worst with extra history.
        """
        if keep_snapshots < 1:
            raise MaintenanceError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self.write_snapshot(engine, seq)
        snapshots = self.snapshots()
        for old_seq, path in snapshots[:-keep_snapshots]:
            os.remove(path)
        floor = self.snapshots()[0][0]
        retained = [record for record
                    in self.records(tolerate_torn_tail=True)
                    if record.seq > floor]
        trimmed = ((self.journal.last_seq - self.journal.floor_seq)
                   - len(retained))
        if trimmed <= 0:
            return 0
        self._rewrite_journal(retained)
        return trimmed

    def _rewrite_journal(self, records: list[JournalRecord]) -> None:
        tmp = self.journal.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            for record in records:
                document: dict = {"seq": record.seq, "kind": record.kind}
                if record.kind == "batch":
                    document["events"] = [event_to_json(event)
                                          for event in record.events]
                payload = json.dumps(document, separators=(",", ":"),
                                     sort_keys=True).encode("utf-8")
                handle.write(_HEADER.pack(len(payload),
                                          zlib.crc32(payload)) + payload)
            handle.flush()
            os.fsync(handle.fileno())
        self._fault("compact.trim")
        self.journal.close()
        os.replace(tmp, self.journal.path)
        fsync_directory(self.directory)
        self.journal = EventJournal(self.journal.path,
                                    fsync=self.journal._fsync,
                                    fault_hook=self.fault_hook)
        self._align_journal()

    # -- recovery --------------------------------------------------------------

    def recover(self, *, upto: int | None = None,
                generalizer=None) -> RecoveryResult:
        """Rebuild an engine: newest usable snapshot + journal replay.

        ``upto`` recovers the state as of journal sequence ``upto``
        (point-in-time); the default replays everything durable.  The
        snapshot chosen is the newest with seq <= the target; if it
        fails to load (bit rot — the write path can't tear one), older
        snapshots are tried before giving up.
        """
        from repro.core import persistence  # local: persistence imports shard

        # Re-scan by reopening: truncates any torn tail first.
        fsync = self.journal._fsync
        self.journal.close()
        self.journal = EventJournal(
            self.journal.path, fsync=fsync, fault_hook=self.fault_hook)
        self.truncated_bytes += self.journal.truncated_bytes
        self._align_journal()

        target = self.journal.last_seq if upto is None else upto
        if upto is not None and upto < self.journal.floor_seq:
            raise FormatError(
                f"cannot recover to seq {upto}: journal records at or "
                f"below {self.journal.floor_seq} were compacted away")
        candidates = [(seq, path) for seq, path in self.snapshots()
                      if seq <= target]
        if not candidates:
            raise FormatError(
                f"journal store {self.directory!r} has no snapshot at "
                f"or before seq {target} — nothing to recover from")
        errors: list[str] = []
        for seq, path in reversed(candidates):
            try:
                document = persistence.read(path)
                saved_seq = snapshot_journal_seq(document)
                if saved_seq is not None and saved_seq != seq:
                    raise FormatError(
                        f"snapshot {path!r} claims journal seq "
                        f"{saved_seq}, filename says {seq}")
                engine = persistence.restore(document,
                                             generalizer=generalizer)
            except (OSError, ValueError, FormatError) as error:
                errors.append(f"{os.path.basename(path)}: {error}")
                continue
            records = [record for record in self.records()
                       if seq < record.seq <= target]
            stats = replay_into(engine, records)
            return RecoveryResult(
                engine=engine, snapshot_seq=seq,
                last_seq=records[-1].seq if records else seq,
                replay=stats, truncated_bytes=self.truncated_bytes)
        raise FormatError(
            f"no snapshot in {self.directory!r} restores cleanly: "
            f"{'; '.join(errors)}")

    def status(self) -> dict:
        """Operational summary (CLI ``journal`` and tenant status)."""
        snapshots = self.snapshots()
        return {
            "directory": self.directory,
            "last_seq": self.journal.last_seq,
            "floor_seq": self.journal.floor_seq,
            "snapshots": [seq for seq, _path in snapshots],
            "truncated_bytes": self.truncated_bytes,
        }

    # -- plumbing --------------------------------------------------------------

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)


def snapshot_journal_seq(document: dict) -> int | None:
    """The journal sequence a v4 snapshot was taken at (None if the
    document predates format v4 or was saved outside a store)."""
    journal = document.get("journal")
    if journal is None:
        return None
    seq = journal.get("seq") if isinstance(journal, dict) else None
    if not isinstance(seq, int) or seq < 0:
        raise FormatError(
            f"snapshot journal key is malformed: {journal!r}")
    return seq


__all__ = [
    "CrashInjected",
    "EventJournal",
    "FAULT_POINTS",
    "JournalRecord",
    "JournalScan",
    "JournalStore",
    "RecoveryResult",
    "ReplayStats",
    "WAL_NAME",
    "annotated_row",
    "annotated_rows",
    "event_from_json",
    "event_to_json",
    "list_snapshots",
    "replay_into",
    "scan_journal",
    "snapshot_journal_seq",
]
