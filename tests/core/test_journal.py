"""Unit tests for the write-ahead event journal file format.

The format's whole contract is in three behaviors: records round-trip
exactly, a torn tail (what a crash mid-append leaves) is truncated on
open, and the same damage anywhere *before* the tail — which no append
crash can produce — is corruption and refuses loudly.
"""

import json
import struct
import zlib

import pytest

from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.core.journal import (
    MAGIC,
    CrashInjected,
    EventJournal,
    event_from_json,
    event_to_json,
    scan_journal,
)
from repro.errors import FormatError, MaintenanceError, ServerError

EVENTS = [
    AddAnnotations.build([(0, "A1"), (2, "A2")]),
    RemoveAnnotations.build([(1, "A1")]),
    AddAnnotatedTuples.build([(("a", "x"), ("A1", "A2"))]),
    AddUnannotatedTuples.build([("b", "y")]),
    RemoveTuples.build([3, 5]),
]

_HEADER = struct.Struct("<II")


def wal(tmp_path):
    return tmp_path / "events.wal"


class TestEventCodec:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: type(e).__name__)
    def test_round_trip(self, event):
        assert event_from_json(event_to_json(event)) == event

    def test_wire_names_match_server_codec(self):
        # Journal dumps and HTTP payloads must read the same.
        for event in EVENTS:
            assert event_from_json(event_to_json(event), ServerError) \
                == event

    def test_decode_rejects_unknown_type(self):
        with pytest.raises(FormatError, match="unknown event type"):
            event_from_json({"type": "explode"})

    def test_decode_rejects_mangled_payload(self):
        with pytest.raises(FormatError, match="additions must be a list"):
            event_from_json({"type": "add_annotations",
                             "additions": "not-a-list"})

    def test_decode_rejects_non_object(self):
        with pytest.raises(FormatError):
            event_from_json(["add_annotations"])

    def test_decode_rejects_extra_fields(self):
        with pytest.raises(FormatError, match="unexpected field"):
            event_from_json({"type": "remove_tuples", "tids": [0],
                             "cascade": True})

    def test_decode_type_checks_tids(self):
        with pytest.raises(FormatError, match="list of integers"):
            event_from_json({"type": "remove_tuples", "tids": ["0"]})

    #: Every malformed shape the one decoder refuses, with the message
    #: the HTTP endpoints answer 400 with.
    MALFORMED = {
        "missing-type": ({"additions": [[0, "A"]]}, "unknown event type"),
        "additions-not-list": ({"type": "add_annotations",
                                "additions": {"0": "A"}},
                               "additions must be a list"),
        "addition-one-element": ({"type": "add_annotations",
                                  "additions": [[0]]},
                                 r"tid:int, annotation:str"),
        "addition-string-tid": ({"type": "add_annotations",
                                 "additions": [["0", "A"]]},
                                r"tid:int, annotation:str"),
        "removal-int-annotation": ({"type": "remove_annotations",
                                    "removals": [[0, 7]]},
                                   r"tid:int, annotation:str"),
        "empty-additions": ({"type": "add_annotations", "additions": []},
                            "invalid add_annotations event"),
        "annotated-rows-not-list": ({"type": "add_annotated_tuples",
                                     "rows": "a,x"},
                                    "rows must be a list"),
        "annotated-row-flat": ({"type": "add_annotated_tuples",
                                "rows": [["a", "x"]]},
                               r"each row must be"),
        "unannotated-row-scalar": ({"type": "add_unannotated_tuples",
                                    "rows": ["a"]},
                                   r"rows must be a list of \[value"),
        "unannotated-extra-field": ({"type": "add_unannotated_tuples",
                                     "rows": [["a"]], "annotations": []},
                                    "unexpected field"),
        "tids-not-list": ({"type": "remove_tuples", "tids": 3},
                          "list of integers"),
        "empty-tids": ({"type": "remove_tuples", "tids": []},
                       "invalid remove_tuples event"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_event_raises_the_callers_error(self, case):
        obj, message = self.MALFORMED[case]
        # A journal record decodes as corruption, an HTTP body as a 400,
        # with the same message either way.
        with pytest.raises(FormatError, match=message):
            event_from_json(obj)
        with pytest.raises(ServerError, match=message):
            event_from_json(obj, ServerError)


class TestAppendAndRead:
    def test_sequences_are_contiguous_from_one(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        assert journal.append_batch([EVENTS[0]]) == 1
        assert journal.append_mine() == 2
        assert journal.append_batch(EVENTS[1:3]) == 3
        assert journal.last_seq == 3
        assert journal.floor_seq == 0
        journal.close()

    def test_records_round_trip_and_filter(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        journal.append_mine()
        journal.append_batch(EVENTS[1:3])
        records = list(journal.records())
        assert [(r.seq, r.kind) for r in records] \
            == [(1, "batch"), (2, "mine"), (3, "batch")]
        assert records[0].events == (EVENTS[0],)
        assert records[2].events == tuple(EVENTS[1:3])
        assert [r.seq for r in journal.records(after=2)] == [3]
        journal.close()

    def test_reopen_resumes_the_sequence(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        journal.close()
        reopened = EventJournal(wal(tmp_path))
        assert reopened.last_seq == 1
        assert reopened.append_batch([EVENTS[1]]) == 2
        reopened.close()

    def test_empty_batch_rejected(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        with pytest.raises(MaintenanceError):
            journal.append_batch([])
        journal.close()

    def test_no_fsync_mode_syncs_on_demand(self, tmp_path):
        journal = EventJournal(wal(tmp_path), fsync=False)
        journal.append_batch([EVENTS[0]])
        assert journal._dirty
        journal.sync()
        assert not journal._dirty
        journal.close()

    def test_fsync_mode_is_never_dirty(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        assert not journal._dirty
        journal.close()

    def test_records_sync_a_lazy_journal_first(self, tmp_path):
        journal = EventJournal(wal(tmp_path), fsync=False)
        journal.append_batch([EVENTS[0]])
        assert [record.seq for record in journal.records()] == [1]
        assert not journal._dirty
        journal.close()

    def test_close_syncs_a_lazy_journal(self, tmp_path):
        journal = EventJournal(wal(tmp_path), fsync=False)
        journal.append_batch([EVENTS[0]])
        journal.close()
        assert not journal._dirty
        reopened = EventJournal(wal(tmp_path))
        assert [list(record.events) for record in reopened.records()] == [
            [EVENTS[0]]]
        reopened.close()

    def test_advance_to_requires_empty_journal(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.advance_to(7)
        assert journal.last_seq == 7 and journal.floor_seq == 7
        assert journal.append_batch([EVENTS[0]]) == 8
        with pytest.raises(FormatError, match="still holds records"):
            journal.advance_to(99)
        journal.close()


class TestTornTail:
    """A crash mid-append leaves a torn tail; opening truncates it."""

    def _journal_with_two_records(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        journal.append_batch([EVENTS[1]])
        journal.close()
        return wal(tmp_path)

    @pytest.mark.parametrize("cut", [1, 4, 20])
    def test_truncated_on_open(self, tmp_path, cut):
        path = self._journal_with_two_records(tmp_path)
        whole = path.read_bytes()
        journal = EventJournal(path)
        journal.append_batch([EVENTS[2]])
        journal.close()
        grown = path.read_bytes()
        assert len(grown) > len(whole)
        # Tear the third record `cut` bytes in.
        path.write_bytes(grown[:len(whole) + cut])
        reopened = EventJournal(path)
        assert reopened.truncated_bytes == cut
        assert reopened.last_seq == 2
        assert [r.seq for r in reopened.records()] == [1, 2]
        # The sequence continues where the durable history ended.
        assert reopened.append_batch([EVENTS[3]]) == 3
        reopened.close()

    def test_partial_magic_is_all_torn(self, tmp_path):
        path = wal(tmp_path)
        path.write_bytes(MAGIC[:3])
        journal = EventJournal(path)
        assert journal.truncated_bytes == 3
        assert journal.last_seq == 0
        assert journal.append_batch([EVENTS[0]]) == 1
        journal.close()

    def test_records_raises_on_torn_tail_unless_tolerated(self, tmp_path):
        path = self._journal_with_two_records(tmp_path)
        journal = EventJournal(path)
        # Tear the file *behind* the open journal — the shape a reader
        # racing a live appender sees mid-write.
        with open(path, "ab") as handle:
            handle.write(b"\x99\x00\x00")
        with pytest.raises(FormatError, match="torn tail"):
            list(journal.records())
        assert [r.seq for r in
                journal.records(tolerate_torn_tail=True)] == [1, 2]
        journal.close()
        scan = scan_journal(path)
        assert scan.torn_bytes == 3
        assert [r.seq for r in scan.records] == [1, 2]

    def test_scan_reports_the_tail_an_open_would_truncate(self, tmp_path):
        path = self._journal_with_two_records(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + _HEADER.pack(100, 0) + b"x" * 13)
        scan = scan_journal(path)
        assert scan.torn_bytes == 21
        assert (scan.last_seq, scan.floor_seq) == (2, 0)
        # Scanning is read-only; only an open truncates.
        assert len(path.read_bytes()) == len(intact) + 21
        reopened = EventJournal(path)
        assert reopened.truncated_bytes == 21
        reopened.close()
        assert path.read_bytes() == intact

    def test_corrupt_final_record_that_checksums_is_truncated(self, tmp_path):
        path = self._journal_with_two_records(tmp_path)
        # Append a record whose checksum is valid but whose seq breaks
        # the chain — content damage on the tail is still recoverable.
        payload = json.dumps({"seq": 9, "kind": "mine"}).encode()
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(len(payload), zlib.crc32(payload))
                         + payload)
        reopened = EventJournal(path)
        assert reopened.truncated_bytes > 0
        assert reopened.last_seq == 2
        reopened.close()


class TestMidFileCorruption:
    """Damage with valid data after it cannot be a crash: refuse."""

    def test_bit_flip_in_first_record(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        journal.append_batch([EVENTS[1]])
        journal.close()
        data = bytearray(wal(tmp_path).read_bytes())
        data[len(MAGIC) + _HEADER.size + 2] ^= 0xFF
        wal(tmp_path).write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum mismatch"):
            scan_journal(wal(tmp_path))
        with pytest.raises(FormatError):
            EventJournal(wal(tmp_path))

    def test_sequence_break_mid_file(self, tmp_path):
        path = wal(tmp_path)
        journal = EventJournal(path)
        journal.append_batch([EVENTS[0]])
        journal.close()
        # Hand-craft records 5 then 1: the gap is mid-file damage.
        for seq in (5, 6):
            payload = json.dumps({"seq": seq, "kind": "mine"},
                                 separators=(",", ":")).encode()
            with open(path, "ab") as handle:
                handle.write(_HEADER.pack(len(payload),
                                          zlib.crc32(payload)) + payload)
        with pytest.raises(FormatError, match="sequence break"):
            scan_journal(path)

    def test_malformed_event_mid_file_is_corruption(self, tmp_path):
        path = wal(tmp_path)
        EventJournal(path).close()
        # Two records that checksum, the first carrying an event field
        # no writer emits: the decoder's refusal is mid-file damage.
        for document in ({"seq": 1, "kind": "batch",
                          "events": [{"type": "remove_tuples",
                                      "tids": [0], "cascade": True}]},
                         {"seq": 2, "kind": "mine"}):
            payload = json.dumps(document, separators=(",", ":")).encode()
            with open(path, "ab") as handle:
                handle.write(_HEADER.pack(len(payload),
                                          zlib.crc32(payload)) + payload)
        with pytest.raises(FormatError, match="unexpected field"):
            scan_journal(path)

    def test_bad_magic_refused(self, tmp_path):
        path = wal(tmp_path)
        path.write_bytes(b"NOTAJRNL" + b"x" * 32)
        with pytest.raises(FormatError, match="bad magic"):
            scan_journal(path)


class TestFaultHook:
    def test_torn_append_budget(self, tmp_path):
        budgets = iter([None, 5])
        journal = EventJournal(
            wal(tmp_path),
            fault_hook=lambda point: next(budgets, None))
        journal.append_batch([EVENTS[0]])  # budget None: lands whole
        with pytest.raises(CrashInjected):
            journal.append_batch([EVENTS[1]])
        journal.close()
        reopened = EventJournal(wal(tmp_path))
        assert reopened.truncated_bytes == 5
        assert reopened.last_seq == 1
        reopened.close()

    def test_raising_hook_aborts_before_any_write(self, tmp_path):
        journal = EventJournal(wal(tmp_path))
        journal.append_batch([EVENTS[0]])
        size_before = wal(tmp_path).stat().st_size

        def hook(point):
            raise CrashInjected(point)

        journal.fault_hook = hook
        with pytest.raises(CrashInjected):
            journal.append_batch([EVENTS[1]])
        journal.fault_hook = None
        assert wal(tmp_path).stat().st_size == size_before
        assert journal.last_seq == 1
        journal.close()
