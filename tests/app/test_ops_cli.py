"""The offline journal-store commands: ``python -m repro journal`` audits
a store without writing to it, ``recover`` rebuilds and reports it."""

import json
import os
import struct
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.app.ops_cli import signature_digest
from repro.app.service import CorrelationService
from repro.core import persistence
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine, VerificationResult
from repro.core.events import AddAnnotations, RemoveAnnotations
from repro.core.journal import JournalStore
from tests.conftest import make_relation

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)
#: A record header promising 100 payload bytes, then only 13 of them.
TORN_TAIL = struct.pack("<II", 100, 0) + b"x" * 13


@pytest.fixture
def store(tmp_path):
    """A closed session store holding three batch records."""
    service = CorrelationService(config=ENGINE,
                                 journal_dir=tmp_path / "journal")
    service.create("s", make_relation())
    for event in (AddAnnotations.build([(3, "A")]),
                  RemoveAnnotations.build([(1, "B")]),
                  AddAnnotations.build([(5, "A"), (6, "B")])):
        service.submit("s", event)
        service.flush("s")
    service.drop("s")  # closes the store; its files stay
    return tmp_path / "journal" / "s"


def compact_fully(directory):
    """Snapshot the store at its tail and trim every journal record."""
    store = JournalStore(directory)
    result = store.recover()
    store.compact(result.engine, store.last_seq, keep_snapshots=1)
    result.engine.close()
    store.close()


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def listing(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


class TestJournal:
    def test_status(self, capsys, store):
        code, payload, _err = run(capsys, "journal", store)
        assert code == 0
        assert payload == {"status": {
            "directory": str(store), "last_seq": 3, "floor_seq": 0,
            "snapshots": [0], "torn_bytes": 0}}

    def test_records_and_after(self, capsys, store):
        code, payload, _err = run(capsys, "journal", store, "--records")
        assert code == 0
        assert payload["records"] == [
            {"seq": 1, "kind": "batch", "events": ["add_annotations"]},
            {"seq": 2, "kind": "batch", "events": ["remove_annotations"]},
            {"seq": 3, "kind": "batch", "events": ["add_annotations"]},
        ]
        code, payload, _err = run(capsys, "journal", store, "--records",
                                  "--after", 1)
        assert code == 0
        assert [entry["seq"] for entry in payload["records"]] == [2, 3]

    def test_audit_leaves_a_torn_wal_byte_identical(self, capsys, store):
        wal = store / "events.wal"
        wal.write_bytes(wal.read_bytes() + TORN_TAIL)
        before = listing(store)
        code, payload, _err = run(capsys, "journal", store, "--records")
        assert code == 0
        assert payload["status"]["torn_bytes"] == len(TORN_TAIL)
        assert len(payload["records"]) == 3
        assert listing(store) == before

    def test_after_the_tail_lists_nothing(self, capsys, store):
        code, payload, _err = run(capsys, "journal", store, "--records",
                                  "--after", 3)
        assert code == 0
        assert payload["records"] == []

    def test_a_compacted_store_continues_from_its_snapshot(
            self, capsys, store):
        compact_fully(store)
        code, payload, _err = run(capsys, "journal", store, "--records")
        assert code == 0
        assert payload == {"status": {
            "directory": str(store), "last_seq": 3, "floor_seq": 3,
            "snapshots": [3], "torn_bytes": 0}, "records": []}

    def test_mid_file_corruption_exits_2_untouched(self, capsys, store):
        wal = store / "events.wal"
        data = bytearray(wal.read_bytes())
        data[len(data) // 2] ^= 0xFF
        wal.write_bytes(bytes(data))
        before = listing(store)
        code, payload, err = run(capsys, "journal", store)
        assert code == 2 and payload is None
        assert "error:" in err
        assert listing(store) == before

    def test_a_directory_without_a_wal_exits_2(self, capsys, tmp_path):
        for command in ("journal", "recover"):
            code, payload, err = run(capsys, command, tmp_path)
            assert code == 2 and payload is None
            assert "not a journal store" in err
        assert os.listdir(tmp_path) == []


class TestRecover:
    def test_upto_snapshot_out_and_verify(self, capsys, store, tmp_path):
        out = tmp_path / "state.json"
        code, payload, _err = run(capsys, "recover", store, "--upto", 2,
                                  "--snapshot-out", out, "--verify")
        assert code == 0
        assert payload["recovered_seq"] == 2
        assert payload["replayed_records"] == 2
        assert payload["verified"] is True
        assert payload["snapshot_out"] == str(out)
        with open(out, encoding="utf-8") as handle:
            restored = persistence.restore(json.load(handle))
        assert signature_digest(restored) == payload["signature"]
        restored.close()

    def test_reports_the_torn_tail_it_truncated(self, capsys, store):
        wal = store / "events.wal"
        intact = wal.read_bytes()
        wal.write_bytes(intact + TORN_TAIL)
        code, payload, _err = run(capsys, "recover", store)
        assert code == 0
        assert payload["truncated_bytes"] == len(TORN_TAIL)
        assert payload["recovered_seq"] == 3
        assert wal.read_bytes() == intact

    def test_upto_below_the_compaction_floor_exits_2(self, capsys, store):
        compact_fully(store)
        code, payload, err = run(capsys, "recover", store, "--upto", 1)
        assert code == 2 and payload is None
        assert "compacted away" in err

    def test_divergence_exits_1(self, capsys, store, monkeypatch):
        diverged = VerificationResult(equivalent=False,
                                      only_incremental=frozenset(),
                                      only_remine=frozenset({("x",)}))
        monkeypatch.setattr(CorrelationEngine, "verify_against_remine",
                            lambda self: diverged)
        code, payload, _err = run(capsys, "recover", store, "--verify")
        assert code == 1
        assert payload["verified"] is False
        assert payload["verify_detail"] == diverged.explain()


def test_rebalance_is_not_a_command(store):
    before = listing(store)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "rebalance", str(store)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert completed.returncode != 0
    assert listing(store) == before
