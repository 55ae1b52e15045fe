"""Offline durability operations: ``repro journal | recover``.

These commands operate directly on one session's journal store
directory (``<journal-root>/<name>`` under a server, or any directory
holding an ``events.wal``) — no server required, which is the point:
they are what an operator reaches for when the process is *down*.

::

    python -m repro journal runs/demo --records
    python -m repro recover runs/demo --upto 41 --snapshot-out s.json

``journal`` is the audit surface (store status, record-by-record
listing): it only reads, so auditing a store never changes it, not
even by truncating a torn tail.  ``recover`` rebuilds the engine from
snapshot + replay and reports exactly what it recovered, including
the torn-tail bytes it truncated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.core.journal import (
    JournalStore,
    WAL_NAME,
    event_to_json,
    list_snapshots,
    scan_journal,
)
from repro.errors import ReproError


def signature_digest(engine) -> str:
    """Short stable digest of the engine's rule signature (for eyeball
    equality across recoveries; the full signature is O(rules))."""
    canonical = json.dumps(sorted(map(list, engine.signature())),
                           sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ops",
        description="Offline journal-store operations.")
    commands = parser.add_subparsers(dest="command", required=True)

    journal = commands.add_parser(
        "journal", help="inspect a journal store (status, audit listing)")
    journal.add_argument("directory", help="journal store directory")
    journal.add_argument("--records", action="store_true",
                         help="list every journal record (the audit "
                              "trail recovery would replay)")
    journal.add_argument("--after", type=int, default=0, metavar="SEQ",
                         help="with --records, start after this seq")

    recover = commands.add_parser(
        "recover", help="rebuild the engine: snapshot + journal replay")
    recover.add_argument("directory", help="journal store directory")
    recover.add_argument("--upto", type=int, default=None, metavar="SEQ",
                         help="point-in-time: recover the state as of "
                              "this journal seq (default: everything "
                              "durable)")
    recover.add_argument("--snapshot-out", default=None, metavar="FILE",
                         help="write the recovered state as a "
                              "persistence snapshot document")
    recover.add_argument("--verify", action="store_true",
                         help="re-mine from scratch and check the "
                              "recovered rules match exactly")
    return parser


def _print(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _wal_path(directory: str) -> str:
    """The store's WAL path: a typo'd directory is an error, never an
    empty journal scaffolded there."""
    path = os.path.join(directory, WAL_NAME)
    if not os.path.isfile(path):
        raise ReproError(
            f"{directory!r} is not a journal store (no {WAL_NAME})")
    return path


def _cmd_journal(args: argparse.Namespace) -> int:
    """Audit a store without writing to it: the WAL is scanned, never
    opened for append, so a torn tail is reported, not truncated."""
    scan = scan_journal(_wal_path(args.directory))
    snapshots = [seq for seq, _path in list_snapshots(args.directory)]
    last_seq, floor_seq = scan.last_seq, scan.floor_seq
    if not scan.records and snapshots:
        # A fully compacted journal continues from its newest snapshot.
        last_seq = floor_seq = snapshots[-1]
    payload: dict = {"status": {
        "directory": args.directory,
        "last_seq": last_seq,
        "floor_seq": floor_seq,
        "snapshots": snapshots,
        "torn_bytes": scan.torn_bytes,
    }}
    if args.records:
        listing = []
        for record in scan.records:
            if record.seq <= args.after:
                continue
            entry: dict = {"seq": record.seq, "kind": record.kind}
            if record.kind == "batch":
                entry["events"] = [event_to_json(event)["type"]
                                   for event in record.events]
            listing.append(entry)
        payload["records"] = listing
    _print(payload)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    _wal_path(args.directory)
    store = JournalStore(args.directory)
    try:
        result = store.recover(upto=args.upto)
    finally:
        store.close()
    engine = result.engine
    payload = {
        "snapshot_seq": result.snapshot_seq,
        "recovered_seq": result.last_seq,
        "truncated_bytes": result.truncated_bytes,
        "replayed_records": result.replay.records,
        "replayed_events": result.replay.events,
        "replayed_mines": result.replay.mines,
        "db_size": engine.relation.live_count,
        "rules": len(engine.catalog()),
        "signature": signature_digest(engine),
    }
    if args.verify:
        verification = engine.verify_against_remine()
        payload["verified"] = verification.equivalent
        if not verification.equivalent:
            payload["verify_detail"] = verification.explain()
    if args.snapshot_out is not None:
        from repro.core import persistence

        persistence.save(engine, args.snapshot_out,
                         journal_seq=result.last_seq)
        payload["snapshot_out"] = args.snapshot_out
    _print(payload)
    if args.verify and not payload["verified"]:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"journal": _cmd_journal,
               "recover": _cmd_recover}[args.command]
    try:
        return handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
