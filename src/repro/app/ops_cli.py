"""Offline durability operations: ``repro journal | recover | rebalance``.

These commands operate directly on one session's journal store
directory (``<journal-root>/<name>`` under a server, or any directory
holding an ``events.wal``) — no server required, which is the point:
they are what an operator reaches for when the process is *down*.

::

    python -m repro journal   runs/demo --records
    python -m repro recover   runs/demo --upto 41 --snapshot-out s.json
    python -m repro rebalance runs/demo --shards 4

``journal`` is the audit surface (store status, record-by-record
listing); ``recover`` rebuilds the engine from snapshot + replay and
reports exactly what it recovered; ``rebalance`` re-layouts the
recovered state and anchors the new layout back into the store as a
snapshot, so the next recovery (or server start) comes up balanced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.core.journal import JournalStore, WAL_NAME, event_to_json
from repro.errors import ReproError
from repro.shard.rebalance import plan_rebalance, rebuild_with_plan, shard_skew


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

    rebalance = commands.add_parser(
        "rebalance", help="re-layout a recovered store's shards")
    rebalance.add_argument("directory", help="journal store directory")
    rebalance.add_argument("--shards", type=int, default=None,
                           metavar="N",
                           help="target shard count (default: keep the "
                                "current count, just even the layout)")
    rebalance.add_argument("--dry-run", action="store_true",
                           help="print the plan without writing "
                                "anything")
    return parser


def _print(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _open_store(directory: str) -> JournalStore:
    """Open an *existing* store: opening a typo'd path must inspect an
    error, not scaffold an empty journal there."""
    if not os.path.isfile(os.path.join(directory, WAL_NAME)):
        raise ReproError(
            f"{directory!r} is not a journal store (no {WAL_NAME})")
    return JournalStore(directory)


def _cmd_journal(args: argparse.Namespace) -> int:
    store = _open_store(args.directory)
    try:
        payload: dict = {"status": store.status()}
        if args.records:
            listing = []
            for record in store.records(after=args.after,
                                        tolerate_torn_tail=True):
                entry: dict = {"seq": record.seq, "kind": record.kind}
                if record.kind == "batch":
                    entry["events"] = [event_to_json(event)["type"]
                                       for event in record.events]
                listing.append(entry)
            payload["records"] = listing
        _print(payload)
    finally:
        store.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    store = _open_store(args.directory)
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

        document = persistence.snapshot(
            engine, journal_seq=result.last_seq)
        with open(args.snapshot_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
        payload["snapshot_out"] = args.snapshot_out
    _print(payload)
    if args.verify and not payload["verified"]:
        return 1
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    store = _open_store(args.directory)
    try:
        result = store.recover()
        engine = result.engine
        plan = plan_rebalance(engine, target_shards=args.shards)
        payload = {
            "recovered_seq": result.last_seq,
            "plan": plan.as_dict(),
            "skew_before": shard_skew(engine).as_dict(),
            "applied": False,
        }
        if not args.dry_run and not plan.noop:
            from repro.core import persistence

            document = persistence.snapshot(
                engine, journal_seq=result.last_seq)
            rebuilt = rebuild_with_plan(document, plan)
            if rebuilt.signature() != engine.signature():
                raise ReproError(
                    "rebalanced engine diverged from the "
                    "recovered state; store left untouched")
            payload["skew_after"] = shard_skew(rebuilt).as_dict()
            # Anchor the new layout: the next recovery (or the server's
            # startup pass) loads this snapshot and comes up already
            # balanced.
            store.write_snapshot(rebuilt, result.last_seq)
            payload["applied"] = True
        _print(payload)
    finally:
        store.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"journal": _cmd_journal, "recover": _cmd_recover,
               "rebalance": _cmd_rebalance}[args.command]
    try:
        return handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
