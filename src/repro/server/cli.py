"""``repro serve`` — run the correlation serving tier from the shell.

::

    python -m repro serve --port 8765 --min-support 0.4 \\
        --min-confidence 0.6 --preload demo=data.txt

Tenants are usually created over HTTP (``POST /v1/tenants``);
``--preload`` registers dataset files as tenants before the socket
opens, so a scripted deployment can serve a known corpus immediately.
The process drains on SIGINT/SIGTERM: in-flight requests finish and
every tenant's queued events are flushed before exit.

The server speaks plain HTTP; TLS belongs in a proxy in front of it.
``python -m repro serve`` is the only shell entry point.  It serves on
threads, with no event loop, and loads no :mod:`ssl`.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.core.config import EngineConfig
from repro.errors import ReproError
from repro.server.config import ServerConfig
from repro.server.http import CorrelationServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve annotated-correlation rule mining over HTTP. "
                    "The server speaks plain HTTP; TLS belongs in a "
                    "proxy in front of it.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (0 picks an ephemeral port and "
                             "prints it)")
    engine = parser.add_argument_group(
        "default engine (tenants created without an explicit config)")
    engine.add_argument("--min-support", type=float, default=0.4)
    engine.add_argument("--min-confidence", type=float, default=0.6)
    engine.add_argument("--shards", type=int, default=1)
    admission = parser.add_argument_group("admission / backpressure")
    admission.add_argument("--max-pending-events", type=int,
                           default=10_000)
    admission.add_argument("--flush-watermark", type=float, default=0.5,
                           help="background-flush trigger as a fraction "
                                "of --max-pending-events (0 disables "
                                "background flushing)")
    admission.add_argument("--max-inflight-flushes", type=int, default=2)
    admission.add_argument("--drain-timeout", type=float, default=30.0)
    durability = parser.add_argument_group("durability")
    durability.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead journal root: every flush is journaled "
             "before it mutates the engine, and journaled tenants "
             "found under DIR are recovered before the socket opens")
    durability.add_argument(
        "--journal-no-fsync", action="store_true",
        help="skip the per-append fsync (faster; survives process "
             "crashes but not machine crashes)")
    durability.add_argument(
        "--journal-snapshot-every", type=int, default=64,
        metavar="N",
        help="write a compacted snapshot every N journaled records "
             "(0 disables periodic snapshots; default 64)")
    parser.add_argument("--preload", action="append", default=[],
                        metavar="NAME=DATASET",
                        help="create tenant NAME from a Figure 4 dataset "
                             "file before serving (repeatable)")
    return parser


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        shards=args.shards)


def build_server(args: argparse.Namespace) -> CorrelationServer:
    config = ServerConfig(
        host=args.host,
        port=args.port,
        default_engine=_engine_config(args),
        max_pending_events=args.max_pending_events,
        flush_watermark=args.flush_watermark or None,
        max_inflight_flushes=args.max_inflight_flushes,
        drain_timeout=args.drain_timeout,
        journal_dir=args.journal_dir,
        journal_fsync=not args.journal_no_fsync,
        journal_snapshot_every=args.journal_snapshot_every or None)
    server = CorrelationServer(config)
    for spec in args.preload:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--preload wants NAME=DATASET, got {spec!r}")
        # Local: only a --preload start reads dataset files.
        from repro.io.dataset_format import read_dataset
        relation = read_dataset(path)
        server.service.create(name, relation,
                              config=config.default_engine)
        print(f"preloaded tenant {name!r}: {len(relation)} tuples, "
              f"{len(server.service.snapshot(name))} rules",
              file=sys.stderr)
    return server


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        server = build_server(args)
        stop = threading.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
        server.start()
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    tenants = server.service.sessions()
    if server.config.journal_dir is not None and tenants:
        print(f"journal recovery: serving {len(tenants)} "
              f"tenant(s): {', '.join(tenants)}", file=sys.stderr)
    print(f"repro serve listening on "
          f"http://{server.config.host}:{server.port}", file=sys.stderr)
    stop.wait()
    print("draining...", file=sys.stderr)
    server.shutdown()
    print("drained; bye", file=sys.stderr)
    return 0
