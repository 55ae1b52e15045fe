"""``python -m benchmarks.suite`` — run the gated benchmark or compare runs.

::

    python -m benchmarks.suite run [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--repeat N] [--out FILE]
    python -m benchmarks.suite compare BASE.json NEW.json

``run`` prints every metric of every workload as ``workload metric
value unit`` and ends each workload with one JSON line ``{"correct",
"attempted", "failed", "metrics"}``; it exits non-zero when any check
fails.  ``--trace`` is a separate run that reports the per-layer
metrics instead of the end-to-end ones.  ``--out`` writes every run to
one JSON document stamped with CPU count, Python version, git sha and
seeds; ``compare`` reads two such documents.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

try:
    from benchmarks.suite import served, stats
    from benchmarks.suite.common import ROOT, child_env
    from benchmarks.suite.workloads import SMOKE_SECONDS, WORKLOADS
except ImportError as error:  # no source tree to measure
    sys.exit(f"benchmarks.suite: cannot import the system under test "
             f"({error})")

#: Wall-clock limit of one in-process workload child.
CHILD_TIMEOUT = 170.0


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    workload = WORKLOADS[name]
    if workload.kind == "inproc":
        spec = {"workload": name, "seed": seed, "seconds": seconds,
                "trace": trace, "smoke": smoke}
        child = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.inproc",
             json.dumps(spec)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT, check=True)
        return json.loads(child.stdout.strip().splitlines()[-1])
    runner = {"serve-read": served.run_serve_read,
              "serve-ingest": served.run_serve_ingest}[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = runner(workload, seed=seed, seconds=seconds, trace=trace,
                        smoke=smoke, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    return result.as_dict()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = SMOKE_SECONDS if args.smoke else _spec()["run_seconds"]
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for name in names:
            outcome = run_workload(name, seed=seed, seconds=seconds,
                                   trace=bool(args.trace), smoke=args.smoke)
            outcome.update(seed=seed, seconds=seconds, smoke=args.smoke,
                           op=WORKLOADS[name].op)
            runs.append(outcome)
            for check in outcome["checks"]:
                if not check["ok"]:
                    print(f"{name} CHECK FAILED {check['name']}: "
                          f"{check['detail']}", file=sys.stderr)
            for metric, measured in outcome["metrics"].items():
                print(f"{name} {metric} {measured['value']!r} "
                      f"{measured['unit']}")
            for metric, measured in outcome["detail"].items():
                print(f"{name} detail.{metric} {measured['value']!r} "
                      f"{measured['unit']}")
            print(json.dumps({key: outcome[key] for key in
                              ("correct", "attempted", "failed",
                               "metrics")}), flush=True)
    if args.out:
        document = {"stamp": {"cpus": os.cpu_count(),
                              "python": platform.python_version(),
                              "git_sha": _git_sha()},
                    "runs": runs}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(outcome["correct"] for outcome in runs) else 1


def _end_to_end_values(document: dict
                       ) -> tuple[dict[tuple[str, str], list], set]:
    """``(workload, metric) -> values`` of the untraced runs, and the
    set of ``(smoke, seconds)`` settings they ran with."""
    values: dict[tuple[str, str], list] = {}
    settings = set()
    for outcome in document["runs"]:
        if outcome["traced"]:
            continue
        settings.add((outcome["smoke"], outcome["seconds"]))
        for metric, measured in outcome["metrics"].items():
            values.setdefault((outcome["workload"], metric),
                              []).append(measured["value"])
    return values, settings


def compare(args: argparse.Namespace) -> int:
    """Median delta of every workload x end-to-end metric against its
    bound; ``unresolved`` when either side's quartile spread exceeds
    the bound (too noisy to call either way).

    Both documents must come from runs of one scale and window length:
    the in-process window is a fixed amount of work sized from it, so
    runs of different lengths measure different states.  A pair BASE
    has and NEW lacks fails the comparison.
    """
    metrics = {metric["name"]: metric for metric in _spec()["end_to_end"]}
    base, base_settings = _end_to_end_values(
        json.loads(Path(args.base).read_text()))
    new, new_settings = _end_to_end_values(
        json.loads(Path(args.new).read_text()))
    if len(base_settings | new_settings) != 1:
        print("compare: the runs differ in --smoke or --seconds "
              f"(base {sorted(base_settings)}, new {sorted(new_settings)})",
              file=sys.stderr)
        return 2
    missing = sorted(base.keys() - new.keys())
    for workload, metric in missing:
        print(f"{workload:15} {metric:12} MISSING from {args.new}")
    regressions = len(missing)
    for workload, metric in sorted(base.keys() & new.keys()):
        bound = metrics[metric]["bound"]
        before, after = base[workload, metric], new[workload, metric]
        base_median = stats.median(before)
        new_median = stats.median(after)
        delta = (new_median - base_median) / base_median
        worse = delta if metrics[metric]["better"] == "lower" else -delta
        try:
            spreads = (stats.spread(before), stats.spread(after))
        except stats.TooFewSamples:
            spreads = (float("inf"), float("inf"))
        if max(spreads) > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        else:
            verdict = "ok"
        print(f"{workload:15} {metric:12} {base_median:11.5g} -> "
              f"{new_median:11.5g} {metrics[metric]['unit']:3} "
              f"{delta:+7.1%} (bound {bound:.0%}, spread "
              f"{spreads[0]:.1%}/{spreads[1]:.1%}, n={len(before)}/"
              f"{len(after)}) {verdict}")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    runner = commands.add_parser("run", help="run workloads")
    runner.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    runner.add_argument("--seed", type=int, default=0)
    runner.add_argument("--seconds", type=float, default=None,
                        help="measured-window length (default: "
                             "run_seconds in BENCHMARK.json, or "
                             f"{SMOKE_SECONDS} s with --smoke)")
    runner.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="per-layer run instead of end-to-end")
    runner.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    runner.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    runner.add_argument("--out", help="write every run to this JSON file")
    comparer = commands.add_parser(
        "compare", help="median deltas of NEW against BASE")
    comparer.add_argument("base")
    comparer.add_argument("new")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
