"""Smoke test of the benchmark suite, run with the tier-1 tests.

Every workload runs at ``--smoke`` scale, once untraced and once
traced.  Each run must emit exactly the metrics ``BENCHMARK.json``
names, with their units, and every correctness check must have run and
passed.  A run whose verification fails must exit non-zero.  ``compare``
must fail on a regression or a missing pair and refuse runs of
different window lengths.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Loaded at interpreter start-up by every process of the run below, so
#: the in-process workload's engine reports every verification as failed.
BREAK_VERIFY = """\
from repro.core import engine


def _never_equivalent(self):
    return engine.VerificationResult(equivalent=False,
                                     only_incremental=frozenset(),
                                     only_remine=frozenset())


engine.CorrelationEngine.verify_against_remine = _never_equivalent
"""


def _run(out: Path, *args: str, env: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--smoke",
         "--out", str(out), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_emits_its_metrics_and_passes_its_checks(
        tmp_path, trace, section):
    out = tmp_path / "runs.json"
    completed = _run(out, "--trace", trace)
    assert completed.returncode == 0, completed.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [
        workload["name"] for workload in SPEC["workloads"]]
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for run in runs:
        emitted = {name: measured["unit"]
                   for name, measured in run["metrics"].items()}
        assert emitted == units, run["workload"]
        assert run["checks"], run["workload"]
        assert all(check["ok"] for check in run["checks"]), run["checks"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def _document(setup_s: list[float], *, workloads=("fig16-paper",),
              seconds: float = 12.0) -> dict:
    return {"runs": [{"workload": workload, "traced": False, "smoke": False,
                      "seconds": seconds,
                      "metrics": {"setup_s": {"value": value, "unit": "s"}}}
                     for workload in workloads for value in setup_s]}


@pytest.mark.parametrize("new, code, verdict", [
    (_document([1.0, 1.01, 0.99, 1.0, 1.02]), 0, " ok"),
    (_document([1.3, 1.31, 1.29, 1.3, 1.32]), 1, "REGRESSION"),
    (_document([1.0] * 5, workloads=()), 1, "MISSING"),
    (_document([1.0] * 5, seconds=6.0), 2, ""),
])
def test_compare_flags_regressions_missing_pairs_and_mixed_settings(
        tmp_path, capsys, new, code, verdict):
    from benchmarks.suite.__main__ import main

    base = tmp_path / "base.json"
    base.write_text(json.dumps(_document([1.0, 1.01, 0.99, 1.0, 1.02])))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert main(["compare", str(base), str(tmp_path / "new.json")]) == code
    assert verdict in capsys.readouterr().out


def test_a_run_whose_verification_fails_exits_non_zero(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(BREAK_VERIFY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(ROOT / "src")]))
    out = tmp_path / "runs.json"
    completed = _run(out, "--workload", "fig16-paper", env=env)
    assert completed.returncode != 0
    run, = json.loads(out.read_text())["runs"]
    assert not run["correct"]
    assert [check["ok"] for check in run["checks"]
            if check["name"] == "verify_against_remine equivalent"] == [False]
