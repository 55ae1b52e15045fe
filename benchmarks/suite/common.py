"""What one workload run reports, and the helpers every runner shares."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.suite.workloads import END_TO_END, HEADLINE, PER_LAYER

#: The repository checkout the suite runs from.
ROOT = Path(__file__).resolve().parents[2]

#: Share of ``db_size`` a stationary stream may drift before a run is
#: rejected.
DB_SIZE_TOLERANCE = 0.10


@dataclass
class Result:
    """One run of one workload: checks, counts and metrics.

    ``metrics`` holds the gated end-to-end numbers of an untraced run
    or the per-layer numbers of a traced one; ``detail`` holds what is
    measured but not among them (tails, secondary latencies), each as
    ``(value, unit)``.
    """

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    checks: list[dict] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.traced:
            # A layer the workload never enters reports 0, not nothing.
            self.metrics = dict.fromkeys(PER_LAYER, 0.0)

    def record(self, name: str, value: float) -> None:
        """A :data:`HEADLINE` number: a metric when the run's metric set
        names it, a detail otherwise."""
        if name in (PER_LAYER if self.traced else END_TO_END):
            self.metrics[name] = value
        else:
            self.detail[name] = (value, HEADLINE[name])

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_stationary(self, start_size: int, end_size: int,
                         rules: int) -> None:
        drift = abs(end_size - start_size) / start_size
        self.check("db_size stationary", drift <= DB_SIZE_TOLERANCE,
                   f"{start_size} -> {end_size}")
        self.check("rules non-empty at end", rules > 0, f"{rules} rules")

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and bool(self.checks)
                and all(check["ok"] for check in self.checks))

    def as_dict(self) -> dict:
        units = PER_LAYER if self.traced else END_TO_END
        missing = sorted(set(units) - set(self.metrics))
        if missing:
            raise RuntimeError(f"{self.workload} measured no "
                               f"{', '.join(missing)}")
        return {
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": units[name]} for name in units},
            "detail": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in self.detail.items()},
        }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def child_env() -> dict[str, str]:
    """Environment for a child Python: the source tree on its path."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
