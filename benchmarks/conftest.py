"""Shared fixtures for the benchmark harness."""

from __future__ import annotations

import pytest

from repro.core.engine import CorrelationEngine, engine
from repro.synth import workloads


@pytest.fixture(scope="session")
def paper_workload():
    """The Figure 16 setting: ~8000 tuples at α=0.4, β=0.8."""
    return workloads.paper_scale()


@pytest.fixture(scope="session")
def paper_manager(paper_workload):
    """A mined engine over a private copy of the paper workload."""
    manager = engine(
        paper_workload.relation.copy(),
        min_support=paper_workload.min_support,
        min_confidence=paper_workload.min_confidence)
    manager.mine()
    return manager


@pytest.fixture(scope="session")
def case_workload():
    """2000-tuple workload for the three per-case benchmarks (E2-E4)."""
    return workloads.paper_scale(n_tuples=2000, seed=17)


def fresh_case_manager(case_workload) -> CorrelationEngine:
    manager = engine(
        case_workload.relation.copy(),
        min_support=case_workload.min_support,
        min_confidence=case_workload.min_confidence)
    manager.mine()
    return manager
