"""Shared fixtures and helpers for the test suite.

Randomness discipline: every randomized test draws its generator (or
integer stream seed) from the session-wide :class:`SeedRouter` exposed
by the ``seeds`` fixture, never from an ad-hoc ``random.Random(...)``.
With the default base seed 0 the router reproduces the suite's
historical fixed streams exactly; ``pytest --seed N`` (or the
``REPRO_TEST_SEED`` environment variable) deterministically re-derives
every stream from ``N``, so a failure seen on any base seed replays
exactly by re-running with that seed — the header line names it.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.relation.relation import AnnotatedRelation
from repro.core.engine import CorrelationEngine, engine
from repro.baselines.remine import remine


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--seed", action="store", type=int, default=None,
        help="base seed mixed into every routed test RNG (default: the "
             "REPRO_TEST_SEED env var, else 0 — the suite's historical "
             "streams)")


def _base_seed(config: pytest.Config) -> int:
    option = config.getoption("--seed", default=None)
    if option is not None:
        return option
    return int(os.environ.get("REPRO_TEST_SEED", "0"))


def pytest_report_header(config: pytest.Config) -> str:
    return (f"repro randomized-test base seed: {_base_seed(config)} "
            f"(replay with --seed / REPRO_TEST_SEED)")


class SeedRouter:
    """The one source of test randomness.

    Each call site keeps its historical salt; the router mixes it with
    the session base seed.  Base seed 0 maps every salt to itself, so
    the default run is byte-for-byte the pre-router test suite.
    """

    def __init__(self, base: int) -> None:
        self.base = base

    def seed(self, salt: int) -> int:
        """A derived integer seed (for StreamConfig and friends)."""
        if self.base == 0:
            return salt
        return (self.base * 1_000_003 + salt) & 0x7FFF_FFFF_FFFF_FFFF

    def rng(self, salt: int) -> random.Random:
        """A derived generator for direct in-test drawing."""
        return random.Random(self.seed(salt))


@pytest.fixture(scope="session")
def seeds(request: pytest.FixtureRequest) -> SeedRouter:
    return SeedRouter(_base_seed(request.config))


#: A hand-checkable reference dataset used across many tests.
#: Value tokens are opaque strings (paper Figure 4 style); annotations
#: A and B correlate with value "1" / value "3" respectively.
REFERENCE_ROWS = [
    (("1", "2"), ("A",)),
    (("1", "3"), ("A", "B")),
    (("1", "2"), ("A",)),
    (("4", "2"), ()),
    (("1", "3"), ("A", "B")),
    (("4", "3"), ("B",)),
    (("1", "5"), ("A",)),
    (("4", "5"), ()),
]


def make_relation(rows=None) -> AnnotatedRelation:
    """Build a relation from ``(values, annotations)`` pairs."""
    relation = AnnotatedRelation()
    for values, annotations in (rows if rows is not None else REFERENCE_ROWS):
        relation.insert(values, annotations)
    return relation


def assert_equivalent_to_remine(manager: CorrelationEngine) -> None:
    """The paper's verification: incremental rules == re-mined rules."""
    baseline = remine(
        manager.relation,
        min_support=manager.thresholds.min_support,
        min_confidence=manager.thresholds.min_confidence,
        margin=manager.thresholds.margin,
        generalizer=manager.generalizer,
        max_length=manager.max_length,
    )
    incremental = manager.signature()
    fresh = baseline.signature()
    assert incremental == fresh, (
        f"only incremental: {sorted(incremental - fresh)[:3]} | "
        f"only remine: {sorted(fresh - incremental)[:3]}")


@pytest.fixture
def reference_relation() -> AnnotatedRelation:
    return make_relation()


@pytest.fixture
def mined_manager(reference_relation) -> CorrelationEngine:
    manager = engine(
        reference_relation, min_support=0.25, min_confidence=0.6,
        validate=True)
    manager.mine()
    return manager
