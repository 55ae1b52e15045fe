"""E5 — the Figure 7 artifact: discovered-rules output on the reference
dataset, swept over a (support, confidence) grid.

The paper's sample output line is ``28 85 ==> Annot_1, 0.9659, 0.4194``
— a two-value LHS, annotation RHS, confidence then support.  This
benchmark regenerates the rule file at the paper's entry thresholds and
reports the rule counts across the grid (the knob the app's Figure 6
prompts expose).
"""

from __future__ import annotations

import io

import pytest

from repro.core.engine import engine
from repro.core.rules import RuleKind
from repro.baselines.remine import remine
from repro.io.rules_format import parse_rules, write_rules
from repro.synth import workloads
from benchmarks._harness import record

GRID_SUPPORTS = (0.4, 0.3, 0.2)
GRID_CONFIDENCES = (0.9, 0.8, 0.6)


@pytest.fixture(scope="module")
def dense_workload():
    return workloads.dense_correlations()


def _mine(relation, min_support, min_confidence):
    manager = engine(relation.copy(),
                     min_support=min_support,
                     min_confidence=min_confidence)
    manager.mine()
    return manager


def test_fig7_rule_file_at_paper_thresholds(benchmark, paper_workload):
    manager = benchmark.pedantic(
        lambda: _mine(paper_workload.relation,
                      paper_workload.min_support,
                      paper_workload.min_confidence),
        rounds=2, iterations=1)
    buffer = io.StringIO()
    write_rules(manager.rules, manager.vocabulary, buffer)
    lines = buffer.getvalue().splitlines()
    parsed = list(parse_rules(iter(lines)))
    assert len(parsed) == len(manager.rules)
    # The Figure 7 shape: a 2-value LHS rule with conf > 0.9, sup ~ 0.42.
    flagship = [entry for entry in parsed
                if len(entry.lhs_tokens) == 2 and entry.confidence > 0.9
                and entry.rhs_token == "Annot_1"]
    assert flagship, "paper's flagship rule shape missing"
    record("E5_fig7_rule_file", [
        f"rules discovered at (alpha=0.4, beta=0.8): {len(parsed)}",
        "first rows of the regenerated Figure 7 file:",
        *[f"  {line}" for line in lines[:6]],
        f"flagship rule (paper: '28 85 ==> Annot_1, 0.9659, 0.4194'): "
        f"{flagship[0].lhs_tokens} ==> {flagship[0].rhs_token}, "
        f"{flagship[0].confidence}, {flagship[0].support}",
    ])


def test_fig7_engine_vs_paper_apriori(benchmark, dense_workload):
    """The same discovery pass two ways: the engine's ``mine()`` (bulk
    encode, vertical miner over the bitmap index) and the paper's
    hash-tree Apriori (``remine``).  Identical rule sets, wall clock
    of each as a comparison table."""
    from benchmarks._harness import fmt_ms, time_once

    manager = benchmark.pedantic(
        lambda: _mine(dense_workload.relation, 0.2, 0.6),
        rounds=2, iterations=1)
    reference = manager.signature()

    rows = ["pipeline                    initial-mine      rules  agrees"]
    for name, run in (
            ("engine mine()", lambda: _mine(dense_workload.relation,
                                            0.2, 0.6)),
            ("hash-tree Apriori (remine)",
             lambda: remine(dense_workload.relation, min_support=0.2,
                            min_confidence=0.6))):
        elapsed, other = time_once(run)
        agrees = other.signature() == reference
        rows.append(f"{name:26s} {fmt_ms(elapsed)} {len(other.rules):8d}"
                    f"  {agrees}")
        assert agrees, f"{name} disagrees with the engine's mine()"
    record("E5_fig7_engine_vs_paper_apriori", rows)


def test_fig7_threshold_grid(benchmark, dense_workload):
    """Rule counts across the (α, β) grid; monotone in both axes."""
    def sweep():
        grid = {}
        for min_support in GRID_SUPPORTS:
            for min_confidence in GRID_CONFIDENCES:
                manager = _mine(dense_workload.relation, min_support,
                                min_confidence)
                grid[(min_support, min_confidence)] = (
                    len(manager.rules_of_kind(RuleKind.DATA_TO_ANNOTATION)),
                    len(manager.rules_of_kind(
                        RuleKind.ANNOTATION_TO_ANNOTATION)),
                )
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = ["alpha  beta   #D2A  #A2A"]
    for (min_support, min_confidence), (d2a, a2a) in sorted(grid.items(),
                                                            reverse=True):
        rows.append(f"{min_support:5.2f} {min_confidence:5.2f} "
                    f"{d2a:6d} {a2a:5d}")
    record("E5_fig7_threshold_grid", rows)

    # Shape: rule count is monotone non-increasing in each threshold.
    for min_confidence in GRID_CONFIDENCES:
        counts = [sum(grid[(s, min_confidence)]) for s in GRID_SUPPORTS]
        assert counts == sorted(counts), "support axis must be monotone"
    for min_support in GRID_SUPPORTS:
        counts = [sum(grid[(min_support, c)]) for c in GRID_CONFIDENCES]
        assert counts == sorted(counts), "confidence axis must be monotone"
