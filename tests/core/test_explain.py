"""Unit tests for rule evidence and explanations."""

import pytest

from repro.core.explain import explain_rule, render_evidence, verify_evidence
from tests.conftest import make_relation
from repro.core.engine import CorrelationEngine


@pytest.fixture
def manager():
    rows = [(("1", "2"), ("A",))] * 5 + [(("1", "3"), ())] \
        + [(("4", "2"), ())] * 2
    manager = CorrelationEngine(make_relation(rows), min_support=0.3,
                                min_confidence=0.6)
    manager.mine()
    return manager


def rule_with_lhs_token(manager, token):
    for rule in manager.rules:
        if manager.vocabulary.render(rule.lhs) == token:
            return rule
    raise AssertionError(f"no rule with LHS {token!r}")


class TestExplainRule:
    def test_supporting_and_violating_tids(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        evidence = explain_rule(manager, rule)
        assert evidence.supporting_tids == (0, 1, 2, 3, 4)
        assert evidence.violating_tids == (5,)
        assert evidence.exception_rate == pytest.approx(1 / 6)

    def test_counts_cross_check(self, manager):
        for rule in manager.rules:
            evidence = explain_rule(manager, rule)
            assert verify_evidence(manager, evidence), \
                rule.render(manager.vocabulary)

    def test_cross_check_after_incremental_updates(self, manager):
        manager.add_annotations([(5, "A"), (6, "B")])
        manager.insert_annotated([(("1", "2"), ("A",))])
        for rule in manager.rules:
            evidence = explain_rule(manager, rule)
            assert verify_evidence(manager, evidence)

    def test_max_tids_truncation(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        evidence = explain_rule(manager, rule, max_tids=2)
        assert len(evidence.supporting_tids) == 2

    def test_measures_included(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        evidence = explain_rule(manager, rule,
                                measures=("lift", "kulczynski"))
        assert set(evidence.measures) == {"lift", "kulczynski"}
        assert evidence.measures["lift"] > 1.0  # planted correlation

    def test_rhs_count_is_frequency_table_entry(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        evidence = explain_rule(manager, rule)
        assert evidence.rhs_count == manager.index.frequency(rule.rhs)


class TestRender:
    def test_text_block_contents(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        text = render_evidence(manager, explain_rule(manager, rule))
        assert "==>" in text
        assert "lift" in text
        assert "exceptions: 1 tuple(s)" in text
        assert "violates tid=5" in text

    def test_sample_limits_rows(self, manager):
        rule = rule_with_lhs_token(manager, "1")
        text = render_evidence(manager, explain_rule(manager, rule),
                               sample=1)
        assert text.count("supports tid=") == 1
