"""Unit tests for the Figure 7 rules output format."""

import io

import pytest

from repro.core.engine import CorrelationEngine
from repro.errors import FormatError
from repro.io.rules_format import (
    format_rule,
    parse_rule_line,
    parse_rules,
    write_rules,
)
from tests.conftest import make_relation


@pytest.fixture
def mined():
    manager = CorrelationEngine(make_relation(), min_support=0.25,
                                min_confidence=0.6)
    manager.mine()
    return manager


class TestParse:
    def test_paper_example_line(self):
        parsed = parse_rule_line("28 85 ==> Annot_1, 0.9659, 0.4194")
        assert parsed.lhs_tokens == ("28", "85")
        assert parsed.rhs_token == "Annot_1"
        assert parsed.confidence == pytest.approx(0.9659)
        assert parsed.support == pytest.approx(0.4194)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            parse_rule_line("not a rule at all")

    def test_out_of_range_statistic_rejected(self):
        with pytest.raises(FormatError):
            parse_rule_line("1 ==> A, 1.5, 0.2")

    def test_comments_and_blanks_skipped(self):
        parsed = list(parse_rules(["# rules", "", "1 ==> A, 0.9, 0.5"]))
        assert len(parsed) == 1


class TestWrite:
    def test_write_and_parse_round_trip(self, mined):
        buffer = io.StringIO()
        written = write_rules(mined.rules, mined.vocabulary, buffer)
        assert written == len(mined.rules)
        parsed = list(parse_rules(io.StringIO(buffer.getvalue())))
        assert len(parsed) == written
        rendered = {format_rule(rule, mined.vocabulary)
                    for rule in mined.rules}
        for line, entry in zip(buffer.getvalue().splitlines(), parsed):
            assert line in rendered
            assert 0.0 <= entry.confidence <= 1.0

    def test_write_plain_iterable(self, mined):
        buffer = io.StringIO()
        rules = list(mined.rules)
        assert write_rules(rules, mined.vocabulary, buffer) == len(rules)

    def test_write_to_path(self, mined, tmp_path):
        path = tmp_path / "rules.txt"
        written = write_rules(mined.rules, mined.vocabulary, path)
        assert len(list(parse_rules(path))) == written

    def test_statistics_match_rule_values(self, mined):
        buffer = io.StringIO()
        write_rules(mined.rules, mined.vocabulary, buffer)
        by_line = {
            (entry.lhs_tokens, entry.rhs_token): entry
            for entry in parse_rules(io.StringIO(buffer.getvalue()))
        }
        for rule in mined.rules:
            lhs_tokens = tuple(sorted(
                mined.vocabulary.item(item).token for item in rule.lhs))
            rhs_token = mined.vocabulary.item(rule.rhs).token
            entry = by_line[(lhs_tokens, rhs_token)]
            assert entry.support == pytest.approx(rule.support, abs=1e-4)
            assert entry.confidence == pytest.approx(rule.confidence,
                                                     abs=1e-4)
