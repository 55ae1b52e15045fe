"""Unit tests for the full re-mining baseline."""

from repro.baselines.remine import remine, signatures_match
from repro.core.engine import CorrelationEngine
from tests.conftest import make_relation


class TestRemine:
    def test_produces_mined_manager(self):
        baseline = remine(make_relation(), min_support=0.25,
                          min_confidence=0.6)
        assert baseline.is_mined
        assert len(baseline.rules) > 0

    def test_does_not_mutate_source_relation(self):
        relation = make_relation()
        version = relation.version
        remine(relation, min_support=0.25, min_confidence=0.6)
        assert relation.version == version

    def test_incremental_manager_unaffected(self):
        relation = make_relation()
        manager = CorrelationEngine(relation, min_support=0.25,
                                    min_confidence=0.6)
        manager.mine()
        remine(relation, min_support=0.25, min_confidence=0.6)
        # Incremental manager must still accept updates (no version drift).
        manager.add_annotations([(3, "A")])

    def test_signatures_match_helper(self):
        relation = make_relation()
        left = remine(relation, min_support=0.25, min_confidence=0.6)
        right = remine(relation, min_support=0.25, min_confidence=0.6)
        assert signatures_match(left, right)
        different = remine(relation, min_support=0.25, min_confidence=0.9)
        assert not signatures_match(left, different)
