"""Unit tests for the full re-mining baseline."""

import pytest

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

    def test_never_reaches_the_engine_encoder_or_miner(self, monkeypatch):
        """The oracle stays independent of what it checks: with the bulk
        encoder and the vertical miner disabled, the engine cannot mine
        but ``remine`` still returns the engine's signature."""
        import repro.core.engine
        import repro.mining.eclat
        import repro.relation.transactions

        relation = make_relation()
        engine = CorrelationEngine(relation.copy(), min_support=0.25,
                                   min_confidence=0.6)
        engine.mine()

        def disabled(*args, **kwargs):
            raise AssertionError("the re-mine oracle reached engine code")

        for module, name in (
                (repro.relation.transactions, "encode_relation"),
                (repro.core.engine, "encode_relation"),
                (repro.mining.eclat, "mine_frequent_itemsets_vertical"),
                (repro.core.engine, "mine_frequent_itemsets_vertical")):
            monkeypatch.setattr(module, name, disabled)
        with pytest.raises(AssertionError, match="oracle reached"):
            CorrelationEngine(relation.copy(), min_support=0.25,
                              min_confidence=0.6).mine()
        baseline = remine(relation, min_support=0.25, min_confidence=0.6)
        assert baseline.signature() == engine.signature()
