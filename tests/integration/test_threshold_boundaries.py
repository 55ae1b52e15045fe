"""Threshold boundary rounding, unit-level and through both miners.

``min_count_for`` and ``meets_fraction`` define the support floor at
exact ``fraction * total`` products (0.3 × 10, 1/3 × 3, …), where naive
``ceil`` arithmetic flips on float noise.  These tests pin the boundary
at the helper level and then assert the *same* boundary is applied by
the engine's mine(), by a sharded mine and by the paper's hash-tree
Apriori (``remine``):
a pattern sitting exactly on the floor is frequent everywhere or
nowhere.
"""

import pytest

from repro._util import EPSILON, meets_fraction, min_count_for
from repro.baselines.remine import remine
from repro.core.engine import engine
from tests.conftest import make_relation

#: (fraction, total, expected floor) at exact-product boundaries.
EXACT_BOUNDARIES = [
    (0.3, 10, 3),        # 0.3 * 10 = 3.0 despite 0.3 being inexact
    (1 / 3, 3, 1),       # 1/3 * 3 = 0.999... -> exactly 1
    (1 / 3, 6, 2),
    (2 / 3, 3, 2),
    (0.1, 10, 1),
    (0.25, 8, 2),
    (0.2, 5, 1),
    (0.7, 10, 7),
]


class TestHelperBoundaries:
    @pytest.mark.parametrize("fraction,total,floor", EXACT_BOUNDARIES)
    def test_min_count_at_exact_products(self, fraction, total, floor):
        assert min_count_for(fraction, total) == floor

    @pytest.mark.parametrize("fraction,total,floor", EXACT_BOUNDARIES)
    def test_meets_fraction_agrees_at_the_edge(self, fraction, total, floor):
        assert meets_fraction(floor, total, fraction)
        assert not meets_fraction(floor - 1, total, fraction)

    def test_epsilon_absorbs_float_noise_only(self):
        # A count one below an exact product must not sneak in through
        # the epsilon, and the epsilon itself is far below 1 count.
        assert EPSILON < 1e-6
        assert not meets_fraction(2, 10, 0.3)
        assert min_count_for(0.3 + 1e-3, 10) == 4


def _ten_tuple_relation():
    """10 tuples; ("1", A) co-occurs in exactly 3 — support 3/10."""
    rows = [
        (("1", "2"), ("A",)),
        (("1", "3"), ("A",)),
        (("1", "4"), ("A",)),
        (("5", "2"), ("B",)),
        (("5", "3"), ("B",)),
        (("5", "4"), ()),
        (("6", "2"), ()),
        (("6", "3"), ()),
        (("6", "4"), ()),
        (("7", "2"), ()),
    ]
    return make_relation(rows)


def _three_tuple_relation():
    """3 tuples; ("1", A) occurs once — support exactly 1/3."""
    rows = [
        (("1", "2"), ("A",)),
        (("3", "4"), ()),
        (("5", "6"), ()),
    ]
    return make_relation(rows)


def _pattern_tokens(eng):
    return {
        tuple(sorted(eng.vocabulary.item(item).token for item in itemset))
        for itemset in eng.table
    }


def _engine_mine(relation, min_support):
    eng = engine(relation, min_support=min_support, min_confidence=0.5,
                 margin=1.0, validate=True)
    eng.mine()
    return eng


def _paper_remine(relation, min_support):
    return remine(relation, min_support=min_support, min_confidence=0.5,
                  margin=1.0)


def _sharded_mine(relation, min_support):
    # Three shards put the boundary on the SON merge's local floors.
    eng = engine(relation, min_support=min_support, min_confidence=0.5,
                 margin=1.0, shards=3, validate=True)
    eng.mine()
    return eng


#: The engine's from-scratch mine, the same over shards, and the
#: paper's hash-tree Apriori.
PIPELINES = {"mine": _engine_mine, "sharded": _sharded_mine,
             "remine": _paper_remine}


class TestPipelineBoundaryAgreement:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_exact_three_tenths_is_frequent(self, pipeline):
        eng = PIPELINES[pipeline](_ten_tuple_relation(), 0.3)
        assert ("1", "A") in {
            tokens for tokens in _pattern_tokens(eng) if len(tokens) == 2}

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_just_above_the_exact_product_is_not(self, pipeline):
        eng = PIPELINES[pipeline](_ten_tuple_relation(), 0.3 + 1e-3)
        assert ("1", "A") not in _pattern_tokens(eng)

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_exact_one_third_of_three(self, pipeline):
        eng = PIPELINES[pipeline](_three_tuple_relation(), 1 / 3)
        assert ("1", "A") in _pattern_tokens(eng)

    def test_pipelines_agree_at_boundaries(self):
        """Identical tables at the boundary thresholds from the bitmap
        vertical miner, its sharded SON merge and the hash-tree
        Apriori."""
        for relation_factory, min_support in (
                (_ten_tuple_relation, 0.3),
                (_three_tuple_relation, 1 / 3)):
            tables = {name: _pattern_tokens(run(relation_factory(),
                                                min_support))
                      for name, run in PIPELINES.items()}
            assert tables["mine"] == tables["sharded"] == \
                tables["remine"], (
                    f"the pipelines drew different support boundaries "
                    f"at {min_support}: {tables}")
