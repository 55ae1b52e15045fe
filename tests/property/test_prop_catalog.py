"""Catalog queries == brute-force linear scans, on any maintained state.

The catalog is pure read-path machinery: whatever rule set incremental
maintenance produced, every indexed answer must equal the answer a
linear scan over ``engine.rules`` gives.  This suite drives randomized
event streams through the engine, then checks
the full query surface — by-item, by-RHS, by-kind, metric top-k,
pagination, and composed filters — against brute force over the same
rules with the same tie-breaks.
"""

import pytest

from repro.core.catalog import METRICS, metric_key
from repro.core.engine import engine
from repro.core.rules import RuleKind
from repro.synth import workloads
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import make_relation

SEEDS = (5, 23, 3, 7, 11, 13, 17, 19, 29, 31, 37, 41)


def drawn_events(relation, count, seed):
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(seed=seed, batch_size=3))
    return list(stream.take(
        count, apply=lambda event: apply_to_relation(shadow, event)))


def maintained_engine(seed):
    relation = make_relation()
    events = drawn_events(relation, count=8, seed=seed)
    eng = engine(relation, min_support=0.25, min_confidence=0.6,
                 validate=True)
    eng.mine()
    eng.apply_batch(events)
    return eng


#: Floor combinations checked together: each floor must filter on its
#: own value, whatever floors are set beside it.
FLOOR_COMBINATIONS = (
    ("min_support", "min_confidence"),
    ("min_confidence", "min_lift"),
    ("min_support", "min_confidence", "min_lift"),
    ("min_lift", "min_chi_square"),
)


def _metric(catalog, rule, floor_name):
    if floor_name == "min_chi_square":
        return catalog.chi_square_of(rule)
    return getattr(rule, floor_name.removeprefix("min_"))


def assert_floors_equal_linear_scan(catalog, context):
    """Each floor combination, every floor set at its metric's median
    over the catalog, returns exactly the brute-force filter."""
    rules = catalog.rules
    if not rules:
        return
    for names in FLOOR_COMBINATIONS:
        floors = {name: sorted(_metric(catalog, rule, name)
                               for rule in rules)[len(rules) // 2]
                  for name in names}
        query = catalog.query()
        for name, value in floors.items():
            query = getattr(query, name)(value)
        brute = [rule for rule in rules
                 if all(_metric(catalog, rule, name) >= value
                        for name, value in floors.items())]
        assert list(query.all()) == brute, (context, floors)
        assert query.count() == len(brute), (context, floors)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_catalog_query_equals_linear_scan(seed, seeds):
    eng = maintained_engine(seeds.seed(seed))
    catalog = eng.catalog()
    rules = list(eng.rules)
    context = f"(seed={seed})"
    assert len(catalog) == len(rules), context

    all_items = sorted({item for rule in rules
                        for item in rule.union_itemset})
    assert list(catalog.items()) == all_items, context
    for item in all_items + [max(all_items, default=0) + 10]:
        brute = [rule for rule in catalog.rules
                 if item in rule.union_itemset]
        assert list(catalog.mentioning(item)) == brute, context
        assert list(catalog.query().mentioning(item).all()) == brute, context

    all_rhs = sorted({rule.rhs for rule in rules})
    assert list(catalog.rhs_items()) == all_rhs, context
    for rhs in all_rhs:
        brute = [rule for rule in catalog.rules if rule.rhs == rhs]
        assert list(catalog.with_rhs(rhs)) == brute, context
        assert list(catalog.query().with_rhs(rhs).all()) == brute, context

    for kind in RuleKind:
        brute = [rule for rule in catalog.rules if rule.kind is kind]
        assert list(catalog.of_kind(kind)) == brute, context

    for metric in METRICS:
        brute = sorted(rules, key=metric_key(metric))
        assert list(catalog.ordered_by(metric)) == brute, context
        for n in (0, 1, 3, len(rules) + 5):
            assert list(catalog.top(n, by=metric)) == brute[:n], context


@pytest.mark.parametrize("seed", SEEDS)
def test_paged_and_composed_queries_equal_linear_scan(seed, seeds):
    eng = maintained_engine(seeds.seed(seed))
    catalog = eng.catalog()
    rules = list(eng.rules)
    rng = seeds.rng(seed * 13 + 1)
    context = f"(seed={seed})"

    # Random pages over each metric ordering re-join into the whole.
    for metric in METRICS:
        brute = sorted(rules, key=metric_key(metric))
        page_size = rng.randint(1, max(1, len(rules) // 2))
        rejoined = []
        for offset in range(0, len(rules) + page_size, page_size):
            rejoined.extend(
                catalog.query().order_by(metric)
                .page(offset, page_size).all())
        assert rejoined == brute, context

    # Composed filter + ordering + window, vs the same pipeline by hand.
    floor = rng.choice((0.0, 0.6, 0.8, 1.0))
    for kind in RuleKind:
        for metric in METRICS:
            query = (catalog.query().of_kind(kind).min_confidence(floor)
                     .order_by(metric).page(1, 2))
            brute = sorted(
                (rule for rule in rules
                 if rule.kind is kind and rule.confidence >= floor),
                key=metric_key(metric))[1:3]
            assert list(query.all()) == brute, context
            assert query.count() == sum(
                1 for rule in rules
                if rule.kind is kind and rule.confidence >= floor), context

    assert_floors_equal_linear_scan(catalog, context)

    # explain() must name a real index and truthful candidate counts.
    if rules:
        probe = rng.choice(rules)
        explain = (catalog.query().with_rhs(probe.rhs)
                   .order_by("lift").explain())
        assert explain.index == "rhs", context
        assert explain.candidates == len(catalog.with_rhs(probe.rhs)), context
        assert explain.matched == explain.candidates, context


def test_combined_floors_equal_linear_scan_at_paper_scale():
    """A rule set large enough that every floor combination keeps some
    rules and drops others."""
    workload = workloads.paper_scale(n_tuples=2000, seed=1)
    eng = engine(workload.relation, min_support=0.1, min_confidence=0.5)
    eng.mine()
    assert_floors_equal_linear_scan(eng.catalog(), "(paper_scale)")
