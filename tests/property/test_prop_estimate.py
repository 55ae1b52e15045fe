"""Estimate-tier property suite.

``mode=estimate`` re-counts the published rules from the engine's
vertical index and folds the pending insert queue in on top.  Three
contracts back it, each checked over randomized ``drawn_events``
streams on a monolithic engine and a shard-skewed 3-shard engine:

* **Exact with nothing queued.**  At every batch boundary each
  estimated rule equals its exact catalog twin — count, support,
  confidence and lift — with every bound 0.0.
* **Reads only.**  An engine estimated at every boundary keeps a
  ``signature()`` byte-identical to a twin nobody estimated.
* **The overlay is the flush.**  With insert events still queued, the
  estimated counts equal the counts the engine holds after flushing
  exactly those events.

The lift denominator (each RHS marginal) is checked against an engine
rebuilt from the churned relation, and the ``confidence_level`` knob
is checked to change nothing but the echoed ``z``.
"""

import pytest

from repro.app.estimate import ESTIMATE_METRICS, estimate_snapshot, z_score
from repro.core.engine import engine
from repro.core.events import AddAnnotatedTuples, AddUnannotatedTuples
from repro.shard import ShardedEngine
from repro.synth import workloads
from tests.conftest import make_relation
from tests.property.test_prop_shard import drawn_events

SEEDS = (5, 31, 3, 7, 11, 13, 17, 19, 23, 29, 37, 41)
SHARD_SEEDS = (83, 89, 97)


def estimate_of(manager, pending=()):
    return estimate_snapshot(manager, manager.catalog().rules,
                             list(pending), session="p",
                             revision=manager.revision)


def token_key(rule, vocabulary):
    """A rule's identity across engines: item ids are per-vocabulary
    (a sharded engine interns in another order), items are not."""
    return (rule.kind, frozenset(map(vocabulary.item, rule.lhs)),
            vocabulary.item(rule.rhs))


def assert_estimates_exact(manager, reference):
    """Every estimated rule of ``manager`` equals the rule in the
    ``reference`` engine's exact catalog, with zero bounds."""
    catalog = reference.catalog()
    exact = {token_key(rule, reference.vocabulary): rule
             for rule in catalog.rules}
    snap = estimate_of(manager)
    assert snap.db_size == reference.db_size
    assert len(snap) == len(exact)
    for estimated in snap:
        rule = exact[token_key(estimated.rule, manager.vocabulary)]
        est = estimated.estimate
        assert [estimated.bound(metric) for metric in ESTIMATE_METRICS] \
            == [0.0, 0.0, 0.0]
        assert est.count == rule.union_count
        assert est.support == rule.support
        assert est.confidence == rule.confidence
        assert est.lift == rule.confidence / (
            catalog.rhs_count(rule) / rule.db_size)


def skewed_sharded(relation):
    """A 3-shard engine whose inserted tuples all land on shard 0."""
    base = relation.tid_range

    def skewed(tid: int) -> int:
        return tid % 3 if tid < base else 0

    return ShardedEngine(relation.copy(), min_support=0.25,
                         min_confidence=0.6, validate=True, shards=3,
                         partitioner=skewed)


def monolithic(relation):
    return engine(relation.copy(), min_support=0.25, min_confidence=0.6,
                  validate=True)


def synthetic_relation(rng, rows=360):
    """A relation with heavy token overlap, so many rules share items
    and their counts run well past the reference fixture's handful."""
    annotations = ("A", "B", "C")
    data = []
    for _ in range(rows):
        values = (str(rng.randrange(3)), str(rng.randrange(4)))
        labels = tuple(a for a in annotations if rng.random() < 0.45)
        data.append((values, labels))
    return make_relation(data)


def boundaries(events, rng, cuts=3):
    points = sorted(rng.sample(range(1, len(events)), cuts))
    return [events[start:stop]
            for start, stop in zip([0, *points], [*points, len(events)])]


@pytest.mark.parametrize("seed", SEEDS)
def test_monolithic_estimates_equal_the_catalog_at_every_boundary(
        seed, seeds):
    relation = make_relation()
    events = drawn_events(relation, count=12, seed=seeds.seed(seed))
    untouched = monolithic(relation)
    probed = monolithic(relation)
    untouched.mine()
    probed.mine()
    assert_estimates_exact(probed, untouched)
    for batch in boundaries(events, seeds.rng(seed * 977)):
        untouched.apply_batch(batch)
        probed.apply_batch(batch)
        assert_estimates_exact(probed, untouched)
        assert probed.signature() == untouched.signature()


@pytest.mark.parametrize("seed", SHARD_SEEDS)
def test_sharded_estimates_equal_the_monolith_at_every_boundary(
        seed, seeds):
    relation = make_relation()
    events = drawn_events(relation, count=12, seed=seeds.seed(seed))
    mono = monolithic(relation)
    untouched = skewed_sharded(relation)
    probed = skewed_sharded(relation)
    for manager in (mono, untouched, probed):
        manager.mine()
    assert_estimates_exact(probed, mono)
    for batch in boundaries(events, seeds.rng(seed * 977)):
        for manager in (mono, untouched, probed):
            manager.apply_batch(batch)
        assert_estimates_exact(probed, mono)
        assert probed.signature() == untouched.signature() \
            == mono.signature()


@pytest.mark.parametrize("build", (monolithic, skewed_sharded),
                         ids=("monolithic", "sharded"))
@pytest.mark.parametrize("seed", (5, 31, 83))
def test_pending_inserts_count_as_if_flushed(build, seed, seeds):
    relation = make_relation()
    events = drawn_events(relation, count=24, seed=seeds.seed(seed + 50))
    inserts = [event for event in events
               if isinstance(event, (AddAnnotatedTuples,
                                     AddUnannotatedTuples))]
    assert inserts, "stream drew no insert events"
    manager = build(relation)
    manager.mine()
    snap = estimate_of(manager, inserts)
    assert snap.overlay_rows > 0

    manager.apply_batch(inserts)
    index = manager.index
    assert snap.db_size == manager.db_size
    for estimated in snap:
        rule, est = estimated.rule, estimated.estimate
        union = index.count(rule.union_itemset)
        lhs = index.count(rule.lhs)
        assert est.count == union
        assert est.support == union / manager.db_size
        assert est.confidence == union / lhs
        assert est.lift == (union / lhs) / (
            index.frequency(rule.rhs) / manager.db_size)


@pytest.mark.parametrize("build", (monolithic, skewed_sharded),
                         ids=("monolithic", "sharded"))
@pytest.mark.parametrize("seed", (5, 31))
def test_rhs_marginals_match_a_rebuilt_engine_after_churn(build, seed,
                                                         seeds):
    """The lift denominator is the RHS item's live frequency: at every
    boundary of a randomized stream of inserts, deletions and
    annotation edits, each item's frequency — and so each estimated
    lift — equals what an engine rebuilt from the relation counts."""
    relation = make_relation()
    events = drawn_events(relation, count=14, seed=seeds.seed(seed + 50))
    manager = build(relation)
    manager.mine()
    lifts_checked = 0
    for batch in boundaries(events, seeds.rng(seed * 977)):
        manager.apply_batch(batch)
        rebuilt = monolithic(manager.relation)
        rebuilt.mine()
        vocabulary = manager.vocabulary
        live = {vocabulary.item(item_id): manager.index.frequency(item_id)
                for item_id in range(len(vocabulary))}
        assert {item: count for item, count in live.items() if count} == {
            rebuilt.vocabulary.item(item_id):
                rebuilt.index.frequency(item_id)
            for item_id in range(len(rebuilt.vocabulary))
            if rebuilt.index.frequency(item_id)}
        snap = estimate_of(manager)
        assert snap.db_size == rebuilt.db_size
        for estimated in snap:
            est = estimated.estimate
            marginal = live[vocabulary.item(estimated.rule.rhs)]
            assert est.lift == est.confidence / (marginal / snap.db_size)
            lifts_checked += 1
    assert lifts_checked, "no boundary held a rule to check"


@pytest.mark.parametrize("confidence_level", (0.9, 0.95))
@pytest.mark.parametrize("seed", (5, 31))
def test_every_confidence_level_reads_the_exact_counts(
        confidence_level, seed, seeds):
    """Asking for a coverage level only changes the echoed ``z``: on a
    dense relation every count is still the mined one, every bound 0."""
    manager = engine(synthetic_relation(seeds.rng(seed * 131 + 7)),
                     min_support=0.05, min_confidence=0.3)
    manager.mine()
    rules = manager.catalog().rules
    assert len(rules) > 10, "scenario too small to say anything"
    snap = estimate_snapshot(manager, rules, [], session="p",
                             revision=manager.revision,
                             confidence_level=confidence_level)
    assert snap.confidence_level == confidence_level
    assert snap.z == z_score(confidence_level)
    by_key = {estimated.rule.key: estimated for estimated in snap}
    assert len(by_key) == len(rules)
    for rule in rules:
        estimated = by_key[rule.key]
        assert [estimated.bound(metric) for metric in ESTIMATE_METRICS] \
            == [0.0, 0.0, 0.0]
        est = estimated.estimate
        assert est.count == rule.union_count
        assert est.support == rule.support
        assert est.confidence == rule.confidence


@pytest.mark.parametrize("shards", (1, 2, 3))
def test_exact_past_any_sample_size(shards):
    """``paper_scale(2000)`` rules hold items with far more than 256
    tids — the scale where a sampled count stops being exact."""
    workload = workloads.paper_scale(n_tuples=2000)
    manager = engine(workload.relation.copy(),
                     min_support=workload.min_support,
                     min_confidence=workload.min_confidence,
                     shards=shards)
    manager.mine()
    reference = engine(workload.relation.copy(),
                       min_support=workload.min_support,
                       min_confidence=workload.min_confidence)
    reference.mine()
    rules = manager.catalog().rules
    assert rules
    assert min(manager.index.frequency(rule.rhs) for rule in rules) > 256
    assert_estimates_exact(manager, reference)
