"""RuleCatalog: indexes, metric orderings, query planning, explain."""

import itertools

import pytest

from repro.core.catalog import (
    METRICS,
    CatalogQuery,
    RuleCatalog,
    metric_key,
)
from repro.core.events import AddAnnotations
from repro.core.rules import AssociationRule, RuleKind
from repro.errors import CatalogError
from tests.conftest import make_relation


def rule(kind=RuleKind.DATA_TO_ANNOTATION, lhs=(0,), rhs=2,
         union=3, lhs_count=4, db_size=10):
    return AssociationRule(kind=kind, lhs=lhs, rhs=rhs, union_count=union,
                           lhs_count=lhs_count, db_size=db_size)


@pytest.fixture
def rules():
    return [
        rule(lhs=(0,), rhs=2, union=4, lhs_count=6),
        rule(lhs=(0, 1), rhs=2, union=3, lhs_count=4),
        rule(lhs=(1,), rhs=3, union=5, lhs_count=8),
        rule(kind=RuleKind.ANNOTATION_TO_ANNOTATION, lhs=(2,), rhs=3,
             union=2, lhs_count=4),
    ]


@pytest.fixture
def catalog(rules):
    return RuleCatalog(rules, revision=5)


class TestRuleCatalog:
    def test_canonical_listing_order(self, catalog):
        listed = [(r.kind, r.lhs, r.rhs) for r in catalog.rules]
        assert listed == sorted(
            listed, key=lambda entry: (entry[0].value, len(entry[1]),
                                       entry[1], entry[2]))
        assert len(catalog) == 4
        assert list(catalog) == list(catalog.rules)

    def test_revision_and_stats(self, catalog):
        assert catalog.revision == 5
        stats = catalog.stats
        assert stats.revision == 5
        assert stats.rule_count == 4
        assert stats.d2a_rules == 3 and stats.a2a_rules == 1
        assert stats.rhs_index_entries == 2  # rhs 2 and rhs 3
        assert stats.as_dict()["rule_count"] == 4

    def test_key_lookup(self, catalog, rules):
        assert catalog.get(rules[0].key) == rules[0]
        assert rules[0].key in catalog
        missing = (RuleKind.DATA_TO_ANNOTATION, (9,), 2)
        assert catalog.get(missing) is None and missing not in catalog

    def test_index_lookups_match_brute_force(self, catalog, rules):
        for item in catalog.items():
            expected = [r for r in catalog.rules if item in r.union_itemset]
            assert list(catalog.mentioning(item)) == expected
        for rhs in catalog.rhs_items():
            expected = [r for r in catalog.rules if r.rhs == rhs]
            assert list(catalog.with_rhs(rhs)) == expected
        for kind in RuleKind:
            expected = [r for r in catalog.rules if r.kind is kind]
            assert list(catalog.of_kind(kind)) == expected

    def test_missing_buckets_are_empty(self, catalog):
        assert catalog.mentioning(99) == ()
        assert catalog.with_rhs(99) == ()

    def test_metric_orderings_are_presorted(self, catalog):
        for metric in METRICS:
            ordering = catalog.ordered_by(metric)
            assert list(ordering) == sorted(catalog.rules,
                                            key=metric_key(metric))
            assert catalog.top(2, by=metric) == ordering[:2]
        assert catalog.top(100) == catalog.ordered_by("confidence")

    def test_unknown_metric_rejected(self, catalog):
        with pytest.raises(CatalogError, match="unknown ordering metric"):
            catalog.ordered_by("coolness")
        with pytest.raises(CatalogError):
            catalog.top(-1)

    def test_duplicate_keys_rejected(self, rules):
        with pytest.raises(CatalogError, match="duplicate rule keys"):
            RuleCatalog(rules + [rules[0].with_counts(union_count=1)])

    def test_empty_catalog(self):
        empty = RuleCatalog()
        assert len(empty) == 0
        assert empty.items() == () and empty.rhs_items() == ()
        assert empty.top(3) == ()
        assert empty.query().all() == ()


class TestCatalogQuery:
    def test_refinement_is_immutable(self, catalog):
        base = catalog.query()
        narrowed = base.of_kind(RuleKind.DATA_TO_ANNOTATION)
        assert isinstance(narrowed, CatalogQuery)
        assert narrowed is not base
        assert len(base.all()) == 4 and len(narrowed.all()) == 3

    def test_combined_filters(self, catalog):
        results = (catalog.query().mentioning(0)
                   .of_kind(RuleKind.DATA_TO_ANNOTATION).all())
        assert [r.lhs for r in results] == [(0,), (0, 1)]
        results = catalog.query().mentioning(0).mentioning(1).all()
        assert [r.lhs for r in results] == [(0, 1)]

    def test_metric_floors(self, catalog):
        strict = catalog.query().min_confidence(0.7).all()
        assert all(r.confidence >= 0.7 for r in strict)
        assert {r.key for r in strict} == {
            r.key for r in catalog.rules if r.confidence >= 0.7}
        assert catalog.query().min_support(2.0).all() == ()

    def test_where_predicate(self, catalog):
        singles = catalog.query().where(
            lambda r: len(r.lhs) == 1, label="singleton-lhs")
        assert all(len(r.lhs) == 1 for r in singles.all())
        assert "singleton-lhs" in singles.explain().filters

    def test_conflicting_requirements_rejected(self, catalog):
        with pytest.raises(CatalogError, match="exactly one RHS"):
            catalog.query().with_rhs(2).with_rhs(3)
        with pytest.raises(CatalogError, match="can match nothing"):
            (catalog.query().of_kind(RuleKind.DATA_TO_ANNOTATION)
             .of_kind(RuleKind.ANNOTATION_TO_ANNOTATION))

    def test_ordering_and_top(self, catalog):
        by_lift = catalog.query().order_by("lift").all()
        assert list(by_lift) == list(catalog.ordered_by("lift"))
        assert catalog.query().top(2, by="lift") == by_lift[:2]
        # top() on a filtered query re-sorts the narrow match set.
        top_d2a = (catalog.query().of_kind(RuleKind.DATA_TO_ANNOTATION)
                   .top(2, by="support"))
        brute = sorted((r for r in catalog.rules
                        if r.kind is RuleKind.DATA_TO_ANNOTATION),
                       key=metric_key("support"))[:2]
        assert list(top_d2a) == brute

    def test_paging_partitions_the_ordering(self, catalog):
        ordered = catalog.query().order_by("confidence")
        pages = [ordered.page(offset, 2).all() for offset in (0, 2, 4)]
        rejoined = [r for page in pages for r in page]
        assert rejoined == list(catalog.ordered_by("confidence"))
        assert ordered.page(99, 5).all() == ()
        with pytest.raises(CatalogError):
            ordered.page(-1, 5)
        with pytest.raises(CatalogError):
            ordered.page(0, -5)

    def test_top_respects_an_existing_window(self, catalog):
        ordered = catalog.query().order_by("lift")
        windowed = ordered.page(1, 2)
        assert windowed.top(5) == ordered.all()[1:3]  # narrow, not widen
        assert windowed.top(1) == ordered.all()[1:2]
        assert ordered.top(2) == ordered.all()[:2]

    def test_count_ignores_window_and_first(self, catalog):
        windowed = catalog.query().order_by("confidence").page(1, 2)
        assert windowed.count() == 4
        assert len(windowed.all()) == 2
        best = catalog.query().order_by("confidence").first()
        assert best == catalog.ordered_by("confidence")[0]
        assert catalog.query().with_rhs(99).first() is None

    def test_explain_reports_index_selection(self, catalog):
        assert catalog.query().with_rhs(2).explain().index == "rhs"
        # RHS beats item and kind when several constraints compete.
        competing = (catalog.query().with_rhs(2).mentioning(0)
                     .of_kind(RuleKind.DATA_TO_ANNOTATION).explain())
        assert competing.index == "rhs"
        assert "mentions=0" in competing.filters
        assert "kind=data-to-annotation" in competing.filters
        assert catalog.query().mentioning(1).explain().index == "item"
        kind_only = catalog.query().of_kind(
            RuleKind.ANNOTATION_TO_ANNOTATION).explain()
        assert kind_only.index == "kind"
        presorted = catalog.query().order_by("lift").explain()
        assert presorted.index == "ordering:lift" and presorted.presorted
        assert catalog.query().explain().index == "full"

    def test_explain_probes_the_rarest_item_bucket(self, catalog):
        # Item 3 (2 rules) is rarer than item 2 (3 rules): the planner
        # must probe the smaller bucket and re-check the other item.
        explain = catalog.query().mentioning(2).mentioning(3).explain()
        assert explain.index == "item"
        assert explain.candidates == 2
        assert "mentions=2" in explain.filters

    def test_explain_counts(self, catalog):
        explain = (catalog.query().of_kind(RuleKind.DATA_TO_ANNOTATION)
                   .min_confidence(0.7).page(0, 1).explain())
        assert explain.candidates == 3
        assert explain.matched == len(
            catalog.query().of_kind(RuleKind.DATA_TO_ANNOTATION)
            .min_confidence(0.7).page(0, None).all())
        assert explain.returned <= 1
        assert "confidence>=0.7" in explain.filters
        assert explain.describe().startswith("index=kind")


class TestEngineCatalog:
    def test_memoized_per_revision(self, mined_manager):
        first = mined_manager.catalog()
        assert mined_manager.catalog() is first
        assert first.revision == mined_manager.revision == 1
        assert first.rules == tuple(mined_manager.rules.sorted_rules())

    def test_batch_invalidates_exactly_once(self, mined_manager):
        before = mined_manager.catalog()
        revision_before = mined_manager.revision
        mined_manager.apply_batch([
            AddAnnotations.build([(3, "A")]),
            AddAnnotations.build([(7, "B")]),
        ])
        assert mined_manager.revision == revision_before + 1
        after = mined_manager.catalog()
        assert after is not before
        assert after.revision == mined_manager.revision
        assert mined_manager.catalog() is after

    def test_adopt_revision_rekeys_the_catalog(self, mined_manager):
        mined_manager.adopt_revision(41)
        assert mined_manager.revision == 41
        assert mined_manager.catalog().revision == 41
        with pytest.raises(Exception, match="revision must be >= 0"):
            mined_manager.adopt_revision(-1)

    def test_unmined_engine_has_no_catalog(self):
        from repro.core.engine import engine as make_engine
        from repro.errors import MaintenanceError

        fresh = make_engine(make_relation(), min_support=0.25,
                            min_confidence=0.6)
        with pytest.raises(MaintenanceError):
            fresh.catalog()


class TestCatalogConsistencyUnderFailure:
    def test_failed_validation_does_not_serve_stale_rules(
            self, mined_manager, monkeypatch):
        """A batch that mutates the rules and then dies in the
        invariant check leaves the revision unbumped — the catalog
        must still follow the installed rule set, not the dead one."""
        from repro.errors import MaintenanceError

        stale = mined_manager.catalog()
        def boom(*args, **kwargs):
            raise MaintenanceError("forced validation failure")
        monkeypatch.setattr(mined_manager.table, "check_invariants", boom)
        with pytest.raises(MaintenanceError, match="forced validation"):
            mined_manager.apply_batch([AddAnnotations.build([(3, "B")])])

        current = mined_manager.catalog()
        assert current is not stale
        assert current.rules == tuple(mined_manager.rules.sorted_rules())
        assert mined_manager.catalog() is current  # memo still works
        # The numeric revision advanced with the installed rules, so
        # advice stamped pre-batch correctly reads as stale.
        assert mined_manager.revision == 2
        assert current.revision == 2

    def test_engine_catalog_shares_the_rulesets_indexes(self,
                                                        mined_manager):
        base = mined_manager.rules.catalog()
        stamped = mined_manager.catalog()
        assert stamped.revision == mined_manager.revision
        assert stamped.rules is base.rules
        for metric in METRICS:
            assert stamped.ordered_by(metric) is base.ordered_by(metric)

    def test_repeated_executions_keep_one_explain_record(self, catalog):
        query = catalog.query().order_by("lift")
        for _ in range(50):
            query.all()
        assert len(query._last_explain) == 1
        assert query.explain().index == "ordering:lift"
        assert len(query._last_explain) == 1


class TestSignificanceTier:
    """Chi-square / p-value metrics over the catalog's exact counts."""

    def test_hand_computed_contingency(self):
        # n=10, lhs=6, rhs=5, both=4 → a=4 b=2 c=1 d=3,
        # chi2 = n(ad−bc)² / (r₁r₂c₁c₂) = 10·100 / 600.
        catalog = RuleCatalog([rule(union=4, lhs_count=6)],
                              rhs_counts={2: 5})
        only = catalog.rules[0]
        assert catalog.chi_square_of(only) == pytest.approx(10 * 100 / 600)
        assert 0.0 < catalog.p_value_of(only) < 1.0

    def test_matches_the_interest_measures(self, catalog, rules):
        from repro.mining.interest import RuleCounts, chi_square, p_value

        for entry in rules:
            counts = RuleCounts.from_rule(entry, catalog.rhs_count(entry))
            assert catalog.chi_square_of(entry) == \
                pytest.approx(chi_square(counts))
            assert catalog.p_value_of(entry) == \
                pytest.approx(p_value(counts))

    def test_significance_is_memoized_per_key(self, catalog, rules):
        first = catalog.significance(rules[0])
        assert catalog.significance(rules[0]) is first

    def test_rhs_marginal_falls_back_then_enriches(self, rules):
        bare = RuleCatalog(rules)
        entry = rules[0]
        # No enrichment: the rule's own lower bound (clamped feasible).
        assert bare.rhs_count(entry) == entry.rhs_count_estimate
        enriched = RuleCatalog(rules, rhs_counts={entry.rhs: 7})
        assert enriched.rhs_count(entry) == 7
        assert enriched.chi_square_of(entry) != bare.chi_square_of(entry)

    def test_rhs_marginal_clamped_into_feasible_range(self, rules):
        entry = rules[0]   # union=4, db=10
        assert RuleCatalog(rules, rhs_counts={entry.rhs: 2}
                           ).rhs_count(entry) == 4    # >= union_count
        assert RuleCatalog(rules, rhs_counts={entry.rhs: 99}
                           ).rhs_count(entry) == 10   # <= db_size

    def test_metric_value_covers_the_significance_tier(self, catalog, rules):
        entry = rules[0]
        assert catalog.metric_value(entry, "chi_square") == \
            catalog.chi_square_of(entry)
        assert catalog.metric_value(entry, "p_value") == \
            catalog.p_value_of(entry)
        assert catalog.metric_value(entry, "support") == entry.support

    def test_orderings_sort_the_right_way(self, catalog):
        by_chi = catalog.ordered_by("chi_square")
        scores = [catalog.chi_square_of(r) for r in by_chi]
        assert scores == sorted(scores, reverse=True)
        by_p = catalog.ordered_by("p_value")
        p_values = [catalog.p_value_of(r) for r in by_p]
        assert p_values == sorted(p_values)
        assert catalog.top(2, by="chi_square") == by_chi[:2]

    def test_equal_scores_tie_break_deterministically(self):
        # Identical contingency tables → identical chi-square; order
        # must then fall back to confidence, then the canonical key.
        twins = [rule(lhs=(0,), union=4, lhs_count=6),
                 rule(lhs=(1,), union=4, lhs_count=6)]
        catalog = RuleCatalog(twins, rhs_counts={2: 5})
        ordered = catalog.ordered_by("chi_square")
        assert [r.lhs for r in ordered] == [(0,), (1,)]
        assert ordered == catalog.ordered_by("chi_square")

    def test_query_floors_filter_and_explain(self, catalog):
        floor = sorted(catalog.chi_square_of(r) for r in catalog)[1]
        query = catalog.query().min_chi_square(floor)
        result = query.all()
        assert result and all(
            catalog.chi_square_of(r) >= floor for r in result)
        assert f"chi_square>={floor}" in query.explain().filters

        ceiling = 0.9
        query = catalog.query().max_p_value(ceiling).order_by("p_value")
        assert all(catalog.p_value_of(r) <= ceiling for r in query.all())
        assert f"p_value<={ceiling}" in query.explain().filters

    def test_pvalue_paging_partitions_the_ordering(self, catalog):
        ordered = catalog.query().order_by("p_value")
        head = ordered.page(0, 2).all()
        tail = ordered.page(2, None).all()
        assert head + tail == catalog.ordered_by("p_value")

    def test_with_revision_new_marginals_reset_significance(self, rules):
        base = RuleCatalog(rules, revision=1, rhs_counts={2: 5, 3: 6})
        support_ordering = base.ordered_by("support")
        base.ordered_by("chi_square")
        before = base.chi_square_of(rules[0])
        clone = base.with_revision(2, rhs_counts={2: 9, 3: 6})
        # Base-metric orderings are shared; significance recomputes
        # under the new marginals.
        assert clone.ordered_by("support") is support_ordering
        assert clone.chi_square_of(rules[0]) != before
        assert base.chi_square_of(rules[0]) == before


FLOORS = ("min_support", "min_confidence", "min_lift", "min_chi_square")


def floor_metric(catalog, rule, name):
    if name == "min_chi_square":
        return catalog.chi_square_of(rule)
    return getattr(rule, name.removeprefix("min_"))


@pytest.fixture
def grid_catalog():
    """Rules spread over every metric: supports 2..12 of 40 tuples, each
    at several LHS counts, so floors on different metrics cut the rule
    set differently."""
    grid = [rule(lhs=(lhs_id,), rhs=100, union=union,
                 lhs_count=union + extra, db_size=40)
            for lhs_id, (union, extra) in enumerate(
                (union, extra) for union in range(2, 13)
                for extra in (0, 2, 5, 9))]
    return RuleCatalog(grid, rhs_counts={100: 20})


class TestFloorCombinations:
    @pytest.mark.parametrize("names", [
        combo for size in (2, 3, 4)
        for combo in itertools.combinations(FLOORS, size)
    ], ids="+".join)
    def test_each_floor_filters_on_its_own_value(self, grid_catalog,
                                                 names):
        """Floors set together each keep their own value; a floor that
        read another's value would check, say, support against a lift
        threshold and drop every rule."""
        rules = grid_catalog.rules
        floors = {name: sorted(floor_metric(grid_catalog, r, name)
                               for r in rules)[len(rules) // 3]
                  for name in names}
        query = grid_catalog.query()
        for name, value in floors.items():
            query = getattr(query, name)(value)
        expected = [r for r in rules
                    if all(floor_metric(grid_catalog, r, name) >= value
                           for name, value in floors.items())]
        last = floors[names[-1]]
        late_bound = [r for r in rules
                      if all(floor_metric(grid_catalog, r, name) >= last
                             for name in names)]
        assert expected and expected != late_bound, (
            "grid does not separate the floors")
        assert list(query.all()) == expected
        assert query.count() == len(expected)
        for name, value in floors.items():
            label = name.removeprefix("min_")
            assert f"{label}>={value}" in query.explain().filters
