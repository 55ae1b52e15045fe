"""Revision-keyed rule catalog — the serving read path's index layer.

The write path (PRs 1–3) batches, coalesces and dirty-scopes its work;
this module gives the *read* path the same treatment.  A
:class:`RuleCatalog` is an immutable snapshot of one rule set, built
once per engine revision, carrying the secondary indexes a served
system answers queries from:

* ``by item``  — every rule whose LHS or RHS mentions an item;
* ``by RHS``   — every rule predicting a given annotation item;
* ``by kind``  — the paper's two correlation families;
* presorted **metric orderings** (support / confidence / lift), so
  top-k and paging are slices instead of per-call sorts.

Queries compose through :class:`CatalogQuery`
(``catalog.query().mentioning(item).of_kind(kind).top(5, by="lift")``),
which plans against the most selective available index and can report
that choice through :meth:`CatalogQuery.explain`.

Catalogs never mutate: incremental maintenance produces a *new*
revision, and :meth:`~repro.core.engine.CorrelationEngine.catalog`
memoizes one catalog per revision — so any number of concurrent
readers share one set of indexes, and an unchanged-revision read is a
cache hit, not a rebuild.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace

from repro.core.rules import AssociationRule, RuleKey, RuleKind
from repro.errors import CatalogError
from repro.mining.interest import (
    RuleCounts,
    chi_square as _chi_square_measure,
    p_value as _p_value_measure,
)

#: Metrics with a precomputed descending ordering in every catalog.
METRICS = ("support", "confidence", "lift")

#: Significance metrics (Chanda et al.): computed from the 2x2
#: contingency table, so they need the RHS marginal the catalog is
#: enriched with (:meth:`RuleCatalog.with_revision`), falling back to
#: the rule's own lower-bound estimate otherwise.  ``chi_square``
#: orders descending (stronger association first), ``p_value``
#: ascending (stronger evidence first).
SIGNIFICANCE_METRICS = ("chi_square", "p_value")

#: Every metric a query may filter or order by.
ALL_METRICS = METRICS + SIGNIFICANCE_METRICS


def ensure_metric(metric: str) -> str:
    """Validate an ordering/floor metric name (any of ``ALL_METRICS``)."""
    if metric not in ALL_METRICS:
        raise CatalogError(
            f"unknown ordering metric {metric!r}; "
            f"choose from {', '.join(ALL_METRICS)}")
    return metric

#: The canonical (paper Figure 7 listing) order — the ordering every
#: catalog stores its rules in, and the tie-break within each metric.
_CANONICAL = "canonical"


def _canonical_key(rule: AssociationRule) -> tuple:
    return (rule.kind.value, len(rule.lhs), rule.lhs, rule.rhs)


#: Descending metric, then secondary metric, then stable listing order
#: (kind, LHS, RHS) so equal-scored rules page deterministically.
_METRIC_KEYS: dict[str, Callable[[AssociationRule], tuple]] = {
    "support": lambda rule: (-rule.support, -rule.confidence,
                             rule.kind.value, rule.lhs, rule.rhs),
    "confidence": lambda rule: (-rule.confidence, -rule.support,
                                rule.kind.value, rule.lhs, rule.rhs),
    "lift": lambda rule: (-rule.lift, -rule.confidence,
                          rule.kind.value, rule.lhs, rule.rhs),
}


def metric_key(metric: str) -> Callable[[AssociationRule], tuple]:
    """The sort key a metric ordering uses (exposed for equivalence
    tests: brute-force answers must sort with the same tie-breaks)."""
    try:
        return _METRIC_KEYS[metric]
    except KeyError:
        raise CatalogError(
            f"unknown ordering metric {metric!r}; "
            f"choose from {', '.join(METRICS)}") from None


@dataclass(frozen=True, slots=True)
class CatalogStats:
    """Shape of one catalog — persisted alongside engine snapshots so a
    restore can verify it rebuilt the same read state."""

    revision: int
    rule_count: int
    d2a_rules: int
    a2a_rules: int
    item_index_entries: int
    rhs_index_entries: int

    def as_dict(self) -> dict[str, int]:
        return {
            "revision": self.revision,
            "rule_count": self.rule_count,
            "d2a_rules": self.d2a_rules,
            "a2a_rules": self.a2a_rules,
            "item_index_entries": self.item_index_entries,
            "rhs_index_entries": self.rhs_index_entries,
        }


@dataclass(frozen=True, slots=True)
class QueryExplain:
    """How one query was served — the read-path audit trail.

    ``index`` names the structure that produced the candidate set:
    ``"rhs"``, ``"item"``, ``"kind"``, ``"ordering:<metric>"`` (a
    presorted slice) or ``"full"`` (no index applied).
    """

    index: str
    candidates: int
    matched: int
    returned: int
    filters: tuple[str, ...]
    ordering: str
    presorted: bool
    offset: int
    limit: int | None

    def describe(self) -> str:
        window = (f"[{self.offset}:"
                  f"{'' if self.limit is None else self.offset + self.limit}]")
        residual = ", ".join(self.filters) if self.filters else "none"
        return (f"index={self.index} candidates={self.candidates} "
                f"matched={self.matched} returned={self.returned} "
                f"ordering={self.ordering}"
                f"{' (presorted)' if self.presorted else ''} "
                f"window={window} residual-filters: {residual}")


class RuleCatalog:
    """An immutable, fully indexed snapshot of one rule set revision."""

    __slots__ = ("_revision", "_rules", "_by_key", "_by_item", "_by_rhs",
                 "_by_kind", "_orderings", "_sig_orderings", "_stats",
                 "_rhs_counts", "_significance")

    def __init__(self, rules: Iterable[AssociationRule] = (), *,
                 revision: int = 0,
                 rhs_counts: dict[int, int] | None = None) -> None:
        ordered = tuple(sorted(rules, key=_canonical_key))
        self._revision = revision
        self._rules = ordered
        self._by_key: dict[RuleKey, AssociationRule] = {
            rule.key: rule for rule in ordered}
        if len(self._by_key) != len(ordered):
            raise CatalogError(
                "duplicate rule keys in catalog input — a catalog "
                "snapshots one keyed rule set")

        by_item: dict[int, list[AssociationRule]] = {}
        by_rhs: dict[int, list[AssociationRule]] = {}
        by_kind: dict[RuleKind, list[AssociationRule]] = {}
        for rule in ordered:
            for item in rule.union_itemset:
                by_item.setdefault(item, []).append(rule)
            by_rhs.setdefault(rule.rhs, []).append(rule)
            by_kind.setdefault(rule.kind, []).append(rule)
        self._by_item = {item: tuple(bucket)
                         for item, bucket in by_item.items()}
        self._by_rhs = {rhs: tuple(bucket) for rhs, bucket in by_rhs.items()}
        self._by_kind = {kind: tuple(bucket)
                         for kind, bucket in by_kind.items()}
        # Metric orderings fill lazily on first use (memoized per
        # metric, shared with re-stamped clones): index-only consumers
        # never pay for sorts they don't ask for.  Base-metric
        # orderings live apart from the significance ones because the
        # former never depend on the RHS marginals — a marginal-
        # enriched clone keeps sharing the base dict (even for sorts
        # built *after* cloning) and resets only the significance side.
        self._orderings: dict[str, tuple[AssociationRule, ...]] = {}
        self._sig_orderings: dict[str, tuple[AssociationRule, ...]] = {}
        #: Exact RHS marginals (item -> frequency) the engine enriches
        #: the catalog with at memo time; ``None`` means significance
        #: falls back to each rule's lower-bound RHS estimate.
        self._rhs_counts = dict(rhs_counts) if rhs_counts else None
        #: Lazily memoized (chi_square, p_value) per rule key.
        self._significance: dict[RuleKey, tuple[float, float]] = {}
        self._stats = CatalogStats(
            revision=revision,
            rule_count=len(ordered),
            d2a_rules=len(self._by_kind.get(RuleKind.DATA_TO_ANNOTATION, ())),
            a2a_rules=len(self._by_kind.get(
                RuleKind.ANNOTATION_TO_ANNOTATION, ())),
            item_index_entries=len(self._by_item),
            rhs_index_entries=len(self._by_rhs),
        )

    # -- identity ------------------------------------------------------------

    @property
    def revision(self) -> int:
        """The engine revision this catalog was built from."""
        return self._revision

    def with_revision(self, revision: int, *,
                      rhs_counts: dict[int, int] | None = None
                      ) -> "RuleCatalog":
        """This catalog re-keyed to ``revision``, sharing every index.

        The engine uses this to stamp its revision onto the catalog
        the rule set lazily built (keyed by its own mutation counter),
        so the two memo layers share one set of indexes instead of
        building duplicates.  All shared structures are immutable.

        ``rhs_counts`` optionally enriches the clone with exact RHS
        marginals for the significance metrics; a clone with *new*
        counts gets fresh significance memos (and drops any
        significance orderings computed under the old counts) while
        still sharing the base-metric orderings built so far.
        """
        if revision == self._revision and rhs_counts is None:
            return self
        clone = object.__new__(RuleCatalog)
        clone._revision = revision
        clone._rules = self._rules
        clone._by_key = self._by_key
        clone._by_item = self._by_item
        clone._by_rhs = self._by_rhs
        clone._by_kind = self._by_kind
        clone._orderings = self._orderings
        if rhs_counts is None:
            clone._sig_orderings = self._sig_orderings
            clone._rhs_counts = self._rhs_counts
            clone._significance = self._significance
        else:
            clone._sig_orderings = {}
            clone._rhs_counts = dict(rhs_counts)
            clone._significance = {}
        clone._stats = replace(self._stats, revision=revision)
        return clone

    @property
    def rules(self) -> tuple[AssociationRule, ...]:
        """Every rule, in the canonical listing order."""
        return self._rules

    @property
    def stats(self) -> CatalogStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._rules)

    def __contains__(self, key: RuleKey) -> bool:
        return key in self._by_key

    def get(self, key: RuleKey) -> AssociationRule | None:
        return self._by_key.get(key)

    # -- index lookups -------------------------------------------------------

    def mentioning(self, item: int) -> tuple[AssociationRule, ...]:
        """Rules whose LHS or RHS contains ``item`` (one dict probe)."""
        return self._by_item.get(item, ())

    def with_rhs(self, rhs: int) -> tuple[AssociationRule, ...]:
        """Rules predicting annotation item ``rhs`` (one dict probe)."""
        return self._by_rhs.get(rhs, ())

    def of_kind(self, kind: RuleKind) -> tuple[AssociationRule, ...]:
        return self._by_kind.get(kind, ())

    def items(self) -> tuple[int, ...]:
        """Every item mentioned by at least one rule, ascending."""
        return tuple(sorted(self._by_item))

    def rhs_items(self) -> tuple[int, ...]:
        """Every annotation item some rule predicts, ascending."""
        return tuple(sorted(self._by_rhs))

    # -- significance --------------------------------------------------------

    def rhs_count(self, rule: AssociationRule) -> int:
        """The RHS marginal used for ``rule``'s contingency table:
        the enriched exact frequency when available, else the rule's
        own lower-bound estimate — clamped into the feasible
        ``[union_count, db_size]`` range either way."""
        count = None
        if self._rhs_counts is not None:
            count = self._rhs_counts.get(rule.rhs)
        if count is None:
            count = rule.rhs_count_estimate
        return min(max(count, rule.union_count), rule.db_size)

    def significance(self, rule: AssociationRule) -> tuple[float, float]:
        """``(chi_square, p_value)`` for one rule, memoized per key."""
        cached = self._significance.get(rule.key)
        if cached is None:
            counts = RuleCounts.from_rule(rule, self.rhs_count(rule))
            cached = (_chi_square_measure(counts), _p_value_measure(counts))
            self._significance[rule.key] = cached
        return cached

    def chi_square_of(self, rule: AssociationRule) -> float:
        return self.significance(rule)[0]

    def p_value_of(self, rule: AssociationRule) -> float:
        return self.significance(rule)[1]

    def metric_value(self, rule: AssociationRule, metric: str) -> float:
        """The value ``metric`` orders ``rule`` by (serving payloads)."""
        ensure_metric(metric)
        if metric == "chi_square":
            return self.chi_square_of(rule)
        if metric == "p_value":
            return self.p_value_of(rule)
        return getattr(rule, metric)

    def _key_for(self, metric: str) -> Callable[[AssociationRule], tuple]:
        """Catalog-aware sort key: the pure per-rule keys for the base
        metrics (identical to :func:`metric_key`), contingency-backed
        keys for the significance tier.  Chi-square sorts descending,
        p-value ascending; both tie-break on confidence then the
        canonical listing order, so equal-scored rules page
        deterministically."""
        base = _METRIC_KEYS.get(metric)
        if base is not None:
            return base
        ensure_metric(metric)
        if metric == "chi_square":
            return lambda rule: (-self.chi_square_of(rule), -rule.confidence,
                                 rule.kind.value, rule.lhs, rule.rhs)
        return lambda rule: (self.p_value_of(rule), -rule.confidence,
                             rule.kind.value, rule.lhs, rule.rhs)

    def ordered_by(self, metric: str) -> tuple[AssociationRule, ...]:
        """All rules, best-first by ``metric`` — sorted once on first
        use, served as the memoized tuple afterwards (a concurrent
        first use is a benign race: equal tuples, one wins the slot)."""
        ensure_metric(metric)
        memo = (self._orderings if metric in _METRIC_KEYS
                else self._sig_orderings)
        cached = memo.get(metric)
        if cached is None:
            cached = tuple(sorted(self._rules, key=self._key_for(metric)))
            memo[metric] = cached
        return cached

    def top(self, n: int, *, by: str = "confidence"
            ) -> tuple[AssociationRule, ...]:
        """The ``n`` best rules by ``by`` — a slice of a presorted
        ordering, O(n) however large the catalog."""
        if n < 0:
            raise CatalogError(f"top() needs n >= 0, got {n}")
        return self.ordered_by(by)[:n]

    # -- composable queries --------------------------------------------------

    def query(self) -> "CatalogQuery":
        """A fresh query over this catalog (immutable; refinements
        return new queries, so partial queries can be shared)."""
        return CatalogQuery(self)


@dataclass(frozen=True)
class CatalogQuery:
    """A composable, immutable rule query.

    Refinement methods narrow and return a *new* query; terminal
    methods (:meth:`all`, :meth:`count`, :meth:`first`, :meth:`top`)
    execute it.  Execution plans against the catalog's most selective
    matching index — :meth:`explain` runs the query and reports which.
    """

    _catalog: RuleCatalog
    _items: tuple[int, ...] = ()
    _rhs: int | None = None
    _kind: RuleKind | None = None
    _min_support: float | None = None
    _min_confidence: float | None = None
    _min_lift: float | None = None
    _min_chi_square: float | None = None
    _max_p_value: float | None = None
    _predicates: tuple[tuple[str, Callable[[AssociationRule], bool]], ...] = ()
    _ordering: str = _CANONICAL
    _offset: int = 0
    _limit: int | None = None
    _last_explain: list = field(default_factory=list, compare=False)

    # -- refinements ---------------------------------------------------------

    def mentioning(self, item: int) -> "CatalogQuery":
        """Require ``item`` in the rule's LHS or RHS (repeatable: each
        call adds one required item)."""
        if item in self._items:
            return self
        return replace(self, _items=self._items + (item,),
                       _last_explain=[])

    def with_rhs(self, rhs: int) -> "CatalogQuery":
        if self._rhs is not None and self._rhs != rhs:
            raise CatalogError(
                f"query already requires rhs={self._rhs}; a rule has "
                f"exactly one RHS, so with_rhs({rhs}) can match nothing")
        return replace(self, _rhs=rhs, _last_explain=[])

    def of_kind(self, kind: RuleKind) -> "CatalogQuery":
        if self._kind is not None and self._kind is not kind:
            raise CatalogError(
                f"query already requires kind={self._kind.value}; "
                f"of_kind({kind.value}) can match nothing")
        return replace(self, _kind=kind, _last_explain=[])

    def min_support(self, value: float) -> "CatalogQuery":
        return replace(self, _min_support=value, _last_explain=[])

    def min_confidence(self, value: float) -> "CatalogQuery":
        return replace(self, _min_confidence=value, _last_explain=[])

    def min_lift(self, value: float) -> "CatalogQuery":
        return replace(self, _min_lift=value, _last_explain=[])

    def min_chi_square(self, value: float) -> "CatalogQuery":
        """Significance floor: keep rules whose chi-square statistic is
        at least ``value`` (3.841 is the classic 5% critical value)."""
        return replace(self, _min_chi_square=value, _last_explain=[])

    def max_p_value(self, value: float) -> "CatalogQuery":
        """Significance ceiling: keep rules whose independence p-value
        is at most ``value``."""
        return replace(self, _max_p_value=value, _last_explain=[])

    def where(self, predicate: Callable[[AssociationRule], bool], *,
              label: str = "where") -> "CatalogQuery":
        """An arbitrary residual filter (never index-served)."""
        return replace(self,
                       _predicates=self._predicates + ((label, predicate),),
                       _last_explain=[])

    def order_by(self, metric: str) -> "CatalogQuery":
        """Order results best-first by a metric (or ``"canonical"``)."""
        if metric != _CANONICAL:
            ensure_metric(metric)
        return replace(self, _ordering=metric, _last_explain=[])

    def page(self, offset: int, limit: int | None) -> "CatalogQuery":
        """Window the ordered result: skip ``offset``, return at most
        ``limit`` (``None`` = unbounded)."""
        if offset < 0:
            raise CatalogError(f"page() needs offset >= 0, got {offset}")
        if limit is not None and limit < 0:
            raise CatalogError(f"page() needs limit >= 0, got {limit}")
        return replace(self, _offset=offset, _limit=limit, _last_explain=[])

    # -- terminals -----------------------------------------------------------

    def all(self) -> tuple[AssociationRule, ...]:
        """Execute: the matching rules, ordered and windowed."""
        return self._execute()

    def top(self, n: int, *, by: str | None = None
            ) -> tuple[AssociationRule, ...]:
        """The first ``n`` results of *this* query, optionally
        re-ordered by ``by`` — an existing :meth:`page` window is
        respected (``top`` can narrow it, never widen it)."""
        if n < 0:
            raise CatalogError(f"top() needs n >= 0, got {n}")
        query = self if by is None else self.order_by(by)
        limit = n if self._limit is None else min(n, self._limit)
        return replace(query, _limit=limit, _last_explain=[])._execute()

    def count(self) -> int:
        """Matching rules, ignoring any page window."""
        unwindowed = replace(self, _offset=0, _limit=None, _last_explain=[])
        return len(unwindowed._execute())

    def first(self) -> AssociationRule | None:
        results = replace(self, _limit=1, _last_explain=[])._execute()
        return results[0] if results else None

    def explain(self) -> QueryExplain:
        """Execute and report which index served the query."""
        self._execute()
        return self._last_explain[-1]

    # -- planning and execution ----------------------------------------------

    def _execute(self) -> tuple[AssociationRule, ...]:
        catalog = self._catalog
        filters: list[str] = []
        residual: list[Callable[[AssociationRule], bool]] = []

        # Index selection: take the candidate set from the most
        # selective structure that matches a constraint, preferring the
        # narrow single-key indexes (RHS, then the rarest mentioned
        # item, then kind); with no constraint at all, a metric
        # ordering serves presorted, else the full canonical listing.
        presorted = False
        probe_item: int | None = None
        if self._rhs is not None:
            index = "rhs"
            base = catalog.with_rhs(self._rhs)
        elif self._items:
            index = "item"
            probe_item = min(self._items,
                             key=lambda item: len(catalog.mentioning(item)))
            base = catalog.mentioning(probe_item)
        elif self._kind is not None:
            index = "kind"
            base = catalog.of_kind(self._kind)
        elif self._ordering != _CANONICAL:
            index = f"ordering:{self._ordering}"
            base = catalog.ordered_by(self._ordering)
            presorted = True
        else:
            index = "full"
            base = catalog.rules

        # Residual filters: every constraint the chosen index does not
        # already guarantee (an RHS requirement always is — the RHS
        # index wins the selection whenever one is set).
        for item in self._items:
            if item == probe_item:
                continue  # the probed bucket already guarantees it
            residual.append(
                lambda rule, item=item: item in rule.union_itemset)
            filters.append(f"mentions={item}")
        if self._kind is not None and index != "kind":
            kind = self._kind
            residual.append(lambda rule: rule.kind is kind)
            filters.append(f"kind={kind.value}")
        if self._min_support is not None:
            floor = self._min_support
            residual.append(lambda rule, floor=floor: rule.support >= floor)
            filters.append(f"support>={floor}")
        if self._min_confidence is not None:
            floor = self._min_confidence
            residual.append(
                lambda rule, floor=floor: rule.confidence >= floor)
            filters.append(f"confidence>={floor}")
        if self._min_lift is not None:
            floor = self._min_lift
            residual.append(lambda rule, floor=floor: rule.lift >= floor)
            filters.append(f"lift>={floor}")
        if self._min_chi_square is not None:
            floor = self._min_chi_square
            residual.append(
                lambda rule, floor=floor:
                catalog.chi_square_of(rule) >= floor)
            filters.append(f"chi_square>={floor}")
        if self._max_p_value is not None:
            ceiling = self._max_p_value
            residual.append(lambda rule: catalog.p_value_of(rule) <= ceiling)
            filters.append(f"p_value<={ceiling}")
        for label, predicate in self._predicates:
            residual.append(predicate)
            filters.append(label)

        if residual:
            matched = tuple(rule for rule in base
                            if all(check(rule) for check in residual))
        else:
            matched = tuple(base)

        # Ordering: base sets from the key indexes are canonical; a
        # metric ordering re-sorts the (usually already narrow) match
        # set — unless the presorted ordering itself was the base, in
        # which case filtering preserved its order.
        if self._ordering != _CANONICAL and not presorted:
            matched = tuple(sorted(matched,
                                   key=catalog._key_for(self._ordering)))

        stop = (None if self._limit is None else self._offset + self._limit)
        results = matched[self._offset:stop]
        # Keep only the latest plan (explain() reads just that one): a
        # long-lived shared query must not accumulate one record per
        # execution.
        self._last_explain[:] = [QueryExplain(
            index=index,
            candidates=len(base),
            matched=len(matched),
            returned=len(results),
            filters=tuple(filters),
            ordering=self._ordering,
            presorted=presorted,
            offset=self._offset,
            limit=self._limit,
        )]
        return results
