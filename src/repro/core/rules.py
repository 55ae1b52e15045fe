"""Association rules over annotated databases (Definitions 4.2 / 4.3).

A rule is ``LHS => rhs_annotation`` where the RHS is always a *single*
annotation item and the LHS is either a set of data values
(:attr:`RuleKind.DATA_TO_ANNOTATION`) or a set of annotations
(:attr:`RuleKind.ANNOTATION_TO_ANNOTATION`).  Rules carry **exact
integer counts**, not floats, because incremental maintenance (section
4.3) works by adjusting numerators and denominators; support and
confidence are derived properties.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
import enum

from repro.errors import ItemKindError
from repro.mining.itemsets import ItemVocabulary, Itemset, canonical


class RuleKind(enum.Enum):
    """The two correlation families the paper targets."""

    DATA_TO_ANNOTATION = "data-to-annotation"
    ANNOTATION_TO_ANNOTATION = "annotation-to-annotation"


#: Stable identity of a rule: its structure without its statistics.
RuleKey = tuple[RuleKind, Itemset, int]


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """An annotation-RHS association rule with exact counts.

    ``union_count``  — occurrences of ``LHS ∪ {rhs}`` (the numerator of
    both support and confidence);
    ``lhs_count``    — occurrences of ``LHS`` (the confidence
    denominator);
    ``db_size``      — live tuples at evaluation time (the support
    denominator).
    """

    kind: RuleKind
    lhs: Itemset
    rhs: int
    union_count: int
    lhs_count: int
    db_size: int

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ItemKindError("a rule needs a non-empty LHS")
        if self.rhs in self.lhs:
            raise ItemKindError(
                f"RHS item {self.rhs} must not appear in the LHS {self.lhs}")
        if tuple(sorted(self.lhs)) != tuple(self.lhs):
            raise ItemKindError(f"LHS {self.lhs} is not canonical")
        if not 0 <= self.union_count <= self.lhs_count:
            raise ItemKindError(
                f"union_count={self.union_count} must be within "
                f"[0, lhs_count={self.lhs_count}]")
        if self.lhs_count > self.db_size:
            raise ItemKindError(
                f"lhs_count={self.lhs_count} exceeds db_size={self.db_size}")

    # -- identity ----------------------------------------------------------

    @property
    def key(self) -> RuleKey:
        return (self.kind, self.lhs, self.rhs)

    @property
    def union_itemset(self) -> Itemset:
        return canonical(self.lhs + (self.rhs,))

    # -- statistics ---------------------------------------------------------

    @property
    def support(self) -> float:
        """Fraction of tuples containing ``LHS ∪ {rhs}``."""
        return self.union_count / self.db_size if self.db_size else 0.0

    @property
    def confidence(self) -> float:
        """``support(LHS ∪ {rhs}) / support(LHS)``."""
        return self.union_count / self.lhs_count if self.lhs_count else 0.0

    @property
    def lift(self) -> float:
        """Confidence relative to the RHS base rate (extension, not in
        the paper; used by the recommender's ranking)."""
        if not self.db_size or not self.lhs_count:
            return 0.0
        rhs_rate = self.rhs_count_estimate / self.db_size
        return self.confidence / rhs_rate if rhs_rate else 0.0

    @property
    def rhs_count_estimate(self) -> int:
        """Lower bound on the RHS annotation count (exact value lives in
        the annotation frequency table; the rule alone knows only that
        the RHS occurs at least ``union_count`` times)."""
        return self.union_count

    def with_counts(self, *, union_count: int | None = None,
                    lhs_count: int | None = None,
                    db_size: int | None = None) -> "AssociationRule":
        """A copy with some counts replaced (rules are immutable)."""
        return replace(
            self,
            union_count=self.union_count if union_count is None else union_count,
            lhs_count=self.lhs_count if lhs_count is None else lhs_count,
            db_size=self.db_size if db_size is None else db_size,
        )

    def render(self, vocabulary: ItemVocabulary) -> str:
        """Paper Figure 7 style: ``x1 x2 ==> a, conf, sup``."""
        lhs = vocabulary.render(self.lhs)
        rhs = vocabulary.item(self.rhs).token
        return (f"{lhs} ==> {rhs}, "
                f"{self.confidence:.4f}, {self.support:.4f}")


class RuleSet:
    """A keyed collection of rules with indexed lookups.

    Lookups (:meth:`mentioning` / :meth:`with_rhs` / :meth:`of_kind`)
    are served by a lazily built
    :class:`~repro.core.catalog.RuleCatalog` that is invalidated by
    mutation and rebuilt on the next query — so a burst of queries
    between mutations pays for the indexes once.  Hot read paths
    should not query a RuleSet at all: they should take the engine's
    revision-memoized ``catalog()`` directly, which survives across
    rule-set replacements and is shared by all readers.
    """

    def __init__(self, rules: Iterable[AssociationRule] = ()) -> None:
        self._rules: dict[RuleKey, AssociationRule] = {}
        self._version = 0
        self._catalog = None
        for rule in rules:
            self.add(rule)

    def add(self, rule: AssociationRule) -> None:
        self._rules[rule.key] = rule
        self._version += 1

    def discard(self, key: RuleKey) -> AssociationRule | None:
        rule = self._rules.pop(key, None)
        if rule is not None:
            self._version += 1
        return rule

    def get(self, key: RuleKey) -> AssociationRule | None:
        return self._rules.get(key)

    def catalog(self):
        """An indexed, immutable view of the current rules, keyed by
        this set's mutation counter and rebuilt only after changes."""
        from repro.core.catalog import RuleCatalog  # local: avoid cycle

        cached = self._catalog
        if cached is None or cached.revision != self._version:
            cached = RuleCatalog(self._rules.values(),
                                 revision=self._version)
            self._catalog = cached
        return cached

    def keys(self) -> set[RuleKey]:
        return set(self._rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, key: RuleKey) -> bool:
        return key in self._rules

    def sorted_rules(self) -> list[AssociationRule]:
        """Deterministic order: kind, LHS length, LHS items, RHS (the
        canonical listing order the catalog stores)."""
        return list(self.catalog().rules)

    def same_rules(self, other: "RuleSet") -> bool:
        """Structural equality including counts (equivalence checks)."""
        if self.keys() != other.keys():
            return False
        return all(self._rules[key] == other._rules[key]
                   for key in self._rules)

    def diff_keys(self, other: "RuleSet") -> tuple[set[RuleKey], set[RuleKey]]:
        """(only in self, only in other) — used by verification output."""
        mine, theirs = self.keys(), other.keys()
        return mine - theirs, theirs - mine
