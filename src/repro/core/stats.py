"""Thresholds and rule statistics.

Support and confidence are defined exactly as in the paper's section 2.2:
support is the fraction of tuples containing ``LHS ∪ RHS`` relative to
the database size; confidence is ``support(LHS ∪ RHS) / support(LHS)``.
Both the from-scratch miner and the incremental path convert fractional
thresholds to integer counts through the same helpers, so the
equivalence guarantees are never lost to floating-point drift.

The *margin* implements the paper's candidate-rule idea: "storing the
existing rules and candidate rules (rules slightly below the minimum
support and confidence requirements)".  The pattern table keeps every
itemset with support >= ``margin * min_support``; rules in the band
between the margined and the real thresholds are the engine's
near-miss candidates (``CorrelationEngine.candidates``), ready for cheap
promotion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import meets_fraction, min_count_for, validate_fraction
from repro.errors import InvalidThresholdError
from repro.core.rules import AssociationRule

#: Default margin factor for the near-miss band.
DEFAULT_MARGIN = 0.75


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Minimum support / confidence with a near-miss margin."""

    min_support: float
    min_confidence: float
    margin: float = DEFAULT_MARGIN

    def __post_init__(self) -> None:
        validate_fraction(self.min_support, "min_support")
        validate_fraction(self.min_confidence, "min_confidence")
        validate_fraction(self.margin, "margin")
        if self.margin > 1.0:
            raise InvalidThresholdError(
                f"margin must be <= 1, got {self.margin}")

    @property
    def keep_support(self) -> float:
        """Support floor of the pattern table (margined)."""
        return self.min_support * self.margin

    @property
    def keep_confidence(self) -> float:
        """Confidence floor under which near-miss rules are discarded."""
        return self.min_confidence * self.margin

    def support_count(self, db_size: int) -> int:
        """Counts at or above this are *valid-rule* frequent."""
        return min_count_for(self.min_support, db_size)

    def keep_count(self, db_size: int) -> int:
        """Counts at or above this stay in the pattern table."""
        return min_count_for(self.keep_support, db_size)

    def meets_support(self, union_count: int, db_size: int) -> bool:
        return meets_fraction(union_count, db_size, self.min_support)

    def meets_confidence(self, union_count: int, lhs_count: int) -> bool:
        return meets_fraction(union_count, lhs_count, self.min_confidence)

    def is_valid(self, rule: AssociationRule) -> bool:
        """Does the rule satisfy both user thresholds?"""
        return (self.meets_support(rule.union_count, rule.db_size)
                and self.meets_confidence(rule.union_count, rule.lhs_count))

    def is_near_miss(self, rule: AssociationRule) -> bool:
        """Inside the margin band but failing at least one threshold."""
        if self.is_valid(rule):
            return False
        in_support_band = meets_fraction(rule.union_count, rule.db_size,
                                         self.keep_support)
        in_confidence_band = meets_fraction(rule.union_count, rule.lhs_count,
                                            self.keep_confidence)
        return in_support_band and in_confidence_band

    def with_margin(self, margin: float) -> "Thresholds":
        return Thresholds(self.min_support, self.min_confidence, margin)
