"""Formatted text reports for the application layer.

The paper's application communicates through a terminal; these helpers
render the manager's state — rules by kind, near-miss candidates, the
pattern table breakdown, maintenance history — as aligned text blocks
the CLI prints and tests can assert on.
"""

from __future__ import annotations

from repro.core.maintenance import MaintenanceReport
from repro.core.engine import CorrelationEngine
from repro.core.rules import AssociationRule, RuleKind
from repro.mining.closed import compress_rules


def rules_report(manager: CorrelationEngine, *,
                 compress: bool = False,
                 limit: int | None = None) -> str:
    """Rules grouped by kind, confidence-descending, Figure 7 lines."""
    lines: list[str] = []
    rules = (compress_rules(manager.rules) if compress
             else manager.rules.sorted_rules())
    for kind in (RuleKind.DATA_TO_ANNOTATION,
                 RuleKind.ANNOTATION_TO_ANNOTATION):
        of_kind = sorted((rule for rule in rules if rule.kind is kind),
                         key=lambda rule: (-rule.confidence, -rule.support,
                                           rule.lhs))
        if limit is not None:
            of_kind = of_kind[:limit]
        lines.append(f"{kind.value} ({len(of_kind)} rule(s)):")
        lines.extend(f"  {rule.render(manager.vocabulary)}"
                     for rule in of_kind)
    return "\n".join(lines)


def closest_to_valid(manager: CorrelationEngine, *, limit: int = 10
                     ) -> list[tuple[AssociationRule, float, float]]:
    """The near-miss rules closest to promotion, each with its support
    and confidence gaps below the user thresholds.

    Ranked by the summed gap; ties break on kind, sorted LHS tokens and
    RHS token, so the ranking depends on the relation alone, not on the
    order maintenance left the near-misses in.
    """
    thresholds = manager.thresholds
    vocabulary = manager.vocabulary

    def token(item: int) -> str:
        return vocabulary.item(item).token

    gapped = []
    for rule in manager.candidates.values():
        support_gap = max(0.0, thresholds.min_support - rule.support)
        confidence_gap = max(0.0,
                             thresholds.min_confidence - rule.confidence)
        order = (support_gap + confidence_gap, rule.kind.value,
                 tuple(sorted(map(token, rule.lhs))), token(rule.rhs))
        gapped.append((order, (rule, support_gap, confidence_gap)))
    gapped.sort(key=lambda pair: pair[0])
    return [entry for _, entry in gapped[:limit]]


def candidates_report(manager: CorrelationEngine, *,
                      limit: int = 10) -> str:
    """The near-miss rules closest to promotion, with their gaps."""
    closest = closest_to_valid(manager, limit=limit)
    if not closest:
        return "no candidate rules in the margin band"
    thresholds = manager.thresholds
    lines = [f"candidate rules (margin band "
             f"[{thresholds.keep_support:.3f}, "
             f"{thresholds.min_support:.3f}) support / "
             f"[{thresholds.keep_confidence:.3f}, "
             f"{thresholds.min_confidence:.3f}) confidence):"]
    lines.extend(f"  {rule.render(manager.vocabulary)}  "
                 f"needs +{support_gap:.3f} support, "
                 f"+{confidence_gap:.3f} confidence"
                 for rule, support_gap, confidence_gap in closest)
    return "\n".join(lines)


def table_report(manager: CorrelationEngine) -> str:
    """Pattern table size by class plus index statistics."""
    stats = manager.table.stats()
    frequencies = manager.index.annotation_frequencies()
    top = sorted(frequencies.items(), key=lambda pair: -pair[1])[:5]
    lines = [
        f"pattern table: {stats['total']} entries "
        f"(data-only {stats['data-only']}, "
        f"one-annotation {stats['one-annotation']}, "
        f"annotation-only {stats['annotation-only']})",
        f"database size: {manager.db_size} live tuples",
        "most frequent annotations:",
    ]
    lines.extend(
        f"  {manager.vocabulary.item(item).token}: {count}"
        for item, count in top)
    return "\n".join(lines)


def maintenance_report_line(report: MaintenanceReport) -> str:
    """One aligned history line for a maintenance report."""
    return (f"{report.event:<24} db={report.db_size:<7} "
            f"+{len(report.rules_added):<3} -{len(report.rules_dropped):<3} "
            f"~{report.rules_updated:<4} rules  "
            f"{report.duration_seconds * 1000:8.2f} ms")


def history_report(reports: list[MaintenanceReport]) -> str:
    """The session's maintenance history as an aligned block."""
    if not reports:
        return "no maintenance activity yet"
    header = (f"{'event':<24} {'size':<10} {'rule changes':<16} "
              f"{'time':>11}")
    return "\n".join([header] + [maintenance_report_line(report)
                                 for report in reports])
