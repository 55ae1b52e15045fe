"""The generalization-rules file of the paper's Figure 9.

Concrete grammar (the paper's figure shows the id-mapping style; the
keyword style implements its "Invalid / wrong / incorrect ->
Invalidation" example from section 4.1)::

    # label <= sources
    Annot_X <= Annot_1 | Annot_5
    Invalidation <= text has "invalid" "wrong" "incorrect"
    Versioning <= text ~ "v[0-9]+"
    Provenance <= category = lineage

    # optional hierarchy section: child -> parent
    [hierarchy]
    Invalidation -> QualityIssue
    Correction -> QualityIssue
"""

from __future__ import annotations

import io
import os
import re
from collections.abc import Iterable

from repro.errors import FormatError
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    CategoryMatcher,
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
    KeywordMatcher,
    Matcher,
    RegexMatcher,
)

_QUOTED = re.compile(r'"([^"]*)"')


def _parse_matcher(source: str, line_number: int, line: str) -> Matcher:
    source = source.strip()
    if source.startswith("text has"):
        keywords = _QUOTED.findall(source[len("text has"):])
        if not keywords:
            raise FormatError("'text has' needs quoted keywords",
                              line_number=line_number, line=line)
        return KeywordMatcher(frozenset(keywords))
    if source.startswith("text ~"):
        patterns = _QUOTED.findall(source[len("text ~"):])
        if len(patterns) != 1:
            raise FormatError("'text ~' needs exactly one quoted regex",
                              line_number=line_number, line=line)
        return RegexMatcher(patterns[0])
    if source.startswith("category"):
        _, _, category = source.partition("=")
        category = category.strip()
        if not category:
            raise FormatError("'category =' needs a category name",
                              line_number=line_number, line=line)
        return CategoryMatcher(category)
    annotation_ids = [token.strip() for token in source.split("|")]
    if not all(annotation_ids):
        raise FormatError("empty annotation id in id list",
                          line_number=line_number, line=line)
    return IdMatcher(frozenset(annotation_ids))


def parse_generalization_rules(source: str | os.PathLike | io.TextIOBase |
                               Iterable[str]
                               ) -> tuple[GeneralizationRuleSet,
                                          ConceptHierarchy | None]:
    """Parse a Figure 9 file into (rules, optional hierarchy)."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as handle:
            return parse_generalization_rules(list(handle))

    rules = GeneralizationRuleSet()
    hierarchy: ConceptHierarchy | None = None
    in_hierarchy = False
    for line_number, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "[hierarchy]":
            in_hierarchy = True
            hierarchy = ConceptHierarchy()
            continue
        if in_hierarchy:
            child, arrow, parent = line.partition("->")
            if not arrow or not child.strip() or not parent.strip():
                raise FormatError("hierarchy lines are 'child -> parent'",
                                  line_number=line_number, line=line)
            assert hierarchy is not None
            hierarchy.add_edge(child.strip(), parent.strip())
            continue
        label, arrow, matcher_source = line.partition("<=")
        if not arrow or not label.strip() or not matcher_source.strip():
            raise FormatError("rule lines are 'label <= sources'",
                              line_number=line_number, line=line)
        matcher = _parse_matcher(matcher_source, line_number, line)
        rules.add(GeneralizationRule(label.strip(), matcher))
    return rules, hierarchy


def write_generalization_rules(rules: GeneralizationRuleSet,
                               destination: str | os.PathLike |
                               io.TextIOBase,
                               hierarchy: ConceptHierarchy | None = None
                               ) -> int:
    """Write rules (and hierarchy) back in the Figure 9 grammar."""
    lines = [rule.describe() for rule in rules]
    if hierarchy is not None and hierarchy.labels():
        lines.append("[hierarchy]")
        lines.extend(_direct_edges(hierarchy))
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        destination.write(text)
    return len(lines)


def _direct_edges(hierarchy: ConceptHierarchy) -> list[str]:
    parents = hierarchy._parents  # same package boundary: io renders internals
    return [f"{child} -> {parent}"
            for child in sorted(parents) for parent in sorted(parents[child])]
