"""Multi-level concept hierarchies over generalization labels.

Section 2.2 of the paper recalls Han & Fu's multi-level association
rules: given a domain generalization hierarchy, "some rules may hold at
the higher level(s) of the hierarchy which may not be true for the
lower more-detailed levels".  The hierarchy here is a DAG of labels
held as a plain child -> parents map; when the engine assigns a label
it also assigns every ancestor, so one mining pass discovers rules at
all levels simultaneously.  Per-level thresholds (coarser levels
usually warrant higher support) are supported through
:meth:`ConceptHierarchy.level_of`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import GeneralizationError


class ConceptHierarchy:
    """A DAG of labels; edges point child -> parent (more general)."""

    def __init__(self) -> None:
        #: Every label maps to its direct parents (empty for a root).
        self._parents: dict[str, set[str]] = {}

    def add_label(self, label: str) -> None:
        if not label:
            raise GeneralizationError("hierarchy labels must be non-empty")
        self._parents.setdefault(label, set())

    def add_edge(self, child: str, parent: str) -> None:
        """Declare ``parent`` a generalization of ``child``.

        The edge closes a cycle exactly when ``child`` is already an
        ancestor of ``parent``; such an edge is rejected and not kept.
        """
        if child == parent:
            raise GeneralizationError(
                f"label {child!r} cannot generalize itself")
        if child in self.ancestors(parent):
            raise GeneralizationError(
                f"edge {child!r} -> {parent!r} would create a cycle")
        self._parents.setdefault(child, set()).add(parent)
        self._parents.setdefault(parent, set())

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]]) -> "ConceptHierarchy":
        hierarchy = cls()
        for child, parent in edges:
            hierarchy.add_edge(child, parent)
        return hierarchy

    # -- queries ----------------------------------------------------------

    def __contains__(self, label: str) -> bool:
        return label in self._parents

    def labels(self) -> frozenset[str]:
        return frozenset(self._parents)

    def ancestors(self, label: str) -> frozenset[str]:
        """Every more-general label reachable from ``label``."""
        seen: set[str] = set()
        frontier = list(self._parents.get(label, ()))
        while frontier:
            parent = frontier.pop()
            if parent not in seen:
                seen.add(parent)
                frontier.extend(self._parents[parent])
        return frozenset(seen)

    def closure(self, labels: Iterable[str]) -> frozenset[str]:
        """The labels plus all their ancestors — what a tuple receives."""
        out: set[str] = set()
        for label in labels:
            out.add(label)
            out |= self.ancestors(label)
        return frozenset(out)

    def roots(self) -> frozenset[str]:
        """Most general labels (no outgoing generalization edge)."""
        return frozenset(label for label, parents in self._parents.items()
                         if not parents)

    def level_of(self, label: str) -> int:
        """Distance to the farthest root (0 == most general).

        Coarse levels get small numbers so that per-level minimum
        supports can decrease with detail, as in Han & Fu.
        """
        if label not in self._parents:
            raise GeneralizationError(f"label {label!r} not in hierarchy")
        parents = self._parents[label]
        if not parents:
            return 0
        return 1 + max(self.level_of(parent) for parent in parents)

    def support_for_level(self, base_support: float, label: str,
                          decay: float = 0.5) -> float:
        """Han & Fu style per-level threshold: deeper labels get lower
        minimum support (``base * decay ** level``), floored at 1e-6."""
        if not 0.0 < decay <= 1.0:
            raise GeneralizationError(f"decay must be in (0, 1], got {decay}")
        return max(1e-6, base_support * (decay ** self.level_of(label)))
