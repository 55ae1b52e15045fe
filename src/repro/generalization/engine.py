"""The generalization engine — building the *extended* database.

Paper section 4.1.1: the system parses generalization rules and applies
them so that "the generalized annotations are appended to the
appropriate data records"; ordinary mining then runs over this extended
database and discovers correlations invisible at the raw level.

:class:`Generalizer` is the object the
:class:`~repro.core.engine.CorrelationEngine` consumes: its
``labels_for`` maps a tuple's current raw annotation ids to the full
label set (generalization rules plus hierarchy closure).  Because the
mapping is a pure function of the annotation set, incremental label
maintenance under Case 3 reduces to re-evaluating it on the δ tuples.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import GeneralizationError
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import GeneralizationRuleSet
from repro.relation.annotation import AnnotationRegistry
from repro.relation.relation import AnnotatedRelation


class Generalizer:
    """Maps raw annotation ids to generalized labels."""

    def __init__(self,
                 registry: AnnotationRegistry,
                 rules: GeneralizationRuleSet,
                 hierarchy: ConceptHierarchy | None = None) -> None:
        self.registry = registry
        self.rules = rules
        self.hierarchy = hierarchy
        self._collision_check()
        #: memo: annotation id -> labels (annotations are immutable).
        self._cache: dict[str, frozenset[str]] = {}

    def _collision_check(self) -> None:
        """A label sharing a name with a raw annotation id would make the
        extended database ambiguous — refuse up front."""
        collisions = sorted(
            label for label in self.rules.labels()
            if label in self.registry)
        if collisions:
            raise GeneralizationError(
                f"generalization labels collide with raw annotation ids: "
                f"{collisions}")

    # -- the protocol the manager consumes ---------------------------------

    def labels_for(self, annotation_ids: Iterable[str]) -> frozenset[str]:
        """All labels a tuple with these raw annotations receives.

        Each label appears at most once regardless of how many raw
        annotations map to it (the paper's at-most-once guarantee), and
        hierarchy ancestors are included so multi-level rules can be
        mined in the same pass.
        """
        labels: set[str] = set()
        for annotation_id in annotation_ids:
            cached = self._cache.get(annotation_id)
            if cached is None:
                if annotation_id in self.rules.labels():
                    raise GeneralizationError(
                        f"raw annotation {annotation_id!r} collides with a "
                        f"generalization label")
                annotation = self.registry.get(annotation_id)
                cached = self.rules.labels_for_annotation(annotation)
                self._cache[annotation_id] = cached
            labels |= cached
        if self.hierarchy is not None:
            return self.hierarchy.closure(labels)
        return frozenset(labels)

    # -- static application (outside a manager) ----------------------------

    def apply_to_relation(self, relation: AnnotatedRelation) -> int:
        """Label every live tuple; returns how many tuples changed."""
        changed = 0
        for row in relation:
            labels = self.labels_for(row.annotation_ids)
            if labels != frozenset(row.labels):
                relation.set_labels(row.tid, labels)
                changed += 1
        return changed

    def invalidate_cache(self) -> None:
        """Drop memoized mappings (after editing the rule set)."""
        self._cache.clear()
