"""Candidate constraints implementing the paper's "early elimination".

Section 3.1 of the paper describes a single modification to Apriori:
candidate patterns that cannot contribute to an annotation-RHS rule are
eliminated early.  For Apriori's level-wise pruning to stay *exact*, an
eliminated pattern must never be a subset of a wanted pattern — i.e. the
violation condition must be monotone under supersets.  The three concrete
constraints below all have that property:

* :class:`AnnotationOnlyConstraint` (A2A mining, Definition 4.3): every
  data item is projected away before mining even starts.
* :class:`AtMostOneAnnotationConstraint` (D2A mining, Definition 4.2):
  patterns with two or more annotation items are pruned — a D2A rule has
  exactly one annotation and it is the RHS.  Data-only patterns are kept
  because they are the confidence denominators.
* :class:`CombinedRelevanceConstraint` (used by the incremental manager's
  single pattern table): a pattern is kept when it is data-only, has
  exactly one annotation, or is annotation-only.  The violation
  ("two or more annotations mixed with data") is monotone.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Iterable

from repro.mining.itemsets import ItemVocabulary, Itemset, Transaction


class MiningTask(enum.Enum):
    """Which family of correlations a mining pass targets."""

    DATA_TO_ANNOTATION = "data-to-annotation"
    ANNOTATION_TO_ANNOTATION = "annotation-to-annotation"
    COMBINED = "combined"
    UNRESTRICTED = "unrestricted"


class CandidateConstraint(ABC):
    """Filter applied to candidate itemsets and, optionally, transactions."""

    @abstractmethod
    def admits(self, itemset: Iterable[int]) -> bool:
        """True when the pattern may still contribute to a target rule."""

    def project(self, transaction: Transaction) -> Transaction:
        """Optionally strip items that can never appear in a candidate."""
        return transaction

    def admits_item(self, item_id: int) -> bool:
        """Fast-path check for singleton candidates."""
        return self.admits((item_id,))


class UnrestrictedConstraint(CandidateConstraint):
    """Classic Apriori: every pattern admitted (cross-check baseline)."""

    def admits(self, itemset: Iterable[int]) -> bool:
        return True


class AnnotationOnlyConstraint(CandidateConstraint):
    """Admit only patterns made purely of annotation-like items."""

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self._vocabulary = vocabulary

    def admits(self, itemset: Iterable[int]) -> bool:
        keep = self._vocabulary.annotation_like_ids()
        return all(item_id in keep for item_id in itemset)

    def project(self, transaction: Transaction) -> Transaction:
        return transaction & self._vocabulary.annotation_like_ids()


class AtMostOneAnnotationConstraint(CandidateConstraint):
    """Admit data-only patterns and patterns with exactly one annotation."""

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self._vocabulary = vocabulary

    def admits(self, itemset: Iterable[int]) -> bool:
        return self._vocabulary.count_annotation_like(itemset) <= 1


class CombinedRelevanceConstraint(CandidateConstraint):
    """Admit every pattern relevant to either rule family.

    Kept patterns: data-only (D2A denominators), exactly one annotation
    (D2A numerators), annotation-only of any size (A2A numerators and
    denominators).  Rejected: two or more annotations mixed with at least
    one data item — no rule of either family is derived from those.
    """

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self._vocabulary = vocabulary

    def admits(self, itemset: Iterable[int]) -> bool:
        itemset = tuple(itemset)
        annotations = self._vocabulary.count_annotation_like(itemset)
        if annotations <= 1:
            return True
        return annotations == len(itemset)


def constraint_for_task(task: MiningTask,
                        vocabulary: ItemVocabulary) -> CandidateConstraint:
    """The constraint the paper's modified Apriori applies for ``task``."""
    if task is MiningTask.DATA_TO_ANNOTATION:
        return AtMostOneAnnotationConstraint(vocabulary)
    if task is MiningTask.ANNOTATION_TO_ANNOTATION:
        return AnnotationOnlyConstraint(vocabulary)
    if task is MiningTask.COMBINED:
        return CombinedRelevanceConstraint(vocabulary)
    return UnrestrictedConstraint()


def violation_is_monotone(constraint: CandidateConstraint,
                          itemset: Itemset,
                          superset: Itemset) -> bool:
    """Property-test helper: once violated, all supersets stay violated."""
    if constraint.admits(itemset):
        return True
    return not constraint.admits(superset)
