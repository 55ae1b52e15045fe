"""Level-wise Apriori with the paper's candidate constraint hook.

This is the miner of the paper's Figure 3: breadth-first candidate
generation with hash-tree support counting, "modified … to introduce the
early elimination of any candidate patterns that didn't include at least
one annotation" — expressed here as a pluggable, supersets-stay-violated
:class:`~repro.mining.constraints.CandidateConstraint`.

The entry points return itemset -> exact count tables; rule derivation
is a separate, cheap step (:mod:`repro.core.derive`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.errors import MiningError
from repro._util import min_count_for, validate_fraction
from repro.mining.constraints import (
    CandidateConstraint,
    MiningTask,
    UnrestrictedConstraint,
    constraint_for_task,
)
from repro.mining.hash_tree import HashTree
from repro.mining.itemsets import Itemset, Transaction, TransactionDatabase

#: Below this many candidates a direct scan beats building a hash tree.
_SCAN_THRESHOLD = 12


def resolve_min_count(n_transactions: int,
                      min_support: float | None,
                      min_count: int | None) -> int:
    """Turn a fractional or absolute threshold into an absolute count."""
    if (min_support is None) == (min_count is None):
        raise MiningError(
            "exactly one of min_support / min_count must be given")
    if min_count is not None:
        if min_count < 1:
            raise MiningError(f"min_count must be >= 1, got {min_count}")
        return min_count
    validate_fraction(min_support, "min_support")
    return min_count_for(min_support, n_transactions)


def generate_candidates(previous_level: set[Itemset]) -> list[Itemset]:
    """Apriori-gen: join (k-1)-itemsets sharing a (k-2)-prefix, then prune.

    Every generated candidate has all of its (k-1)-subsets in
    ``previous_level``; the caller applies the candidate constraint.
    """
    by_prefix: dict[Itemset, list[int]] = {}
    for itemset in previous_level:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    candidates: list[Itemset] = []
    for prefix, tails in by_prefix.items():
        tails.sort()
        for first in range(len(tails)):
            for second in range(first + 1, len(tails)):
                candidate = prefix + (tails[first], tails[second])
                if _all_subsets_present(candidate, previous_level):
                    candidates.append(candidate)
    return candidates


def _all_subsets_present(candidate: Itemset,
                         previous_level: set[Itemset]) -> bool:
    # The two subsets formed by dropping one of the joined tail items are
    # the join parents and are present by construction; check the rest.
    for drop in range(len(candidate) - 2):
        subset = candidate[:drop] + candidate[drop + 1:]
        if subset not in previous_level:
            return False
    return True


def count_candidates(candidates: Sequence[Itemset],
                     transactions: Sequence[Transaction],
                     *,
                     counter: str = "auto",
                     ) -> dict[Itemset, int]:
    """Exact support counts for same-length candidates.

    ``counter`` selects the strategy: ``"hashtree"`` (paper default),
    ``"scan"`` (per-candidate containment scan), or ``"auto"``.
    """
    if not candidates:
        return {}
    if counter == "auto":
        counter = "scan" if len(candidates) <= _SCAN_THRESHOLD else "hashtree"
    if counter == "hashtree":
        tree = HashTree(candidates)
        return tree.count_all(transactions)
    if counter == "scan":
        counts = dict.fromkeys(candidates, 0)
        candidate_sets = [(candidate, frozenset(candidate))
                          for candidate in candidates]
        for transaction in transactions:
            for candidate, needed in candidate_sets:
                if needed <= transaction:
                    counts[candidate] += 1
        return counts
    raise MiningError(f"unknown counter strategy {counter!r}; "
                      "choose from auto, scan, hashtree")


def mine_frequent_itemsets(transactions: Sequence[Transaction],
                           *,
                           min_support: float | None = None,
                           min_count: int | None = None,
                           constraint: CandidateConstraint | None = None,
                           counter: str = "auto",
                           max_length: int | None = None
                           ) -> dict[Itemset, int]:
    """All constraint-admitted itemsets with count >= the threshold.

    The returned table maps canonical itemsets to exact counts over the
    full transaction list and is downward closed under the constraint.
    """
    constraint = constraint if constraint is not None else UnrestrictedConstraint()
    threshold = resolve_min_count(len(transactions), min_support, min_count)
    projected = [constraint.project(transaction)
                 for transaction in transactions]
    item_counts: Counter[int] = Counter()
    for transaction in projected:
        item_counts.update(transaction)
    table: dict[Itemset, int] = {
        (item,): count
        for item, count in item_counts.items()
        if count >= threshold and constraint.admits_item(item)
    }

    level = set(table)
    length = 1
    while level and (max_length is None or length < max_length):
        length += 1
        candidates = [candidate
                      for candidate in generate_candidates(level)
                      if constraint.admits(candidate)]
        counts = count_candidates(candidates, projected, counter=counter)
        level = set()
        for candidate, count in counts.items():
            if count >= threshold:
                table[candidate] = count
                level.add(candidate)
    return table


def mine_task(database: TransactionDatabase,
              task: MiningTask,
              *,
              min_support: float | None = None,
              min_count: int | None = None,
              counter: str = "auto",
              max_length: int | None = None) -> dict[Itemset, int]:
    """Mine ``database`` under the candidate constraint of ``task``."""
    constraint = constraint_for_task(task, database.vocabulary)
    return mine_frequent_itemsets(
        database.transactions,
        min_support=min_support,
        min_count=min_count,
        constraint=constraint,
        counter=counter,
        max_length=max_length,
    )
