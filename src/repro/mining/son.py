"""SON-style exact two-phase counting across partitioned databases.

Savasere, Omiecinski and Navathe's partitioning argument: an itemset
frequent in the whole database at fraction ``f`` must be frequent at
the same fraction in at least one partition — otherwise its count would
sum to strictly less than ``ceil(f * |DB|)``.  So the union of the
partitions' locally-frequent families is a complete (superset) candidate
set for the global answer, and one exact counting pass over every
partition turns it into the global table with no false negatives and no
approximation.

This library's shard engines each maintain their partition's frequent
pattern family *exactly* (that is the engine's core incremental
guarantee), so the same two phases work both for the initial mine and
after every incremental batch:

* **phase 1** — :func:`candidate_union` collects the shard tables'
  locally-frequent candidate union;
* **phase 2** — :func:`merge_counts` counts every candidate exactly
  against every shard's bitmap index and keeps those at or above the
  global floor.

The result equals the monolithic engine's pattern table entry for
entry (counts included), because both are "every constraint-admitted
itemset with global count >= the margined floor".  The rounding of
:func:`repro._util.min_count_for` preserves the SON argument: if every
shard count is below ``max(1, ceil(f * n_i - eps))`` then the total is
strictly below ``max(1, ceil(f * n - eps))``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.mining.eclat import count_itemset
from repro.mining.itemsets import Itemset


def candidate_union(tables: Iterable[Iterable[Itemset]]) -> set[Itemset]:
    """Phase 1: the union of the shards' locally-frequent itemsets.

    Each element of ``tables`` is one shard's pattern family (any
    iterable of itemsets — a ``FrequentPatternTable`` iterates its
    keys).  Every shard family is downward closed, and a union of
    downward-closed families is downward closed, so the merged table
    built from this union keeps the table's closure invariant.
    """
    union: set[Itemset] = set()
    for table in tables:
        union.update(table)
    return union


def count_across(indexes: Iterable[Mapping[int, int]],
                 itemset: Itemset) -> int:
    """Exact global count of ``itemset``: one tidset intersection per
    shard index, summed.  Partitions are disjoint by construction, so
    the sum is the monolithic count."""
    return sum(count_itemset(index, itemset) for index in indexes)


def merge_counts(union: Iterable[Itemset],
                 indexes: list[Mapping[int, int]],
                 *,
                 floor: int) -> dict[Itemset, int]:
    """Phase 2: the exact global table from a phase-1 candidate union.

    Every candidate is recounted against every shard's index; those at
    or above ``floor`` survive with their exact global count.  The SON
    property makes the result identical to mining the unpartitioned
    database at the same floor.
    """
    merged: dict[Itemset, int] = {}
    for itemset in union:
        count = count_across(indexes, itemset)
        if count >= floor:
            merged[itemset] = count
    return merged
