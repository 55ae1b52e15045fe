"""Vertical (tidset) mining, including the seeded search of Figure 13.

The incremental discovery algorithm of the paper computes the support of
candidate rules "by checking only the data tuples in the database having
[the] annotation" — i.e. by walking an inverted index from annotation to
tuple ids.  :func:`mine_containing` is exactly that operation: it
enumerates every frequent itemset that *contains a given seed item*,
intersecting tidsets so that only transactions holding the seed are ever
touched.  :func:`mine_frequent_itemsets_vertical` is the unrestricted
Eclat search every from-scratch engine mine runs over its bitmap index;
the hash-tree Apriori of :mod:`repro.mining.apriori` stays as the
re-mine oracle it is checked against.

Every function here is *tidset-polymorphic*: it only asks a tidset for
``a & b``, ``len``, truthiness and iteration, so the same search runs
over classic ``set``/``frozenset`` tidsets and over the bitmap-backed
:class:`~repro.mining.bitmap.BitTidset` representation (the fast path
every maintained index uses).  :func:`build_vertical_index` survives as
the set-based reference builder for tests and comparisons.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.mining.bitmap import BitmapIndex, BitTidset
from repro.mining.constraints import CandidateConstraint, UnrestrictedConstraint
from repro.mining.itemsets import Itemset, Transaction

#: Any value usable as a tidset: set, frozenset, or BitTidset; every
#: miner here runs on either without change.
Tidset = "set[int] | frozenset[int] | BitTidset"


def build_vertical_index(transactions: Sequence[Transaction]
                         ) -> dict[int, set[int]]:
    """Item id -> set of tids containing it (set-based reference form)."""
    index: dict[int, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            index.setdefault(item, set()).add(tid)
    return index


def _dfs(prefix: Itemset,
         prefix_tids,
         extensions: list,
         min_count: int,
         constraint: CandidateConstraint,
         max_length: int | None,
         out: dict[Itemset, int]) -> None:
    if max_length is not None and len(prefix) >= max_length:
        return
    for position, (item, item_tids) in enumerate(extensions):
        tids = prefix_tids & item_tids
        if len(tids) < min_count:
            continue
        itemset = tuple(sorted(prefix + (item,)))
        if not constraint.admits(itemset):
            # Violations are monotone under supersets: prune the branch.
            continue
        out[itemset] = len(tids)
        _dfs(itemset, tids, extensions[position + 1:], min_count,
             constraint, max_length, out)


def mine_frequent_itemsets_vertical(transactions: Sequence[Transaction],
                                    *,
                                    min_count: int,
                                    constraint: CandidateConstraint | None = None,
                                    max_length: int | None = None,
                                    index: Mapping[int, Tidset] | None = None,
                                    ) -> dict[Itemset, int]:
    """Eclat over a horizontal database; same contract as the Apriori miner.

    The database is indexed into bitmaps first, so every intersection in
    the depth-first search is one big-int ``&`` plus a popcount.  A
    caller that already maintains that index (the partitioned-substrate
    mine path) passes it via ``index`` and skips the rebuild; it must
    cover exactly ``transactions`` *after* the constraint's projection
    (the engine-side constraint projects nothing, so its maintained
    index qualifies as-is).
    """
    constraint = constraint if constraint is not None else UnrestrictedConstraint()
    if index is None:
        projected = [constraint.project(transaction)
                     for transaction in transactions]
        index = BitmapIndex.from_transactions(projected).as_mapping()
    out: dict[Itemset, int] = {}
    extensions = [
        (item, tids)
        for item, tids in sorted(index.items())
        if len(tids) >= min_count and constraint.admits_item(item)
    ]
    for position, (item, tids) in enumerate(extensions):
        out[(item,)] = len(tids)
        _dfs((item,), tids, extensions[position + 1:], min_count,
             constraint, max_length, out)
    return out


def mine_containing(index: Mapping[int, Tidset],
                    seed_item: int,
                    *,
                    min_count: int,
                    constraint: CandidateConstraint | None = None,
                    candidate_items: Iterable[int] | None = None,
                    max_length: int | None = None) -> dict[Itemset, int]:
    """All frequent itemsets that contain ``seed_item``.

    Counts are global (an itemset containing the seed can only occur in
    transactions that hold the seed), yet the search touches only the
    seed's tidset — the access pattern the paper's Figure 13 prescribes.

    ``candidate_items`` optionally restricts which other items may join
    the seed (e.g. only items actually co-occurring with it).
    """
    constraint = constraint if constraint is not None else UnrestrictedConstraint()
    seed_tids = index.get(seed_item)
    if seed_tids is None or len(seed_tids) < min_count \
            or not constraint.admits_item(seed_item):
        return {}

    if candidate_items is None:
        candidate_items = index.keys()
    extensions = []
    for item in sorted(set(candidate_items) - {seed_item}):
        other_tids = index.get(item)
        if other_tids is None:
            continue
        item_tids = seed_tids & other_tids
        if len(item_tids) >= min_count:
            extensions.append((item, item_tids))

    out: dict[Itemset, int] = {(seed_item,): len(seed_tids)}
    _dfs((seed_item,), seed_tids, extensions, min_count, constraint,
         max_length, out)
    return out


def count_itemset(index: Mapping[int, Tidset],
                  itemset: Itemset,
                  *,
                  universe_size: int | None = None) -> int:
    """Exact count of ``itemset`` by tidset intersection.

    The empty itemset counts every transaction, hence ``universe_size``
    is required for it.
    """
    if not itemset:
        if universe_size is None:
            raise ValueError("universe_size required to count the empty itemset")
        return universe_size
    tidsets = []
    for item in itemset:
        tids = index.get(item)
        if tids is None or not tids:
            return 0
        tidsets.append(tids)
    # Intersect starting from the rarest item to keep intermediates small.
    tidsets.sort(key=len)
    result = tidsets[0]
    for tids in tidsets[1:]:
        result = result & tids
        if not result:
            return 0
    return len(result)


def tids_of(index: Mapping[int, Tidset],
            itemset: Itemset) -> set[int]:
    """Tids of transactions containing every item of ``itemset``."""
    if not itemset:
        raise ValueError("tids_of requires a non-empty itemset")
    tidsets = []
    for item in itemset:
        tids = index.get(item)
        if tids is None:
            return set()
        tidsets.append(tids)
    tidsets.sort(key=len)
    result = tidsets[0]
    for tids in tidsets[1:]:
        result = result & tids
    return set(result)
