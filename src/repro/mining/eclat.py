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

Every function here takes an item -> bit vector mapping (the
:meth:`~repro.mining.bitmap.BitmapIndex.as_mapping` view): an
intersection is one big-int ``a & b`` and a support one
``.bit_count()``.  Both searches follow Zaki's Eclat: each prefix keeps
only the extensions frequent and admitted together with it, ordered by
ascending (support, item id), so the rarest items are joined first and
their short-lived branches die early.  :func:`build_vertical_index`
survives as the set-based reference builder for tests and comparisons.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.mining.bitmap import BitmapIndex, tids_from_bits
from repro.mining.constraints import CandidateConstraint, UnrestrictedConstraint
from repro.mining.itemsets import Itemset, Transaction

#: One entry of an Eclat equivalence class: the joined itemset's
#: support, the item that extended the prefix, the joined itemset's
#: bit vector, and the joined itemset itself.
_Extension = tuple[int, int, int, Itemset]


def build_vertical_index(transactions: Sequence[Transaction]
                         ) -> dict[int, set[int]]:
    """Item id -> set of tids containing it (set-based reference form)."""
    index: dict[int, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            index.setdefault(item, set()).add(tid)
    return index


def _join(prefix: Itemset,
          prefix_bits: int,
          candidates: Iterable[tuple[int, int]],
          min_count: int,
          constraint: CandidateConstraint) -> list[_Extension]:
    """The equivalence class of ``prefix``: every ``(item, bits)``
    candidate that joins it into a frequent, admitted itemset, in
    ascending (support, item) order."""
    joined: list[_Extension] = []
    for item, item_bits in candidates:
        bits = prefix_bits & item_bits
        support = bits.bit_count()
        if support < min_count:
            continue
        itemset = tuple(sorted(prefix + (item,)))
        # Violations are monotone under supersets: a rejected join
        # takes its whole branch with it.
        if constraint.admits(itemset):
            joined.append((support, item, bits, itemset))
    joined.sort()  # items are distinct: ties never reach the bits
    return joined


def _dfs(extensions: list[_Extension],
         min_count: int,
         constraint: CandidateConstraint,
         max_length: int | None,
         out: dict[Itemset, int]) -> None:
    """Emit every itemset of the class and, depth first, its joins with
    the class members after it."""
    for position, (support, _, bits, itemset) in enumerate(extensions):
        out[itemset] = support
        if max_length is not None and len(itemset) >= max_length:
            continue
        children = _join(
            itemset, bits,
            [(item, item_bits)
             for _, item, item_bits, _ in extensions[position + 1:]],
            min_count, constraint)
        if children:
            _dfs(children, min_count, constraint, max_length, out)


def mine_frequent_itemsets_vertical(transactions: Sequence[Transaction],
                                    *,
                                    min_count: int,
                                    constraint: CandidateConstraint | None = None,
                                    max_length: int | None = None,
                                    index: Mapping[int, int] | None = None,
                                    ) -> dict[Itemset, int]:
    """Eclat over a horizontal database; same contract as the Apriori miner.

    The database is indexed into bitmaps first, so every intersection in
    the depth-first search is one big-int ``&`` plus a popcount.  A
    caller that already maintains that index (the partitioned-substrate
    mine path) passes its :meth:`~repro.mining.bitmap.BitmapIndex.as_mapping`
    view via ``index`` and skips the rebuild; it must cover exactly
    ``transactions`` *after* the constraint's projection (the
    engine-side constraint projects nothing, so its maintained index
    qualifies as-is).
    """
    constraint = constraint if constraint is not None else UnrestrictedConstraint()
    if index is None:
        projected = [constraint.project(transaction)
                     for transaction in transactions]
        index = BitmapIndex.from_transactions(projected).as_mapping()
    singletons: list[_Extension] = []
    for item, bits in index.items():
        support = bits.bit_count()
        if support >= min_count and constraint.admits_item(item):
            singletons.append((support, item, bits, (item,)))
    singletons.sort()
    out: dict[Itemset, int] = {}
    _dfs(singletons, min_count, constraint, max_length, out)
    # Lexicographic order keeps the table's (and so the rule set's)
    # iteration order independent of the support-ordered search.
    return dict(sorted(out.items()))


def mine_containing(index: Mapping[int, int],
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
    seed_bits = index.get(seed_item, 0)
    seed_support = seed_bits.bit_count()
    if not seed_bits or seed_support < min_count \
            or not constraint.admits_item(seed_item):
        return {}

    out: dict[Itemset, int] = {(seed_item,): seed_support}
    if max_length is None or max_length > 1:
        if candidate_items is None:
            candidate_items = index.keys()
        candidates = [(item, index[item])
                      for item in set(candidate_items) - {seed_item}
                      if item in index]
        _dfs(_join((seed_item,), seed_bits, candidates, min_count,
                   constraint),
             min_count, constraint, max_length, out)
    # Lexicographic in the items joined to the seed (the seed alone
    # first), whatever order the support-ordered search found them in.
    return dict(sorted(
        out.items(),
        key=lambda entry: [item for item in entry[0] if item != seed_item]))


def count_itemset(index: Mapping[int, int],
                  itemset: Itemset,
                  *,
                  universe_size: int | None = None) -> int:
    """Exact count of ``itemset``: one ``&`` chain plus a popcount.

    The empty itemset counts every transaction, hence ``universe_size``
    is required for it.
    """
    if not itemset:
        if universe_size is None:
            raise ValueError("universe_size required to count the empty itemset")
        return universe_size
    bits = -1  # all ones: the identity for &
    for item in itemset:
        bits &= index.get(item, 0)
        if not bits:
            return 0
    return bits.bit_count()


def tids_of(index: Mapping[int, int],
            itemset: Itemset) -> set[int]:
    """Tids of transactions containing every item of ``itemset``."""
    if not itemset:
        raise ValueError("tids_of requires a non-empty itemset")
    bits = -1
    for item in itemset:
        bits &= index.get(item, 0)
        if not bits:
            return set()
    return set(tids_from_bits(bits))
