"""Vertical index and the annotation frequency table.

Section 4.3 of the paper: "the system indexes the annotations such that
given a query annotation, we can efficiently find all data tuples having
this annotation" and "the system maintains a table containing the
frequency of each annotation, and it is updated whenever a new
annotation is added".  Both structures are views over one maintained
item -> tidset map; keeping data items in the same map lets discovery
count any candidate pattern by tidset intersection without a database
scan.

Storage is the bitmap substrate of :mod:`repro.mining.bitmap`: each
item's tidset is one big integer, so candidate counting is a bitwise
AND plus a popcount instead of hashed set intersection.  Buckets whose
last tid disappears are pruned immediately, so delete-heavy streams do
not accumulate dead items in :meth:`VerticalIndex.items` walks.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import MaintenanceError
from repro.mining.bitmap import BitmapIndex, tids_from_bits
from repro.mining.itemsets import ItemVocabulary, Itemset, Transaction


class VerticalIndex:
    """Maintained item -> tidset map over the live transactions.

    The four maintenance methods are the single choke point every
    engine mutation path funnels through; the read side answers
    frequencies and itemset counts straight from the bitmaps, which
    is also how estimate reads count (:mod:`repro.app.estimate`).
    """

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self._vocabulary = vocabulary
        self._bitmaps = BitmapIndex()

    @classmethod
    def from_bitmaps(cls, vocabulary: ItemVocabulary,
                     bitmaps: BitmapIndex) -> "VerticalIndex":
        """Adopt a bitmap index already built over the transactions —
        what :func:`~repro.relation.transactions.encode_relation`
        emits beside them."""
        index = cls(vocabulary)
        index._bitmaps = bitmaps
        return index

    # -- maintenance --------------------------------------------------------

    def add_transaction(self, tid: int, items: Transaction) -> None:
        for item in items:
            self._bitmaps.add(item, tid)

    def extend_transaction(self, tid: int, new_items: Iterable[int]) -> None:
        for item in new_items:
            self._bitmaps.add(item, tid)

    def shrink_transaction(self, tid: int, removed_items: Iterable[int]) -> None:
        for item in removed_items:
            if not self._bitmaps.discard(item, tid):
                raise MaintenanceError(
                    f"index does not record item {item} on tid {tid}")

    def remove_transaction(self, tid: int, items: Transaction) -> None:
        self.shrink_transaction(tid, items)

    # -- queries -------------------------------------------------------------

    @property
    def vocabulary(self) -> ItemVocabulary:
        """The vocabulary this index's items are interned in."""
        return self._vocabulary

    def tids(self, item: int) -> frozenset[int]:
        return frozenset(tids_from_bits(self._bitmaps.bits(item)))

    def frequency(self, item: int) -> int:
        """The annotation frequency table entry for ``item``."""
        return self._bitmaps.frequency(item)

    def count(self, itemset: Itemset, *, db_size: int | None = None) -> int:
        if not itemset:
            if db_size is None:
                raise ValueError(
                    "db_size required to count the empty itemset")
            return db_size
        return self._bitmaps.count(itemset)

    def tids_of_itemset(self, itemset: Itemset) -> set[int]:
        return self._bitmaps.tids_of(itemset)

    def frequent_items(self, min_count: int, *,
                       annotation_like_only: bool = False) -> list[int]:
        keep = (self._vocabulary.annotation_like_ids()
                if annotation_like_only else None)
        return [
            item for item in self._bitmaps.items()
            if self._bitmaps.frequency(item) >= min_count
            and (keep is None or item in keep)]

    def items(self) -> list[int]:
        return self._bitmaps.items()

    def as_mapping(self) -> Mapping[int, int]:
        """Read-only item -> bit vector view handed to the vertical miners.

        The view is live but cannot corrupt the index: it is a
        :class:`types.MappingProxyType` and its values are immutable
        ints (bit ``t`` set iff tid ``t`` holds the item).
        """
        return self._bitmaps.as_mapping()

    def annotation_frequencies(self) -> dict[int, int]:
        """The paper's annotation frequency table as a plain dict."""
        keep = self._vocabulary.annotation_like_ids()
        return {item: self._bitmaps.frequency(item)
                for item in self._bitmaps.items() if item in keep}

    def __contains__(self, item: int) -> bool:
        return item in self._bitmaps
