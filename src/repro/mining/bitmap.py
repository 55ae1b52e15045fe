"""Bitmap-backed vertical counting substrate.

Every vertical structure in this library ultimately answers one
question: *how many transactions contain all items of a candidate
pattern?*  The answer is a tidset intersection, and the cheapest exact
tidset representation available to pure Python is an unbounded integer
used as a bit vector — bit ``t`` set iff transaction ``t`` holds the
item.  Intersection is ``a & b`` (one C-level word-parallel pass) and
support is ``(a & b).bit_count()``, both orders of magnitude cheaper
than hashing every tid through ``set`` intersection on dense tidsets.

The miners work on those ints directly.  What lives here:

* :class:`BitmapIndex` — the maintained item -> bitmap map.  It is the
  storage engine behind :class:`~repro.core.annotation_index.VerticalIndex`,
  the index every from-scratch mine runs over.  Buckets whose last
  tid is discarded are dropped immediately, so delete-heavy streams
  never iterate dead items.
* :func:`bits_from_tids` and :func:`tids_from_bits` — the two
  conversions between a tid collection and its bit vector, both
  linear in the vector's length.

The index exposes its contents to the miners only through
:meth:`BitmapIndex.as_mapping`, a read-only live
:class:`types.MappingProxyType` over the item -> int dict.  Python ints
are immutable, so a consumer cannot corrupt the incrementally
maintained state through it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from repro.mining.itemsets import Itemset, Transaction


def bits_from_tids(tids: Iterable[int]) -> int:
    """The bit vector of a tid iterable (bit ``t`` set iff ``t`` occurs).

    Sets bits in a ``bytearray`` (amortized-doubling growth) and
    converts once with ``int.from_bytes``: O(tids + max_tid/8) total.
    The obvious per-tid ``bits |= 1 << tid`` rebuilds the whole big int
    on every insertion, which is quadratic on large sparse tid ranges
    (see ``bench_counting_substrate.py``).
    """
    buf = bytearray(8)
    size = 8
    for tid in tids:
        if tid < 0:
            raise ValueError(f"tids must be non-negative, got {tid}")
        byte = tid >> 3
        if byte >= size:
            size = max(byte + 1, size * 2)
            buf.extend(bytes(size - len(buf)))
        buf[byte] |= 1 << (tid & 7)
    return int.from_bytes(buf, "little")


_ONE = re.compile("1")


def tids_from_bits(bits: int) -> list[int]:
    """The tids of a non-negative bit vector, ascending.

    One ``bin()`` conversion and one regex scan over the reversed digit
    string: linear in the vector's length.  Peeling the lowest set bit
    off the big int one tid at a time copies the whole int per tid,
    which is quadratic on dense vectors.
    """
    return [match.start() for match in _ONE.finditer(bin(bits)[:1:-1])]


class BitmapIndex:
    """Maintained item -> bitmap tidset map with set-free counting."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        self._bits: dict[int, int] = {}

    @classmethod
    def from_transactions(cls, transactions: Sequence[Transaction]
                          ) -> "BitmapIndex":
        """Index a horizontal database (tid == position).

        One pass over per-item ``bytearray`` pages, converted to big
        ints once at the end — ``bits |= 1 << tid`` per occurrence
        would copy each item's whole vector per transaction, which is
        quadratic at million-tuple scale.
        """
        buffers: dict[int, bytearray] = {}
        for tid, transaction in enumerate(transactions):
            byte, mask = tid >> 3, 1 << (tid & 7)
            for item in transaction:
                buf = buffers.get(item)
                if buf is None:
                    buffers[item] = buf = bytearray(8)
                if byte >= len(buf):
                    buf.extend(bytes(max(byte + 1, len(buf) * 2) - len(buf)))
                buf[byte] |= mask
        return cls.from_pages(buffers)

    @classmethod
    def from_pages(cls, pages: Mapping[int, bytearray]) -> "BitmapIndex":
        """Adopt per-item bit pages (bit ``t`` of the little-endian page
        set iff tid ``t`` holds the item), each converted to a big int
        once.  Every page must have at least one bit set."""
        index = cls()
        index._bits = {item: int.from_bytes(page, "little")
                       for item, page in pages.items()}
        return index

    # -- maintenance ---------------------------------------------------------

    def add(self, item: int, tid: int) -> None:
        self._bits[item] = self._bits.get(item, 0) | (1 << tid)

    def discard(self, item: int, tid: int) -> bool:
        """Remove ``tid`` from ``item``'s tidset; False when absent.

        An emptied bucket is deleted outright so :meth:`items` and the
        frequency queries never walk dead entries.
        """
        bits = self._bits.get(item, 0)
        mask = 1 << tid
        if not bits & mask:
            return False
        bits &= ~mask
        if bits:
            self._bits[item] = bits
        else:
            del self._bits[item]
        return True

    # -- queries -------------------------------------------------------------

    def bits(self, item: int) -> int:
        """``item``'s bit vector; 0 when the item has no live tid."""
        return self._bits.get(item, 0)

    def frequency(self, item: int) -> int:
        return self._bits.get(item, 0).bit_count()

    def count(self, itemset: Itemset) -> int:
        """Support of ``itemset`` by bitmap intersection."""
        if not itemset:
            raise ValueError("BitmapIndex.count requires a non-empty itemset")
        result = -1  # all-ones: identity for &
        for item in itemset:
            bits = self._bits.get(item)
            if not bits:
                return 0
            result &= bits
            if not result:
                return 0
        return result.bit_count()

    def tids_of(self, itemset: Itemset) -> set[int]:
        """Materialized tids of transactions containing ``itemset``."""
        if not itemset:
            raise ValueError("tids_of requires a non-empty itemset")
        result = -1
        for item in itemset:
            bits = self._bits.get(item)
            if not bits:
                return set()
            result &= bits
        return set(tids_from_bits(result))

    def items(self) -> list[int]:
        """All items with at least one live tid, sorted."""
        return sorted(self._bits)

    def as_mapping(self) -> Mapping[int, int]:
        """Read-only live item -> bit vector view handed to the miners."""
        return MappingProxyType(self._bits)

    def __contains__(self, item: int) -> bool:
        return item in self._bits

    def __len__(self) -> int:
        return len(self._bits)
