"""Bitmap-backed vertical counting substrate.

Every vertical structure in this library ultimately answers one
question: *how many transactions contain all items of a candidate
pattern?*  The answer is a tidset intersection, and the cheapest exact
tidset representation available to pure Python is an unbounded integer
used as a bit vector — bit ``t`` set iff transaction ``t`` holds the
item.  Intersection is ``a & b`` (one C-level word-parallel pass) and
support is ``(a & b).bit_count()``, both orders of magnitude cheaper
than hashing every tid through ``set`` intersection on dense tidsets.

Two layers live here:

* :class:`BitTidset` — an immutable set-of-tids value wrapping one such
  integer.  It implements just enough of the set protocol (``&``,
  ``|``, ``-``, ``len``, ``in``, iteration, truthiness) that the
  generic vertical miners in :mod:`repro.mining.eclat` run unchanged on
  either representation.
* :class:`BitmapIndex` — the maintained item -> bitmap map.  It is the
  storage engine behind :class:`~repro.core.annotation_index.VerticalIndex`,
  the index every from-scratch mine runs over.  Buckets whose last
  tid is discarded are dropped immediately, so delete-heavy streams
  never iterate dead items.

The index exposes its contents only through :meth:`BitmapIndex.as_mapping`,
a read-only :class:`~collections.abc.Mapping` view whose values are
immutable :class:`BitTidset` objects — a consumer cannot corrupt the
incrementally maintained state through it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.mining.itemsets import Itemset, Transaction


class BitTidset:
    """An immutable set of transaction ids stored as one big integer."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError(f"tidset bits must be non-negative, got {bits}")
        self._bits = bits

    @classmethod
    def from_tids(cls, tids: Iterable[int]) -> "BitTidset":
        """Bulk-build from a tid iterable.

        Sets bits in a ``bytearray`` (amortized-doubling growth) and
        converts once with ``int.from_bytes``: O(tids + max_tid/8)
        total.  The obvious per-tid ``bits |= 1 << tid`` rebuilds the
        whole big int on every insertion — quadratic on large sparse
        tid ranges (see ``bench_counting_substrate.py``).
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
        return cls(int.from_bytes(buf, "little"))

    @property
    def bits(self) -> int:
        """The raw bit vector (bit ``t`` set iff tid ``t`` is present)."""
        return self._bits

    # -- set protocol (the subset the vertical miners rely on) ---------------

    def __and__(self, other: "BitTidset") -> "BitTidset":
        return BitTidset(self._bits & other._bits)

    def __or__(self, other: "BitTidset") -> "BitTidset":
        return BitTidset(self._bits | other._bits)

    def __sub__(self, other: "BitTidset") -> "BitTidset":
        return BitTidset(self._bits & ~other._bits)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, tid: int) -> bool:
        return tid >= 0 and (self._bits >> tid) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitTidset):
            return self._bits == other._bits
        if isinstance(other, (set, frozenset)):
            return self._bits == BitTidset.from_tids(other)._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def isdisjoint(self, other: "BitTidset") -> bool:
        return self._bits & other._bits == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitTidset({{{', '.join(map(str, self))}}})"


class _TidsetView(Mapping):
    """Read-only item -> :class:`BitTidset` view over a raw bitmap dict.

    The view is live (it reflects later index maintenance) but cannot
    mutate the underlying state: the Mapping ABC exposes no setters and
    every value handed out is an immutable :class:`BitTidset`.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: dict[int, int]) -> None:
        self._bits = bits

    def __getitem__(self, item: int) -> BitTidset:
        return BitTidset(self._bits[item])

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __contains__(self, item: object) -> bool:
        return item in self._bits


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

    def tidset(self, item: int) -> BitTidset:
        return BitTidset(self._bits.get(item, 0))

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
        return set(BitTidset(result))

    def items(self) -> list[int]:
        """All items with at least one live tid, sorted."""
        return sorted(self._bits)

    def as_mapping(self) -> Mapping[int, BitTidset]:
        """Read-only live view handed to the vertical miners."""
        return _TidsetView(self._bits)

    def __contains__(self, item: int) -> bool:
        return item in self._bits

    def __len__(self) -> int:
        return len(self._bits)
