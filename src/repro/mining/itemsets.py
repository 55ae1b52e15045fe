"""Item model and transaction containers for the mining substrate.

The paper's dataset (its Figure 4) represents every tuple as a line of
opaque tokens: numeric ids for data values and ``Annot_k`` ids for
annotations.  Mining never needs the true values — only co-occurrence —
so the library interns every token into a compact integer id through an
:class:`ItemVocabulary` and represents transactions as frozensets of ids
(stored packed as tuples by :class:`TransactionDatabase`).

Three item kinds exist:

* ``DATA`` — a data value occurring in a tuple,
* ``ANNOTATION`` — a raw annotation attached to a tuple,
* ``LABEL`` — a generalized annotation label produced by the
  generalization engine (section 4.1 of the paper).  Labels behave
  exactly like annotations for mining purposes, which
  :meth:`ItemVocabulary.is_annotation_like` captures.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import ItemKindError, VocabularyError
from repro._util import sorted_tuple

#: Canonical itemset representation: a sorted tuple of interned item ids.
Itemset = tuple[int, ...]

#: A transaction is the set of item ids present in one tuple.
Transaction = frozenset


class ItemKind(enum.Enum):
    """Classification of interned items."""

    DATA = "data"
    ANNOTATION = "annotation"
    LABEL = "label"


@dataclass(frozen=True, slots=True)
class Item:
    """A kind-tagged token, the unit of the mining alphabet."""

    kind: ItemKind
    token: str

    def __post_init__(self) -> None:
        if not isinstance(self.token, str) or not self.token:
            raise ItemKindError(f"item token must be a non-empty string, "
                                f"got {self.token!r}")

    @property
    def is_annotation_like(self) -> bool:
        """True for raw annotations and generalized labels alike."""
        return self.kind is not ItemKind.DATA

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.token


class ItemVocabulary:
    """Bidirectional mapping between :class:`Item` objects and integer ids.

    The vocabulary is append-only: ids are dense, stable, and never
    recycled, which lets every other component (tidset indexes, pattern
    tables, rule sets) key on plain integers.
    """

    def __init__(self) -> None:
        self._items: list[Item] = []
        self._ids: dict[Item, int] = {}
        self._annotation_like: set[int] = set()

    # -- interning ---------------------------------------------------------

    def intern(self, item: Item) -> int:
        """Return the id of ``item``, assigning a fresh one if unseen."""
        existing = self._ids.get(item)
        if existing is not None:
            return existing
        item_id = len(self._items)
        self._items.append(item)
        self._ids[item] = item_id
        if item.is_annotation_like:
            self._annotation_like.add(item_id)
        return item_id

    def intern_data(self, token: str) -> int:
        return self.intern(Item(ItemKind.DATA, token))

    def intern_annotation(self, token: str) -> int:
        return self.intern(Item(ItemKind.ANNOTATION, token))

    def intern_label(self, token: str) -> int:
        return self.intern(Item(ItemKind.LABEL, token))

    # -- lookup ------------------------------------------------------------

    def item(self, item_id: int) -> Item:
        """The :class:`Item` interned under ``item_id``."""
        try:
            return self._items[item_id]
        except (IndexError, TypeError):
            raise VocabularyError(f"unknown item id {item_id!r}") from None

    def id_of(self, item: Item) -> int:
        try:
            return self._ids[item]
        except KeyError:
            raise VocabularyError(f"item {item!r} is not interned") from None

    def find_annotation(self, token: str) -> int:
        """Id of a raw annotation token (raises if absent)."""
        return self.id_of(Item(ItemKind.ANNOTATION, token))

    def is_annotation_like(self, item_id: int) -> bool:
        """True when ``item_id`` denotes an annotation or a label."""
        if not 0 <= item_id < len(self._items):
            raise VocabularyError(f"unknown item id {item_id!r}")
        return item_id in self._annotation_like

    def annotation_like_ids(self) -> frozenset[int]:
        """All annotation and label ids interned so far."""
        return frozenset(self._annotation_like)

    def data_ids(self) -> frozenset[int]:
        """All data-value ids interned so far."""
        return frozenset(range(len(self._items))) - self._annotation_like

    def count_annotation_like(self, itemset: Iterable[int]) -> int:
        """Number of annotation/label ids inside ``itemset``."""
        return sum(1 for item_id in itemset if item_id in self._annotation_like)

    # -- display -----------------------------------------------------------

    def render(self, itemset: Iterable[int]) -> str:
        """Human-readable rendering of an itemset, data items first."""
        items = [self.item(item_id) for item_id in sorted_tuple(itemset)]
        items.sort(key=lambda item: (item.is_annotation_like, item.token))
        return " ".join(item.token for item in items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._ids

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)


class TransactionDatabase:
    """A vocabulary plus an ordered list of transactions.

    This is the neutral container that all miners consume.  Transaction
    index == tuple id (tid) for databases built from a relation, which is
    what lets the incremental layer talk about "newly annotated tuples".

    Storage is tuple-packed: each transaction is kept as a tuple of its
    distinct item ids (a tombstone as ``()``), a seventh of a small
    frozenset's footprint.  Every accessor still hands out frozensets,
    so no consumer sees the packing.
    """

    def __init__(self, vocabulary: ItemVocabulary | None = None) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else ItemVocabulary()
        self._transactions: list[tuple[int, ...]] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def from_encoded(cls, vocabulary: ItemVocabulary,
                     transactions: Iterable[tuple[int, ...]]
                     ) -> "TransactionDatabase":
        """Trusted bulk constructor for already-packed transactions.

        The caller guarantees every id was issued by ``vocabulary`` and
        every transaction is a tuple of *distinct* ids (``()`` for a
        tombstone) — the contract of
        :func:`~repro.relation.transactions.encode_relation`, which
        interned the ids itself.  The tuples are stored as given;
        skipping the per-id validation of :meth:`add` is what makes
        substrate construction scale with tokens, not with vocabulary
        probes.
        """
        database = cls(vocabulary)
        database._transactions = list(transactions)
        return database

    def add(self, item_ids: Iterable[int]) -> int:
        """Append a transaction of already-interned ids; returns its tid."""
        transaction = tuple(frozenset(item_ids))
        for item_id in transaction:
            # Raises VocabularyError on ids the vocabulary never issued.
            self.vocabulary.item(item_id)
        self._transactions.append(transaction)
        return len(self._transactions) - 1

    def add_tokens(self, data_tokens: Sequence[str],
                   annotation_tokens: Sequence[str] = ()) -> int:
        """Intern raw tokens and append the resulting transaction."""
        ids = [self.vocabulary.intern_data(token) for token in data_tokens]
        ids += [self.vocabulary.intern_annotation(token)
                for token in annotation_tokens]
        self._transactions.append(tuple(frozenset(ids)))
        return len(self._transactions) - 1

    def extend_transaction(self, tid: int, item_ids: Iterable[int]) -> None:
        """Add items to an existing transaction (Case 3 annotation adds)."""
        old = self._transactions[tid]
        self._transactions[tid] = old + tuple(frozenset(item_ids)
                                              .difference(old))

    def shrink_transaction(self, tid: int, item_ids: Iterable[int]) -> None:
        """Remove items from a transaction (annotation detachment)."""
        removed = frozenset(item_ids)
        self._transactions[tid] = tuple(
            item for item in self._transactions[tid] if item not in removed)

    def clear_transaction(self, tid: int) -> Transaction:
        """Empty a transaction (tuple deletion); returns the old items."""
        old = self._transactions[tid]
        self._transactions[tid] = ()
        return frozenset(old)

    # -- access ------------------------------------------------------------

    def transaction(self, tid: int) -> Transaction:
        return frozenset(self._transactions[tid])

    @property
    def transactions(self) -> Sequence[Transaction]:
        """Live read-only view; each element is unpacked on access."""
        return _FrozensetView(self._transactions)

    def annotation_projection(self) -> list[Transaction]:
        """Transactions restricted to annotation-like items (A2A mining)."""
        keep = self.vocabulary.annotation_like_ids()
        return [keep.intersection(transaction)
                for transaction in self._transactions]

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return map(frozenset, self._transactions)


class _FrozensetView(Sequence):
    """A list of packed transactions seen as a sequence of frozensets."""

    __slots__ = ("_packed",)

    def __init__(self, packed: list[tuple[int, ...]]) -> None:
        self._packed = packed

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [frozenset(packed) for packed in self._packed[index]]
        return frozenset(self._packed[index])

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Transaction]:
        return map(frozenset, self._packed)


def canonical(items: Iterable[int]) -> Itemset:
    """Canonical itemset form: sorted, deduplicated tuple."""
    return sorted_tuple(items)


def contains(transaction: Transaction, itemset: Itemset) -> bool:
    """True when every item of ``itemset`` occurs in ``transaction``."""
    return all(item in transaction for item in itemset)
