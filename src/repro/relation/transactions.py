"""Encoding annotated relations as transaction databases.

Mining sees each live tuple as the set of its data-value items, raw
annotation items and generalization-label items.  The encoding keeps
transaction index == tid (tombstoned tuples encode as empty sets), which
is what lets the incremental maintenance algorithms speak about "newly
annotated tuples" by tid.

Two encoders produce the same transactions:

* :func:`encode_tuple` encodes one tuple — the incremental update
  path, the audit and the re-mine oracle use it;
* :func:`encode_relation` encodes a whole relation in one bulk pass
  through a :class:`TokenInterner`, emitting the packed transactions
  and their bitmap index together — every from-scratch mine uses it.

Both intern a tuple's tokens in one fixed order: data values by
position, then annotations, then labels, each in sorted token order
(a row keeps its annotation ids sorted, so they need no sort here).
Item ids therefore never depend on set iteration order, which varies
with the interpreter's hash seed.

Column-anchored annotations are *not* folded into row transactions by
default: a column annotation holds for the attribute, not for any
specific row, and folding it in would make it co-occur with everything
(support 1.0) and drown real correlations.  Callers of
:func:`encode_tuple` who do want that behaviour opt in via
``include_column_annotations=True``.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro.mining.bitmap import BitmapIndex
from repro.mining.itemsets import ItemVocabulary, Transaction
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema, opaque_token


def encode_tuple(relation: AnnotatedRelation, tid: int,
                 vocabulary: ItemVocabulary, *,
                 include_labels: bool = True,
                 include_column_annotations: bool = False) -> Transaction:
    """The transaction (set of interned item ids) for one live tuple."""
    row = relation.tuple(tid)
    ids = [vocabulary.intern_data(token)
           for token in relation.data_tokens(tid)]
    ids += [vocabulary.intern_annotation(annotation_id)
            for annotation_id in row.annotations]
    if include_labels:
        ids += [vocabulary.intern_label(label)
                for label in sorted(row.labels)]
    if include_column_annotations:
        for column in range(len(row.values)):
            ids += [vocabulary.intern_annotation(annotation_id)
                    for annotation_id
                    in sorted(relation.column_annotations(column))]
    return frozenset(ids)


class _TokenCache(dict):
    """``key -> item id``, filled on a key's first lookup.

    Reads are plain C-level dict lookups (``map(cache.__getitem__,
    keys)``); only a miss runs Python code: ``__missing__`` turns the
    key into its token and interns it through the vocabulary.
    """

    __slots__ = ("_intern", "_token")

    def __init__(self, intern, token=None) -> None:
        super().__init__()
        self._intern = intern
        self._token = token

    def __missing__(self, key) -> int:
        token = key if self._token is None else self._token(key)
        item_id = self[key] = self._intern(token)
        return item_id


class TokenInterner:
    """Token caches in front of an :class:`ItemVocabulary`.

    Resolving a token costs one C-level dict lookup; only the first
    occurrence of a distinct token reaches the vocabulary's
    ``Item``-keyed interning.  Schema-less values resolve through one
    value cache; a schema's values resolve through one cache per
    column, keyed by the raw value, so the ``"name=value"`` token is
    only formatted on a miss.  Not thread-safe — the sharded engine
    completes all interning before its concurrent mining phase.
    """

    __slots__ = ("vocabulary", "values", "annotations", "labels",
                 "_columns")

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self.vocabulary = vocabulary
        self.values = _TokenCache(vocabulary.intern_data, opaque_token)
        self.annotations = _TokenCache(vocabulary.intern_annotation)
        self.labels = _TokenCache(vocabulary.intern_label)
        self._columns: dict[Schema, list[_TokenCache]] = {}

    def columns(self, schema: Schema) -> list[_TokenCache]:
        """One raw-value cache per column of ``schema``."""
        caches = self._columns.get(schema)
        if caches is None:
            caches = self._columns[schema] = [
                _TokenCache(self.vocabulary.intern_data,
                            partial(schema.data_token, position))
                for position in range(schema.arity)]
        return caches


class EncodedRelation(NamedTuple):
    """What :func:`encode_relation` emits: list index == tid."""

    #: Each tuple's distinct item ids; ``()`` for a tombstone.
    transactions: list[tuple[int, ...]]
    #: The item -> tidset index over exactly those transactions.
    bitmaps: BitmapIndex


def encode_relation(relation: AnnotatedRelation,
                    interner: TokenInterner,
                    *,
                    include_labels: bool = True) -> EncodedRelation:
    """Bulk-encode every tuple of ``relation`` and index it, in one pass.

    Yields exactly the items a per-tuple :func:`encode_tuple` loop
    would (vocabulary interned in the same order), but interns each
    distinct token once and resolves every later occurrence with a
    C-level ``map`` over the interner's dict caches.  Each transaction is
    packed as a tuple of distinct ids, and while its ids are at hand
    the pass sets tid's bit in every item's ``bytearray`` page; the
    pages become the bitmap index at the end, so no frozenset is built
    and the transactions are never walked twice.

    Tombstoned tuples encode as ``()``; they contribute to no pattern
    count, and |DB| for support purposes must be taken from
    ``relation.live_count``.  Tuple-order interning keeps vocabulary
    ids deterministic, which is why this pass stays sequential.
    """
    values = interner.values.__getitem__
    annotation = interner.annotations.__getitem__
    label = interner.labels.__getitem__
    columns = (None if relation.schema is None
               else interner.columns(relation.schema))
    transactions: list[tuple[int, ...]] = [()] * relation.tid_range
    pages: dict[int, bytearray] = {}
    for row in relation:
        if columns is None:
            ids = list(map(values, row.values))
        else:
            ids = list(map(dict.__getitem__, columns, row.values))
        if row.annotations:
            ids += map(annotation, row.annotations)
        if include_labels and row.labels:
            ids += map(label, sorted(row.labels))
        tid = row.tid
        byte, mask = tid >> 3, 1 << (tid & 7)
        repeated = False
        for item in ids:
            page = pages.get(item)
            if page is None:
                pages[item] = page = bytearray(byte + 8)
            try:
                bits = page[byte]
            except IndexError:
                page.extend(bytes(max(byte + 1, len(page) * 2) - len(page)))
                bits = 0
            if bits & mask:
                # A value repeated within a schema-less row: one item.
                repeated = True
            else:
                page[byte] = bits | mask
        transactions[tid] = (tuple(dict.fromkeys(ids)) if repeated
                             else tuple(ids))
    return EncodedRelation(transactions, BitmapIndex.from_pages(pages))


def annotation_item_ids(relation: AnnotatedRelation,
                        vocabulary: ItemVocabulary,
                        tid: int) -> frozenset[int]:
    """Interned ids of the raw annotations currently on a tuple."""
    row = relation.tuple(tid)
    return frozenset(vocabulary.intern_annotation(annotation_id)
                     for annotation_id in row.annotations)
