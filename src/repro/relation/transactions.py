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
  through a :class:`TokenInterner` — every from-scratch mine uses it.

Column-anchored annotations are *not* folded into row transactions by
default: a column annotation holds for the attribute, not for any
specific row, and folding it in would make it co-occur with everything
(support 1.0) and drown real correlations.  Callers of
:func:`encode_tuple` who do want that behaviour opt in via
``include_column_annotations=True``.
"""

from __future__ import annotations

from repro.mining.itemsets import ItemVocabulary, Transaction
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import opaque_token


def encode_tuple(relation: AnnotatedRelation, tid: int,
                 vocabulary: ItemVocabulary, *,
                 include_labels: bool = True,
                 include_column_annotations: bool = False) -> Transaction:
    """The transaction (set of interned item ids) for one live tuple."""
    row = relation.tuple(tid)
    ids = [vocabulary.intern_data(token)
           for token in relation.data_tokens(tid)]
    ids += [vocabulary.intern_annotation(annotation_id)
            for annotation_id in row.annotation_ids]
    if include_labels:
        ids += [vocabulary.intern_label(label) for label in row.labels]
    if include_column_annotations:
        for column in range(len(row.values)):
            ids += [vocabulary.intern_annotation(annotation_id)
                    for annotation_id in relation.column_annotations(column)]
    return frozenset(ids)


class TokenInterner:
    """Plain-dict token caches in front of an :class:`ItemVocabulary`.

    Resolving a token costs one string-dict lookup; only the first
    occurrence of a distinct token reaches the vocabulary's
    ``Item``-keyed interning.  Not thread-safe — the sharded engine
    completes all interning before its concurrent mining phase.
    """

    __slots__ = ("vocabulary", "_data", "_annotations", "_labels")

    def __init__(self, vocabulary: ItemVocabulary) -> None:
        self.vocabulary = vocabulary
        self._data: dict[str, int] = {}
        self._annotations: dict[str, int] = {}
        self._labels: dict[str, int] = {}

    def data(self, token: str) -> int:
        item_id = self._data.get(token)
        if item_id is None:
            item_id = self.vocabulary.intern_data(token)
            self._data[token] = item_id
        return item_id

    def annotation(self, token: str) -> int:
        item_id = self._annotations.get(token)
        if item_id is None:
            item_id = self.vocabulary.intern_annotation(token)
            self._annotations[token] = item_id
        return item_id

    def label(self, token: str) -> int:
        item_id = self._labels.get(token)
        if item_id is None:
            item_id = self.vocabulary.intern_label(token)
            self._labels[token] = item_id
        return item_id


def encode_relation(relation: AnnotatedRelation,
                    interner: TokenInterner,
                    *,
                    include_labels: bool = True) -> list[Transaction]:
    """Bulk-encode every tuple of ``relation``; list index == tid.

    Produces exactly the transactions a per-tuple :func:`encode_tuple`
    loop would (same items, vocabulary interned in the same order), but
    interns each distinct token once and resolves every later
    occurrence through the interner's plain ``str -> int`` caches.
    Tombstoned tuples encode as empty transactions; they contribute to
    no pattern count, and |DB| for support purposes must be taken from
    ``relation.live_count``.  Tuple-order interning keeps vocabulary
    ids deterministic, which is why this pass stays sequential.
    """
    schema = relation.schema
    data = interner.data
    annotation = interner.annotation
    label = interner.label
    empty: Transaction = frozenset()
    transactions = [empty] * relation.tid_range
    for row in relation:
        if schema is None:
            ids = [data(opaque_token(value)) for value in row.values]
        else:
            ids = [data(schema.data_token(position, value))
                   for position, value in enumerate(row.values)]
        for annotation_id in row.annotation_ids:
            ids.append(annotation(annotation_id))
        if include_labels:
            for label_token in row.labels:
                ids.append(label(label_token))
        transactions[row.tid] = frozenset(ids)
    return transactions


def annotation_item_ids(relation: AnnotatedRelation,
                        vocabulary: ItemVocabulary,
                        tid: int) -> frozenset[int]:
    """Interned ids of the raw annotations currently on a tuple."""
    row = relation.tuple(tid)
    return frozenset(vocabulary.intern_annotation(annotation_id)
                     for annotation_id in row.annotation_ids)
