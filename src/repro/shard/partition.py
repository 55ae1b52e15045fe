"""Hash-partitioning a relation and bulk-building shard substrates.

Two jobs live here, both on the sharded engine's critical path:

* :func:`partition_relation` — split a relation's live tuples into N
  shard-local relations by a tid partitioner, producing the global/local
  tid maps the sharded engine routes updates and serves reads through;
* :func:`build_substrate` — encode one shard's tuples into a
  :class:`~repro.core.engine.EncodedSubstrate` in a single bulk pass.

The bulk encoder is why a sharded initial mine beats the monolithic
one even before any concurrency: the engine's per-tuple
``encode_tuple`` pays an ``Item`` dataclass construction plus a
vocabulary hash probe *per token occurrence*, while this pass interns
each distinct token once and then resolves occurrences through plain
``str -> int`` dictionaries (:class:`TokenInterner`).  One interner is
shared by all shards of an engine, so the shared vocabulary is
populated exactly once and the concurrent phase-1 mines only ever read
it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.annotation_index import VerticalIndex
from repro.core.engine import EncodedSubstrate
from repro.errors import MaintenanceError
from repro.mining.itemsets import ItemVocabulary, TransactionDatabase
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import opaque_token

#: Maps a global tid to the shard that owns it.
Partitioner = Callable[[int], int]


def modulo_partitioner(count: int) -> Partitioner:
    """The default layout: ``tid % count`` (uniform for dense tids)."""
    def shard_of(tid: int) -> int:
        return tid % count
    return shard_of


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


def partition_relation(relation: AnnotatedRelation,
                       shard_of: Partitioner,
                       count: int,
                       ) -> tuple[list[AnnotatedRelation],
                                  list[list[int]],
                                  dict[int, tuple[int, int]]]:
    """Split the live tuples of ``relation`` into ``count`` shards.

    Returns ``(shard_relations, global_of, local_of)`` where
    ``global_of[shard][local_tid]`` is the owning global tid and
    ``local_of[global_tid] == (shard, local_tid)``.  Tombstoned global
    tuples are owned by no shard (they carry no items and can never be
    referenced by a future event).
    """
    tids_per_shard: list[list[int]] = [[] for _ in range(count)]
    local_of: dict[int, tuple[int, int]] = {}
    for tid in relation.tids():
        shard = shard_of(tid)
        if not isinstance(shard, int) or not 0 <= shard < count:
            raise MaintenanceError(
                f"partitioner placed tid {tid} on shard {shard!r}, "
                f"outside 0..{count - 1}")
        local_of[tid] = (shard, len(tids_per_shard[shard]))
        tids_per_shard[shard].append(tid)
    shards = [relation.subset(tids) for tids in tids_per_shard]
    return shards, tids_per_shard, local_of


def encode_relation(relation: AnnotatedRelation,
                    interner: TokenInterner,
                    *,
                    include_labels: bool = True) -> list[frozenset[int]]:
    """Bulk-encode every tuple of a (freshly partitioned, all-live)
    shard relation into item-id transactions.

    Produces exactly the transactions the engine's per-tuple
    ``encode_tuple`` loop would — same items, same tid alignment — so
    a shard mine over these equals a shard mine over the slow path.
    Tuple-order interning keeps vocabulary ids deterministic, which is
    why this pass stays sequential.
    """
    schema = relation.schema
    data = interner.data
    annotation = interner.annotation
    label = interner.label
    transactions = []
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
        transactions.append(frozenset(ids))
    return transactions


def substrate_from_transactions(vocabulary: ItemVocabulary,
                                transactions: list[frozenset[int]],
                                ) -> EncodedSubstrate:
    """Materialize a mining substrate from pre-encoded transactions."""
    database = TransactionDatabase.from_encoded(vocabulary, transactions)
    index = VerticalIndex.from_transactions(vocabulary, transactions)
    return EncodedSubstrate(database=database, index=index)


def build_substrate(relation: AnnotatedRelation,
                    interner: TokenInterner,
                    *,
                    include_labels: bool = True) -> EncodedSubstrate:
    """Bulk-encode one shard relation into a mining substrate.

    The interner's vocabulary becomes the substrate's.
    """
    transactions = encode_relation(relation, interner,
                                   include_labels=include_labels)
    return substrate_from_transactions(interner.vocabulary, transactions)


def encode_shards(shards: Iterable[AnnotatedRelation],
                  vocabulary: ItemVocabulary) -> list[list[frozenset[int]]]:
    """Encoded transactions per shard, sharing one interning pass.

    This is the parent-side half of worker-built substrates: interning
    is ordered (shard 0 first, tuple order within a shard) so the
    vocabulary is byte-identical to the sequential path, while the
    O(occurrences) bitmap builds the transactions feed can run
    anywhere.
    """
    interner = TokenInterner(vocabulary)
    return [encode_relation(shard, interner) for shard in shards]


def substrates_for(shards: Iterable[AnnotatedRelation],
                   vocabulary: ItemVocabulary) -> list[EncodedSubstrate]:
    """One substrate per shard relation, sharing one interning pass."""
    interner = TokenInterner(vocabulary)
    return [build_substrate(shard, interner) for shard in shards]
