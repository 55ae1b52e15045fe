"""Hash-partitioning a relation and bulk-building shard substrates.

Two jobs live here, both on the sharded engine's critical path:

* :func:`partition_relation` — split a relation's live tuples into N
  shard-local relations by a tid partitioner, producing the global/local
  tid maps the sharded engine routes updates and serves reads through;
* :func:`build_substrate` / :func:`encode_shards` — encode shard
  tuples with the bulk encoder of :mod:`repro.relation.transactions`.

One :class:`~repro.relation.transactions.TokenInterner` is shared by
all shards of an engine, so the shared vocabulary is populated exactly
once, in shard order, and the phase-1 mines only ever read it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.core.engine import EncodedSubstrate
from repro.errors import MaintenanceError
from repro.mining.itemsets import ItemVocabulary
from repro.relation.relation import AnnotatedRelation
from repro.relation.transactions import (
    EncodedRelation,
    TokenInterner,
    encode_relation,
)

#: Maps a global tid to the shard that owns it.
Partitioner = Callable[[int], int]


def modulo_partitioner(count: int) -> Partitioner:
    """The default layout: ``tid % count`` (uniform for dense tids)."""
    def shard_of(tid: int) -> int:
        return tid % count
    return shard_of


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


def build_substrate(relation: AnnotatedRelation,
                    interner: TokenInterner,
                    *,
                    include_labels: bool = True) -> EncodedSubstrate:
    """Bulk-encode one shard relation into a mining substrate.

    The interner's vocabulary becomes the substrate's.
    """
    return EncodedSubstrate.from_encoded(
        interner.vocabulary,
        encode_relation(relation, interner, include_labels=include_labels))


def encode_shards(shards: Iterable[AnnotatedRelation],
                  vocabulary: ItemVocabulary) -> list[EncodedRelation]:
    """Packed transactions and bitmaps per shard, sharing one interner.

    Interning is ordered (shard 0 first, tuple order within a shard)
    so the vocabulary is the same on every run of the same layout.
    """
    interner = TokenInterner(vocabulary)
    return [encode_relation(shard, interner) for shard in shards]
