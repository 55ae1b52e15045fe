"""Sharded mining and serving: partitioned engines with exact merge.

``repro.shard`` scales the correlation engine horizontally: the
relation is hash-partitioned by tid into shard-local engines that mine
and maintain their slices independently, and a SON-style two-phase
merge reconstructs the exact global answer — the sharded rules and
``signature()`` are byte-identical to a monolithic engine's on every
event stream.

Entry points:

* :class:`ShardedEngine` — the drop-in engine; usually built through
  ``repro.engine(relation, shards=N)`` or an
  :class:`~repro.core.config.EngineConfig` with ``shards >= 2``, which
  the serving facade (:class:`~repro.app.service.CorrelationService`,
  :class:`~repro.app.session.Session`, the CLI's ``--shards``) passes
  through transparently;
* :func:`modulo_partitioner` / custom partitioners — the tid -> shard
  layout, persisted in snapshot format v3.

Shard mines and routed flushes run one shard after another in the
caller's thread: pure-Python mining holds the GIL, and a measured
thread pool was no faster than the loop (DESIGN.md "Sharding (v5)").
"""

from repro.shard.engine import ShardedEngine
from repro.shard.partition import (
    Partitioner,
    build_substrate,
    encode_shards,
    modulo_partitioner,
    partition_relation,
)
from repro.shard.views import ShardDatabaseView, ShardIndexView

__all__ = [
    "Partitioner",
    "ShardDatabaseView",
    "ShardIndexView",
    "ShardedEngine",
    "build_substrate",
    "encode_shards",
    "modulo_partitioner",
    "partition_relation",
]
