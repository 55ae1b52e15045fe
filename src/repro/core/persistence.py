"""Saving and restoring a manager's maintained state.

The paper's future work includes "implementing the incremental updating
of association rules into an actual database management system, as
currently it is a standalone application".  A standalone application
that loses its pattern table on exit must re-run Apriori at startup —
exactly the cost the incremental engine exists to avoid.  This module
serializes everything the manager maintains (relation content, pattern
table with exact counts, thresholds) to a JSON document so
a session can resume where it stopped.

The snapshot stores *tokens*, not interned ids: vocabularies are
rebuilt on load, so snapshots are portable across processes and
library versions that change interning order.

Format version 2 additionally records the engine's rule-state
``revision`` and the shape of its read-path catalog
(:class:`~repro.core.catalog.CatalogStats`): :func:`restore` adopts
the revision, pre-builds the catalog (so a restored engine serves its
first read from warm indexes) and verifies the rebuilt shape against
the saved one.  Version-1 documents (without those fields) still load.

Format version 3 adds the shard layout of a partitioned engine
(:class:`~repro.shard.ShardedEngine`): shard count and the tid -> shard
assignment.  :func:`restore` rebuilds a sharded engine
with the identical layout, so the partition a session was running with
survives a restart bit for bit (future inserts on a restored custom
layout fall back to the default modulo scheme).  Monolithic snapshots
simply omit the key; version-1 and -2 documents still load.

Format version 4 adds the write-ahead journal anchor
(``"journal": {"seq": N}``): the journal sequence the snapshot was
taken at, so :class:`~repro.core.journal.JournalStore` recovery knows
exactly which journal suffix to replay on top.  Snapshots saved
outside a journal store omit the key.  Versions 1-3 still load.

Snapshots no longer record the ``backend`` the engine mined with: the
engine has one mining path.  Documents from writers that did record it
still load when the value names a backend those writers had (the value
is ignored); any other value is a corrupted document.

Every writer streams the document through :func:`dump` as compact
JSON, ``tuples`` encoded a block of rows at a time by :mod:`json`'s C
encoder.  Whitespace is not part of the format: the indented files
older writers produced are the same format and still load.  Readers
go through :func:`read`, which decodes ``tuples`` a row at a time.

Older writers also recorded an ``events_applied`` count and the shard
layout's ``workers`` setting.  Documents carrying them still load:
``events_applied`` is ignored, and ``workers`` is checked as those
writers wrote it (``null`` or an int >= 1) and ignored.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from collections.abc import Iterable
from typing import TextIO

from repro._util import fsync_directory
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.errors import FormatError, MaintenanceError
from repro.io.json_stream import ConvertedArray, loads_streaming
from repro.relation.annotation import Annotation
from repro.relation.relation import AnnotatedRelation, interned_strs
from repro.relation.schema import Schema
from repro.relation.tuples import AnnotatedTuple

FORMAT_VERSION = 4
#: Versions :func:`restore` accepts; 1 lacks the revision/catalog keys,
#: 2 lacks the shard layout, 3 lacks the journal anchor.
SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: Shard-layout ``executor`` values older writers recorded.  The engine
#: has one executor now, so a recorded value is checked and ignored.
LEGACY_SHARD_EXECUTORS = ("thread", "process")
#: Mining-backend names older writers recorded; checked and ignored.
LEGACY_BACKENDS = ("apriori-fup", "eclat", "fpgrowth")


#: Tuples the snapshot writer encodes per C-encoder call.  Only one
#: block's row dicts, and the encoder's per-token chunks for them, are
#: alive at a time; write time is flat from 64 to 8,000 rows a block.
BLOCK_ROWS = 256
#: Compact JSON: no indentation, so :mod:`json` runs its C encoder.
_COMPACT = (",", ":")


def snapshot(manager: CorrelationEngine, *,
             journal_seq: int | None = None) -> dict:
    """The manager's full maintained state as a JSON-able dict.

    The format's definition: :func:`dump` streams exactly this
    document, built from the same two helpers.
    """
    document = _header(manager, journal_seq)
    relation = manager.relation
    document["tuples"] = _tuple_records(
        relation.tid_slice(0, relation.tid_range))
    return document


def dump(manager: CorrelationEngine, handle: TextIO, *,
         journal_seq: int | None = None) -> None:
    """Write :func:`snapshot`'s document to ``handle`` as compact JSON.

    The header keys go first, then ``tuples``, encoded
    :data:`BLOCK_ROWS` rows at a time straight from the relation, so
    the full list of row dicts is never held at once.  Every snapshot
    writer (:func:`save`, the journal store, ``repro recover
    --snapshot-out``) goes through here, via :func:`write_synced`.
    """
    write = handle.write
    # The header object minus its closing brace, then the tuples key.
    write(json.dumps(_header(manager, journal_seq),
                     separators=_COMPACT)[:-1])
    write(',"tuples":[')
    relation = manager.relation
    tid_range = relation.tid_range
    for start in range(0, tid_range, BLOCK_ROWS):
        block = _tuple_records(
            relation.tid_slice(start, start + BLOCK_ROWS))
        if start:
            write(",")
        # "[row,...,row]" minus its brackets: the block's rows.
        write(json.dumps(block, separators=_COMPACT)[1:-1])
    write("]}")


def _header(manager: CorrelationEngine, journal_seq: int | None) -> dict:
    """Every snapshot key but ``tuples``."""
    if not manager.is_mined:
        raise MaintenanceError("cannot snapshot an unmined manager")
    if journal_seq is not None and (not isinstance(journal_seq, int)
                                    or journal_seq < 0):
        raise MaintenanceError(
            f"journal_seq must be a non-negative int, got {journal_seq!r}")
    relation = manager.relation
    annotations = [
        {
            "id": annotation.annotation_id,
            "text": annotation.text,
            "category": annotation.category,
            "author": annotation.author,
            "created": annotation.created,
        }
        for annotation in relation.registry
    ]
    table = [
        {
            "items": [_token_ref(manager, item) for item in itemset],
            "count": count,
        }
        for itemset, count in sorted(manager.table.entries())
    ]
    document = {
        "format_version": FORMAT_VERSION,
        "thresholds": {
            "min_support": manager.thresholds.min_support,
            "min_confidence": manager.thresholds.min_confidence,
            "margin": manager.thresholds.margin,
        },
        "max_length": manager.max_length,
        "schema": ([attribute.name
                    for attribute in relation.schema.attributes]
                   if relation.schema is not None else None),
        "relation_name": relation.name,
        "annotations": annotations,
        "pattern_table": table,
        "engine_revision": manager.revision,
        "catalog": manager.catalog().stats.as_dict(),
    }
    # A sharded engine exists only once its module is loaded; looking
    # the class up keeps a monolithic write from importing the package.
    shard_engine = sys.modules.get("repro.shard.engine")
    if (shard_engine is not None
            and isinstance(manager, shard_engine.ShardedEngine)):
        document["shards"] = {
            "count": manager.shard_count,
            "assignment": manager.assignment(),
        }
    if journal_seq is not None:
        document["journal"] = {"seq": journal_seq}
    return document


def _tuple_records(rows: list[AnnotatedTuple]) -> list[dict | None]:
    """The ``tuples`` entries of ``rows``: ``None`` for a tombstone."""
    return [{"values": list(row.values),
             # Already sorted: a row keeps its ids in order.
             "annotations": list(row.annotations),
             # Almost every row shares the one empty label set.
             "labels": sorted(row.labels) if row.labels else []}
            if row.alive else None
            for row in rows]


def _token_ref(manager: CorrelationEngine, item_id: int) -> list:
    item = manager.vocabulary.item(item_id)
    return [item.kind.value, item.token]


def write_synced(manager: CorrelationEngine, path: str | os.PathLike, *,
                 journal_seq: int | None = None) -> None:
    """:func:`dump` to a new file at ``path`` and fsync it.

    The first half of an atomic write: callers rename ``path`` into
    place afterwards.  If writing fails, ``path`` is removed.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            dump(manager, handle, journal_seq=journal_seq)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def save(manager: CorrelationEngine, path: str | os.PathLike, *,
         journal_seq: int | None = None) -> None:
    """Write a snapshot to ``path`` (compact JSON, via :func:`dump`).

    Atomic: the document goes to ``path + ".tmp"``, is fsynced and
    renamed over ``path``, so a failure mid-write leaves the previous
    file untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    write_synced(manager, tmp, journal_seq=journal_seq)
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(os.path.abspath(path)))


def _tuple_row(entry: dict | None) -> tuple[tuple[str, ...], ...] | None:
    """A ``tuples`` entry as ``(values, annotations, labels)`` tuples of
    interned strings, ``None`` for a tombstone."""
    if entry is None:
        return None
    return (interned_strs(entry["values"]),
            interned_strs(entry["annotations"]),
            interned_strs(entry.get("labels", ())))


def _insert_rows(relation: AnnotatedRelation, rows: Iterable) -> None:
    """Insert :func:`_tuple_row` rows in tid order, then label the
    labelled ones and tombstone the tombstones."""
    placeholder = ("__tombstone__",) * (
        relation.schema.arity if relation.schema is not None else 1)
    labelled: list[tuple[int, tuple[str, ...]]] = []
    doomed: list[int] = []

    def pairs():
        for tid, row in enumerate(rows):
            if row is None:
                doomed.append(tid)
                yield placeholder, ()
                continue
            values, annotations, labels = row
            if labels:
                labelled.append((tid, labels))
            yield values, annotations

    relation.insert_many(pairs())
    for tid, labels in labelled:
        relation.set_labels(tid, labels)
    for tid in doomed:
        relation.delete(tid)


def restore(document: dict, *, generalizer=None) -> CorrelationEngine:
    """Rebuild a mined manager from a snapshot dict.

    ``tuples`` is the list a snapshot stores, or the rows :func:`read`
    already decoded it into.

    The pattern table is restored via a fresh ``mine()`` over the
    restored relation, then cross-checked count-by-count against the
    snapshot — a corrupted or hand-edited snapshot fails loudly instead
    of silently desynchronizing future incremental updates.
    """
    version = document.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise FormatError(
            f"unsupported snapshot format_version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})")

    schema_names = document.get("schema")
    schema = Schema(schema_names) if schema_names else None
    relation = AnnotatedRelation(
        schema, name=document.get("relation_name", "R"))
    for record in document.get("annotations", ()):
        relation.registry.register(Annotation(
            record["id"], record.get("text", ""),
            record.get("category", ""), record.get("author", ""),
            record.get("created", "")))
    entries = document["tuples"]
    _insert_rows(relation, entries if isinstance(entries, ConvertedArray)
                 else map(_tuple_row, entries))

    backend = document.get("backend", LEGACY_BACKENDS[0])
    if backend not in LEGACY_BACKENDS:
        raise FormatError(f"snapshot records unknown backend {backend!r}")
    thresholds = document["thresholds"]
    config = EngineConfig(
        min_support=thresholds["min_support"],
        min_confidence=thresholds["min_confidence"],
        margin=thresholds["margin"],
        max_length=document.get("max_length"),
        generalizer=generalizer,
    )
    sharding = document.get("shards")
    if sharding is not None:
        manager = _restore_sharded(relation, config, sharding)
    else:
        manager = CorrelationEngine(relation, config)
    manager.mine()
    _verify_table(manager, document)
    revision = document.get("engine_revision")
    if version >= 2 and (revision is None
                         or document.get("catalog") is None):
        # A v2 writer always records both; their absence is truncation,
        # not an older format — restoring would silently regress the
        # revision counter every continuity consumer keys on.
        raise FormatError(
            "format_version 2 snapshot is missing its engine_revision/"
            "catalog keys — snapshot corrupted or edited")
    if revision is not None:
        manager.adopt_revision(revision)
    _verify_catalog(manager, document)
    journal = document.get("journal")
    if journal is not None and (
            not isinstance(journal, dict)
            or not isinstance(journal.get("seq"), int)
            or journal["seq"] < 0):
        raise FormatError(
            f"snapshot journal key is malformed: {journal!r}")
    return manager


def _restore_sharded(relation: AnnotatedRelation, config: EngineConfig,
                     sharding: dict) -> CorrelationEngine:
    """Rebuild a sharded engine with the snapshot's exact shard layout."""
    from repro.shard import ShardedEngine  # local: shard imports core

    count = sharding.get("count")
    if not isinstance(count, int) or count < 1:
        raise FormatError(
            f"snapshot shard layout has invalid count {count!r}")
    assignment = sharding.get("assignment")
    if not isinstance(assignment, list):
        raise FormatError("snapshot shard layout is missing its "
                          "tid assignment")
    if any(shard is not None and not (isinstance(shard, int)
                                      and 0 <= shard < count)
           for shard in assignment):
        raise FormatError(
            f"snapshot shard assignment names shards outside 0..{count - 1}")
    # Older writers recorded the shard-worker setting; checked, ignored.
    workers = sharding.get("workers")
    if workers is not None and (not isinstance(workers, int)
                                or isinstance(workers, bool)
                                or workers < 1):
        raise FormatError(
            f"snapshot shard layout has invalid workers {workers!r}")
    executor = sharding.get("executor", "thread")
    if executor not in LEGACY_SHARD_EXECUTORS:
        raise FormatError(
            f"snapshot shard layout has invalid executor {executor!r}")

    def partitioner(tid: int) -> int:
        if tid < len(assignment) and assignment[tid] is not None:
            return assignment[tid]
        return tid % count

    return ShardedEngine(
        relation,
        config.replace(shards=count),
        partitioner=partitioner)


def read(path: str | os.PathLike) -> dict:
    """A snapshot file's document, for :func:`restore`.

    ``tuples`` is decoded a row at a time straight into interned
    tuples, so the file's list of row dicts is never held whole.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return loads_streaming(text, "tuples", _tuple_row)


def load(path: str | os.PathLike, *, generalizer=None
         ) -> CorrelationEngine:
    """Read a snapshot file and rebuild the manager."""
    return restore(read(path), generalizer=generalizer)


def _verify_catalog(manager: CorrelationEngine, document: dict) -> None:
    """Rebuild the read-path catalog (warming it for the first query)
    and check its shape against the saved stats — a snapshot that
    restores to a differently shaped read state fails loudly."""
    expected = document.get("catalog")
    if expected is None:
        return  # version-1 document: nothing recorded to verify
    actual = manager.catalog().stats.as_dict()
    # Every current stat must match the saved value; a saved entry
    # *missing* a stat is corruption too (keys only a newer writer
    # knows, present in the document but not in ``actual``, pass).
    mismatched = sorted(
        key for key, value in actual.items()
        if expected.get(key) != value)
    if mismatched:
        details = ", ".join(
            f"{key}: saved {expected.get(key)} != restored {actual[key]}"
            for key in mismatched)
        raise FormatError(
            f"snapshot catalog stats disagree with the restored "
            f"engine ({details}) — snapshot corrupted or edited")


def _verify_table(manager: CorrelationEngine, document: dict) -> None:
    from repro.mining.itemsets import Item, ItemKind

    expected: dict[tuple, int] = {}
    for entry in document.get("pattern_table", ()):
        itemset = []
        for kind_value, token in entry["items"]:
            item = Item(ItemKind(kind_value), token)
            if item not in manager.vocabulary:
                raise FormatError(
                    f"snapshot pattern mentions unknown item {token!r}")
            itemset.append(manager.vocabulary.id_of(item))
        expected[tuple(sorted(itemset))] = entry["count"]
    actual = dict(manager.table.entries())
    if expected != actual:
        missing = len(set(expected) - set(actual))
        extra = len(set(actual) - set(expected))
        raise FormatError(
            f"snapshot pattern table disagrees with restored relation "
            f"({missing} missing, {extra} extra entries) — snapshot "
            f"corrupted or edited")
