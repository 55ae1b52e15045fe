"""Resident footprint of a mined engine, and the packed store's answers.

A relation plus a mined engine over the paper workload must retain at
most 850 B per tuple: tuples are slotted, keep their annotation ids as
one sorted tuple of interned ids (the empty tuple when unannotated),
share their empty label set, and keep a cell-anchor dict only when an
annotation is anchored to a cell; data values are interned, and the
transaction store packs each transaction as a tuple of ids.
The bound covers the served path too: a tenant created from the
JSON-decoded rows of a create body, once the body is gone.  A first
estimate read on a mined tenant adds next to nothing on top.
Tombstones keep nothing but their tid: under churn, what a delete
leaves behind is bounded per tombstone, not by the row it was.
Loading is bounded as well: a tenant created from its create body's
bytes, and an engine restored from its snapshot file, peak at most
1.5x what they keep, because neither builds the document's tree of
rows.
The packing must stay invisible: after a mixed flush, after a copy
and re-mine, and after a snapshot restore, the store answers exactly
what encoding the tuple afresh gives.
"""

import gc
import json
import tracemalloc

import pytest

from repro.app.service import CorrelationService
from repro.core import persistence
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.core.events import AddAnnotatedTuples, RemoveTuples
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from repro.relation.transactions import encode_tuple
from repro.server.tenants import (
    create_tenant,
    load_create_body,
    tenant_status,
)
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from repro.synth.workloads import paper_scale

N_TUPLES = 4000
#: At least 25% over the larger of the two per-tuple figures below
#: (658 B for the mined engine, 419 B for the created tenant).
MAX_BYTES_PER_TUPLE = 850


def test_relation_and_mined_engine_retain_at_most_850_b_per_tuple():
    gc.collect()
    tracemalloc.start()
    try:
        workload = paper_scale(N_TUPLES)
        engine = CorrelationEngine(workload.relation,
                                   min_support=workload.min_support,
                                   min_confidence=workload.min_confidence)
        del workload
        engine.mine()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(engine.rules) > 0
    assert retained / N_TUPLES <= MAX_BYTES_PER_TUPLE, (
        f"{retained / N_TUPLES:.0f} B retained per tuple")


def test_a_tenant_created_from_decoded_json_retains_at_most_850_b_per_tuple():
    workload = paper_scale(N_TUPLES)
    body = json.dumps([[list(row.values), sorted(row.annotation_ids)]
                       for row in workload.relation])
    config = EngineConfig(min_support=workload.min_support,
                          min_confidence=workload.min_confidence)
    service = CorrelationService()
    del workload
    gc.collect()
    tracemalloc.start()
    try:
        rows = json.loads(body)
        create_tenant(service, "paper", rows=rows, default_engine=config)
        del rows
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    status = tenant_status(service, "paper")
    assert status["db_size"] == N_TUPLES and status["rules"] > 0
    assert retained / N_TUPLES <= MAX_BYTES_PER_TUPLE, (
        f"{retained / N_TUPLES:.0f} B retained per tuple")


#: Peak over retained memory of a load: the loaded state, plus the
#: transient of the initial mine.  Decoding the whole JSON document
#: first peaked at about 2.5-3x.
MAX_LOAD_PEAK_RATIO = 1.5


def traced_load(load):
    """``load()`` under tracemalloc: (its result, retained, peak)."""
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, retained, peak


def test_a_tenant_created_from_its_body_bytes_peaks_at_most_1_5x_what_it_keeps():
    workload = paper_scale(N_TUPLES)
    raw = json.dumps({
        "name": "paper",
        "rows": [[list(row.values), sorted(row.annotation_ids)]
                 for row in workload.relation],
        "config": {"min_support": workload.min_support,
                   "min_confidence": workload.min_confidence},
    }).encode()
    del workload

    def create():
        service = CorrelationService()
        body = load_create_body(raw)
        create_tenant(service, body["name"], rows=body["rows"],
                      config=body["config"])
        return service

    service, retained, peak = traced_load(create)
    status = tenant_status(service, "paper")
    assert status["db_size"] == N_TUPLES and status["rules"] > 0
    assert peak <= MAX_LOAD_PEAK_RATIO * retained, (
        f"create peaked at {peak / retained:.2f}x the {retained} B kept")


def test_a_snapshot_load_peaks_at_most_1_5x_what_it_keeps(tmp_path):
    workload = paper_scale(N_TUPLES)
    engine = CorrelationEngine(workload.relation,
                               min_support=workload.min_support,
                               min_confidence=workload.min_confidence)
    engine.mine()
    path = tmp_path / "snapshot.json"
    persistence.save(engine, path)
    signature = engine.signature()
    del workload, engine

    restored, retained, peak = traced_load(lambda: persistence.load(path))
    assert restored.signature() == signature
    assert peak <= MAX_LOAD_PEAK_RATIO * retained, (
        f"load peaked at {peak / retained:.2f}x the {retained} B kept")


#: What a first estimate read may leave behind on a mined tenant: it
#: counts from the engine's own index, so it builds nothing to keep.
MAX_ESTIMATE_RETAINED = 16 * 1024


def test_a_first_estimate_retains_no_second_index():
    workload = paper_scale(N_TUPLES)
    service = CorrelationService(config=EngineConfig(
        min_support=workload.min_support,
        min_confidence=workload.min_confidence))
    service.create("paper", workload.relation)
    del workload
    gc.collect()
    tracemalloc.start()
    try:
        assert len(service.estimate("paper")) > 0
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        service.close()
    assert retained <= MAX_ESTIMATE_RETAINED, (
        f"a first estimate retained {retained} B")


def assert_store_matches_relation(engine: CorrelationEngine) -> None:
    relation = engine.relation
    for tid in range(relation.tid_range):
        stored = engine.database.transaction(tid)
        if relation.is_live(tid):
            assert stored == encode_tuple(relation, tid, engine.vocabulary), \
                f"tid {tid}"
        else:
            assert stored == frozenset(), f"dead tid {tid}"


def assert_compact(engine: CorrelationEngine) -> None:
    relation = engine.relation
    for row in relation.tid_slice(0, relation.tid_range):
        assert not hasattr(row, "__dict__")
        assert type(row.labels) is frozenset
        assert type(row.annotations) is tuple
        assert list(row.annotations) == sorted(set(row.annotations))
        assert row.cell_anchors is None  # every anchor here is a row's
        if not row.alive:
            assert row.values == () and row.annotations == ()
            assert not row.labels


#: What one tombstone may keep, engine included: the slotted row with
#: its tid, a slot in the relation and in the transaction store, and
#: one more bit in the bitmaps of the items the tid range reaches.  A
#: tombstone that kept its row held about 410 B.
MAX_BYTES_PER_TOMBSTONE = 200
CHURN_BATCHES = 20
CHURN_BATCH_ROWS = 100


def test_churn_leaves_tombstones_that_keep_nothing():
    """Delete the oldest live rows and insert them again, batch after
    batch: |DB| stays flat while the tid range grows, and the memory
    it grows by is bounded per tombstone."""
    gc.collect()
    tracemalloc.start()  # from the start, so frees of old rows count
    try:
        workload = paper_scale(N_TUPLES)
        engine = CorrelationEngine(workload.relation,
                                   min_support=workload.min_support,
                                   min_confidence=workload.min_confidence)
        del workload
        engine.mine()
        relation = engine.relation

        def churn(batches: int) -> None:
            for _ in range(batches):
                doomed = list(relation.tids())[:CHURN_BATCH_ROWS]
                rows = [(relation.tuple(tid).values,
                         relation.tuple(tid).annotations)
                        for tid in doomed]
                engine.apply_batch([RemoveTuples.build(doomed),
                                    AddAnnotatedTuples.build(rows)])

        churn(4)  # the first batches reshape the engine's own state
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        churn(CHURN_BATCHES)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tombstones = CHURN_BATCHES * CHURN_BATCH_ROWS
    assert engine.db_size == N_TUPLES
    assert relation.tid_range == N_TUPLES + tombstones + 4 * CHURN_BATCH_ROWS
    assert_compact(engine)
    assert grown / tombstones <= MAX_BYTES_PER_TOMBSTONE, (
        f"{grown / tombstones:.0f} B retained per tombstone")


@pytest.fixture
def flushed(seeds):
    """A labelled paper-scale engine after one mixed 64-event flush."""
    relation = paper_scale(N_TUPLES).relation
    generalizer = Generalizer(
        relation.registry,
        GeneralizationRuleSet([
            GeneralizationRule("Planted",
                               IdMatcher(frozenset({"Annot_1", "Annot_2"}))),
            GeneralizationRule("Streamed",
                               IdMatcher(frozenset({"Annot_s0", "Annot_s1"}))),
        ]),
        ConceptHierarchy.from_edges([("Planted", "Curated"),
                                     ("Streamed", "Curated")]))
    engine = CorrelationEngine(relation, min_support=0.4,
                               min_confidence=0.8, generalizer=generalizer)
    engine.mine()
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(
        seed=seeds.seed(16), batch_size=3, n_columns=6,
        values_per_column=40, annotation_pool_size=3))
    events = list(stream.take(
        64, apply=lambda event: apply_to_relation(shadow, event)))
    engine.apply_batch(events)
    return engine


def test_packed_store_matches_fresh_encoding_after_a_mixed_flush(flushed):
    assert any(row.labels for row in flushed.relation)
    assert flushed.relation.tid_range > flushed.db_size  # deletes landed
    assert_store_matches_relation(flushed)
    assert_compact(flushed)
    assert flushed.verify_against_remine().equivalent


def test_copy_and_restore_stay_compact_and_consistent(flushed):
    remined = CorrelationEngine(flushed.relation.copy(), flushed.config)
    remined.mine()
    restored = persistence.restore(persistence.snapshot(flushed),
                                   generalizer=flushed.generalizer)
    for engine in (remined, restored):
        assert_store_matches_relation(engine)
        assert_compact(engine)
        assert engine.signature() == flushed.signature()
