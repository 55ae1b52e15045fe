"""Resident footprint of a mined engine, and the packed store's answers.

A relation plus a mined engine over the paper workload must retain at
most 1 KB per tuple: tuples are slotted and share their empty label
set and their row anchor, data values and annotation ids are interned,
and the transaction store packs each transaction as a tuple of ids.
The bound covers the served path too: a tenant created from the
JSON-decoded rows of a create body, once the body is gone.  A first
estimate read on a mined tenant adds next to nothing on top.
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
from repro.generalization.engine import Generalizer
from repro.generalization.hierarchy import ConceptHierarchy
from repro.generalization.rules import (
    GeneralizationRule,
    GeneralizationRuleSet,
    IdMatcher,
)
from repro.relation.transactions import encode_tuple
from repro.relation.tuples import AnnotationAnchor
from repro.server.tenants import TenantRegistry, load_create_body
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from repro.synth.workloads import paper_scale

N_TUPLES = 4000
MAX_BYTES_PER_TUPLE = 1000


def test_relation_and_mined_engine_retain_at_most_1kb_per_tuple():
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


def test_a_tenant_created_from_decoded_json_retains_at_most_1kb_per_tuple():
    workload = paper_scale(N_TUPLES)
    body = json.dumps([[list(row.values), sorted(row.annotation_ids)]
                       for row in workload.relation])
    config = EngineConfig(min_support=workload.min_support,
                          min_confidence=workload.min_confidence)
    registry = TenantRegistry(CorrelationService(), default_engine=config)
    del workload
    gc.collect()
    tracemalloc.start()
    try:
        rows = json.loads(body)
        registry.create("paper", rows=rows)
        del rows
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    status = registry.status("paper")
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
        registry = TenantRegistry(CorrelationService())
        body = load_create_body(raw)
        registry.create(body["name"], rows=body["rows"],
                        config=body["config"])
        return registry

    registry, retained, peak = traced_load(create)
    status = registry.status("paper")
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
    row_anchor = AnnotationAnchor.row()
    for row in engine.relation:
        assert not hasattr(row, "__dict__")
        assert type(row.labels) is frozenset
        assert all(anchor is row_anchor
                   for anchor in row.annotations.values())


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
