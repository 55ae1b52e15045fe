"""The streaming snapshot writer equals the snapshot document.

:func:`~repro.core.persistence.dump` streams the format-v4 document as
compact JSON, encoding ``tuples`` a block of rows at a time straight
from the relation; :func:`~repro.core.persistence.snapshot` is the
format's definition.  Decoding the stream must give that document on
relations with and without a schema, with tombstones (a tombstoned
last tid included), with generalization labels, at every block size
(tid ranges that are exact multiples of it included), and for a
sharded engine's layout.  Writing in blocks keeps the writer's
transient memory below the size of the document it streams.
"""

import gc
import io
import json
import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import persistence
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.shard import ShardedEngine
from repro.synth.workloads import paper_scale

value_strategy = st.sampled_from("abc")
annotation_strategy = st.sampled_from(["A1", "A2", "A3"])
label_strategy = st.sampled_from(["L1", "L2"])


@st.composite
def engines(draw):
    with_schema = draw(st.booleans())
    relation = AnnotatedRelation(Schema(["c0", "c1"]) if with_schema
                                 else None)
    rows = draw(st.lists(
        st.tuples(
            st.lists(value_strategy, min_size=2, max_size=2),
            st.frozensets(annotation_strategy, max_size=2),
            st.frozensets(label_strategy, max_size=2)),
        min_size=1, max_size=14))
    for values, annotations, labels in rows:
        tid = relation.insert(values, annotations)
        relation.set_labels(tid, labels)
    dead = draw(st.sets(st.integers(min_value=0, max_value=len(rows) - 1),
                        max_size=len(rows) - 1))
    for tid in sorted(dead):
        relation.delete(tid)
    config = EngineConfig(min_support=0.2, min_confidence=0.6,
                          shards=draw(st.sampled_from([1, 2])))
    engine = (ShardedEngine(relation, config) if config.shards > 1
              else CorrelationEngine(relation, config))
    engine.mine()
    return engine


def streamed(engine, **kwargs) -> str:
    buffer = io.StringIO()
    persistence.dump(engine, buffer, **kwargs)
    return buffer.getvalue()


@given(engine=engines(), block_rows=st.integers(min_value=1, max_value=5),
       journal_seq=st.none() | st.integers(min_value=0, max_value=99))
@settings(max_examples=150, deadline=None)
def test_streamed_text_decodes_to_the_snapshot(engine, block_rows,
                                               journal_seq):
    with mock.patch.object(persistence, "BLOCK_ROWS", block_rows):
        text = streamed(engine, journal_seq=journal_seq)
    assert json.loads(text) == persistence.snapshot(
        engine, journal_seq=journal_seq)


def test_a_tombstoned_last_tid_on_a_block_boundary():
    relation = AnnotatedRelation(Schema(["c0"]))
    for value in "abcd":
        relation.insert([value], ["A1"])
    relation.delete(3)
    engine = CorrelationEngine(relation, min_support=0.2,
                               min_confidence=0.6)
    engine.mine()
    with mock.patch.object(persistence, "BLOCK_ROWS", 2):
        document = json.loads(streamed(engine, journal_seq=7))
    assert document == persistence.snapshot(engine, journal_seq=7)
    assert document["tuples"][3] is None and len(document["tuples"]) == 4


def test_a_sharded_layout_is_streamed():
    relation = AnnotatedRelation()
    for value in "abcabcab":
        relation.insert([value, "x"], ["A1"] if value == "a" else [])
    relation.delete(0)
    engine = ShardedEngine(relation, EngineConfig(
        min_support=0.2, min_confidence=0.6, shards=2))
    engine.mine()
    document = json.loads(streamed(engine))
    assert document["shards"] == {"count": 2,
                                  "assignment": engine.assignment()}
    assert document["shards"]["assignment"][0] is None
    assert document == persistence.snapshot(engine)


def test_the_text_is_compact_and_format_v4():
    relation = AnnotatedRelation()
    relation.insert(["a", "b"], ["A1"])
    engine = CorrelationEngine(relation, min_support=0.5,
                               min_confidence=0.5)
    engine.mine()
    text = streamed(engine)
    assert "\n" not in text and ", " not in text
    assert json.loads(text)["format_version"] == 4


def test_writer_peak_stays_below_the_snapshot_document(tmp_path):
    workload = paper_scale(2000)
    engine = CorrelationEngine(workload.relation,
                               min_support=workload.min_support,
                               min_confidence=workload.min_confidence)
    engine.mine()
    engine.catalog()  # warm: the writer records the catalog's stats
    path = tmp_path / "s.json"
    gc.collect()
    tracemalloc.start()
    try:
        document = persistence.snapshot(engine)
        document_bytes = tracemalloc.get_traced_memory()[0]
        del document
        gc.collect()
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        with open(path, "w", encoding="utf-8") as handle:
            persistence.dump(engine, handle)
        writer_peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert writer_peak < document_bytes, (
        f"writer peak {writer_peak} B >= snapshot dict {document_bytes} B")
    assert persistence.load(path).signature() == engine.signature()
