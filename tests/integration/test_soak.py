"""Soak test: long random event streams through the manager.

This is the production scenario the incremental engine targets — a
database that never stops changing.  A seeded stream of mixed events is
pushed through the manager; equivalence with a full re-mine is checked
at checkpoints (checking after every single event would re-run Apriori
hundreds of times and hide real regressions in noise).
"""

import pytest

from repro.core.engine import CorrelationEngine
from repro.synth.streams import EventStream, StreamConfig
from repro.synth.workloads import dev_scale
from tests.conftest import assert_equivalent_to_remine


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soak_mixed_stream(seed):
    workload = dev_scale(n_tuples=120, seed=seed)
    manager = CorrelationEngine(workload.relation, min_support=0.25,
                                min_confidence=0.6, validate=True)
    manager.mine()
    stream = EventStream(workload.relation, StreamConfig(
        seed=seed, batch_size=6))
    for step in range(30):
        manager.apply(stream.draw())
        if step % 10 == 9:
            assert_equivalent_to_remine(manager)
    assert_equivalent_to_remine(manager)
    assert manager.revision == 1 + 30  # the mine, then one per event
    # Deep audit: every redundant structure still agrees.
    from repro.core.audit import audit
    report = audit(manager)
    assert report.consistent, report.summary()


def test_soak_heavy_annotation_churn():
    """Case 3 and its inverse dominating — the paper's central loop."""
    workload = dev_scale(n_tuples=100, seed=7)
    manager = CorrelationEngine(workload.relation, min_support=0.2,
                                min_confidence=0.6, validate=True)
    manager.mine()
    stream = EventStream(workload.relation, StreamConfig(
        weight_add_annotations=5, weight_remove_annotations=3,
        weight_insert_annotated=0, weight_insert_unannotated=0,
        weight_remove_tuples=0, batch_size=8, seed=4))
    for _ in range(25):
        manager.apply(stream.draw())
    assert_equivalent_to_remine(manager)


def test_soak_growing_then_shrinking():
    """Database grows by inserts then shrinks by deletes; floors move
    in both directions and the pattern table must track exactly."""
    workload = dev_scale(n_tuples=80, seed=5)
    manager = CorrelationEngine(workload.relation, min_support=0.25,
                                min_confidence=0.6, validate=True)
    manager.mine()
    grow = EventStream(workload.relation, StreamConfig(
        weight_add_annotations=1, weight_insert_annotated=4,
        weight_insert_unannotated=4, weight_remove_annotations=0,
        weight_remove_tuples=0, batch_size=10, seed=6))
    for _ in range(10):
        manager.apply(grow.draw())
    assert_equivalent_to_remine(manager)

    shrink = EventStream(workload.relation, StreamConfig(
        weight_add_annotations=1, weight_insert_annotated=0,
        weight_insert_unannotated=0, weight_remove_annotations=1,
        weight_remove_tuples=4, batch_size=10, seed=8))
    for _ in range(10):
        manager.apply(shrink.draw())
    assert_equivalent_to_remine(manager)
