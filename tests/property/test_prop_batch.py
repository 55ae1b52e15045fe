"""Randomized equivalence of per-event, one-batch and split application.

The delta-plan pipeline's contract: for *any* valid event sequence,
applying the events one at a time, applying them as one
``apply_batch``, and applying them split at arbitrary flush boundaries
must all produce identical ``signature()`` — and agree with a
from-scratch re-mine.  This is the paper's equivalence discipline
lifted to the batched write path.
"""

import pytest

from repro.core.engine import engine
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import assert_equivalent_to_remine, make_relation

SEEDS = (3, 17, 41, 5, 7, 11, 13, 19, 23, 29, 31, 37, 43, 47, 53, 59, 61,
         67)


def drawn_events(relation, count, seed):
    """A valid event sequence, drawn against a shadow copy so each
    event sees the effect of the previous ones without touching the
    relation the engines under test will own."""
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(seed=seed, batch_size=4))
    return list(stream.take(
        count, apply=lambda event: apply_to_relation(shadow, event)))


def mined_engine(relation):
    eng = engine(relation.copy(),
                 min_support=0.25, min_confidence=0.6, validate=True)
    eng.mine()
    return eng


@pytest.mark.parametrize("seed", SEEDS)
def test_batching_boundaries_do_not_change_the_rules(seed, seeds):
    relation = make_relation()
    events = drawn_events(relation, count=10, seed=seeds.seed(seed))

    per_event = mined_engine(relation)
    for event in events:
        per_event.apply(event)

    one_batch = mined_engine(relation)
    one_batch.apply_batch(events)

    split = mined_engine(relation)
    rng = seeds.rng(seed * 31 + 7)
    cut_count = rng.randint(1, min(3, len(events) - 1))
    cuts = sorted(rng.sample(range(1, len(events)), cut_count))
    for start, stop in zip([0, *cuts], [*cuts, len(events)]):
        split.apply_batch(events[start:stop])

    reference = per_event.signature()
    assert one_batch.signature() == reference, (
        f"one-batch application diverged (seed={seed})")
    assert split.signature() == reference, (
        f"split application at {cuts} diverged (seed={seed})")
    assert per_event.db_size == one_batch.db_size == split.db_size
    assert_equivalent_to_remine(one_batch)


@pytest.mark.parametrize("seed", (59, 71, 73))
def test_heavier_annotation_stream_one_batch(seed, seeds):
    """An annotation-dominated stream (the paper's Case 3) applied as
    one deep batch — the serving hot path of the flush pipeline."""
    relation = make_relation()
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(
        seed=seeds.seed(seed), batch_size=3,
        weight_add_annotations=8.0,
        weight_insert_annotated=1.0,
        weight_insert_unannotated=0.5,
        weight_remove_annotations=2.0,
        weight_remove_tuples=0.25,
    ))
    events = list(stream.take(
        25, apply=lambda event: apply_to_relation(shadow, event)))

    per_event = mined_engine(relation)
    for event in events:
        per_event.apply(event)
    one_batch = mined_engine(relation)
    report = one_batch.apply_batch(events)

    assert one_batch.signature() == per_event.signature()
    assert report.events == len(events)
    assert_equivalent_to_remine(one_batch)
