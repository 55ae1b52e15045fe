"""Full re-mining baseline.

The paper verifies every incremental case by "manually adding in [the
update] and running the original apriori algorithm over the newly
updated dataset", then checking the rule sets are identical; and its
Figure 16 compares the incremental path's run time against exactly this
baseline.  :func:`remine` builds a *fresh* engine over a deep copy of
the relation and mines it from scratch with the paper's own pipeline:
each tuple encoded on its own (:func:`encode_tuple`), then the
hash-tree Apriori of its Figure 3.  Neither the bulk encoder nor the
vertical miner that :meth:`CorrelationEngine.mine` runs is involved,
so the differential suites compare the engine against an independent
encoder and an independent miner; only rule derivation is shared.
"""

from __future__ import annotations

import time

from repro.core.annotation_index import VerticalIndex
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine, EncodedSubstrate
from repro.core.maintenance import PhaseTimings
from repro.core.stats import DEFAULT_MARGIN
from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.itemsets import TransactionDatabase
from repro.relation.relation import AnnotatedRelation
from repro.relation.transactions import encode_tuple


def remine(relation: AnnotatedRelation,
           *,
           min_support: float,
           min_confidence: float,
           margin: float = DEFAULT_MARGIN,
           generalizer=None,
           max_length: int | None = None) -> CorrelationEngine:
    """Mine ``relation`` from scratch; returns the fresh engine.

    The relation is copied first, so re-mining never interferes with an
    incremental engine tracking the original (label application during
    mining mutates tuples).
    """
    started = time.perf_counter()
    fresh = CorrelationEngine(relation.copy(), EngineConfig(
        min_support=min_support,
        min_confidence=min_confidence,
        margin=margin,
        generalizer=generalizer,
        max_length=max_length,
    ))
    copy = fresh.relation
    vocabulary = fresh.vocabulary
    if generalizer is not None:
        for row in copy:
            copy.set_labels(row.tid,
                            generalizer.labels_for(row.annotation_ids))
    database = TransactionDatabase(vocabulary)
    index = VerticalIndex(vocabulary)
    for tid in range(copy.tid_range):
        transaction = (encode_tuple(copy, tid, vocabulary)
                       if copy.is_live(tid) else frozenset())
        database.add(transaction)
        index.add_transaction(tid, transaction)
    counts = mine_frequent_itemsets(
        database.transactions,
        min_count=fresh.thresholds.keep_count(copy.live_count),
        constraint=fresh.constraint,
        counter="hashtree",
        max_length=max_length,
    )
    fresh._commit_mine(EncodedSubstrate(database=database, index=index),
                       counts, PhaseTimings(), started)
    return fresh


def signatures_match(incremental: CorrelationEngine,
                     baseline: CorrelationEngine) -> bool:
    """Structural rule-set equality across independently built engines."""
    return incremental.signature() == baseline.signature()
