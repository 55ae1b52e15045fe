"""Cross-miner agreement on workloads: the hash-tree Apriori (the
re-mine oracle) == the vertical miner (the engine's from-scratch mine)."""

import pytest

from repro._util import min_count_for
from repro.mining.apriori import mine_frequent_itemsets
from repro.mining.constraints import (
    CombinedRelevanceConstraint,
    constraint_for_task,
    MiningTask,
)
from repro.mining.eclat import mine_frequent_itemsets_vertical
from repro.mining.itemsets import ItemVocabulary, TransactionDatabase
from repro.relation.transactions import TokenInterner, encode_relation
from repro.synth import workloads


@pytest.fixture(scope="module")
def encoded():
    workload = workloads.dev_scale()
    vocabulary = ItemVocabulary()
    return TransactionDatabase.from_encoded(
        vocabulary,
        encode_relation(workload.relation,
                        TokenInterner(vocabulary)).transactions)


@pytest.mark.parametrize("task", [
    MiningTask.UNRESTRICTED,
    MiningTask.DATA_TO_ANNOTATION,
    MiningTask.ANNOTATION_TO_ANNOTATION,
    MiningTask.COMBINED,
])
def test_apriori_and_vertical_miners_agree(encoded, task):
    constraint = constraint_for_task(task, encoded.vocabulary)
    min_count = min_count_for(0.2, len(encoded))
    apriori_table = mine_frequent_itemsets(
        encoded.transactions, min_count=min_count, constraint=constraint,
        counter="hashtree")
    vertical_table = mine_frequent_itemsets_vertical(
        encoded.transactions, min_count=min_count, constraint=constraint)
    assert apriori_table == vertical_table


def test_hash_tree_and_scan_counters_agree(encoded):
    constraint = CombinedRelevanceConstraint(encoded.vocabulary)
    min_count = min_count_for(0.25, len(encoded))
    tree = mine_frequent_itemsets(encoded.transactions, min_count=min_count,
                                  constraint=constraint, counter="hashtree")
    scan = mine_frequent_itemsets(encoded.transactions, min_count=min_count,
                                  constraint=constraint, counter="scan")
    assert tree == scan
