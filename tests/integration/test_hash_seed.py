"""Item ids, every answer ordered by them, and snapshots ignore the
hash seed.

Annotations and labels are sets, whose iteration order changes with
``PYTHONHASHSEED``.  Both encoders intern them in sorted token order,
so the vocabulary — and with it every tie broken by item id, such as
equal-lift rules in a top-k page — is the same in every process.  The
relation's annotation registry, whose order a snapshot writes, meets
the ids of a generated row and of a batch's inserted row in sorted
order, so a snapshot's bytes are the same in every process too.
"""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

RENDER = """\
from repro.core.engine import CorrelationEngine
from repro.synth.workloads import dense_correlations

engine = CorrelationEngine(dense_correlations(4000).relation,
                           min_support=0.05, min_confidence=0.6)
engine.mine()
for rule in engine.catalog().top(50, by="lift"):
    print(rule.kind.value, rule.lhs, rule.rhs, rule.render(engine.vocabulary))
for item_id, item in enumerate(engine.vocabulary):
    print(item_id, item.kind.value, item.token)
"""

SNAPSHOT = """\
import hashlib, io, sys
import repro
from repro.core import persistence
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from repro.synth.workloads import paper_scale

workload = paper_scale(600, seed=5)
engine = repro.engine(workload.relation, min_support=0.4,
                      min_confidence=0.8, shards=int(sys.argv[1]))
engine.mine()
shadow = engine.relation.copy()
stream = EventStream(shadow, StreamConfig(
    seed=5, batch_size=8, n_columns=6, values_per_column=40))
for _ in range(8):
    engine.apply_batch(list(stream.take(
        4, apply=lambda event: apply_to_relation(shadow, event))))
assert engine.verify_against_remine().equivalent
buffer = io.StringIO()
persistence.dump(engine, buffer)
print(hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest())
"""


def run_under_hash_seeds(script: str, *args: str) -> list[bytes]:
    """``script``'s stdout under ``PYTHONHASHSEED`` 0, 1 and 2."""
    children = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        children.append(subprocess.Popen(
            [sys.executable, "-c", script, *args], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    for child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr.decode()
        outputs.append(stdout)
    return outputs


def test_top_rules_and_vocabulary_are_byte_identical_across_hash_seeds():
    outputs = run_under_hash_seeds(RENDER)
    assert outputs[0].count(b"==>") == 50
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("shards", [1, 2])
def test_a_streamed_engine_snapshot_is_byte_identical_across_hash_seeds(
        shards):
    outputs = run_under_hash_seeds(SNAPSHOT, str(shards))
    assert len(outputs[0].strip()) == 64
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
