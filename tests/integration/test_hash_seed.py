"""Item ids, and every answer ordered by them, ignore the hash seed.

Annotations and labels are sets, whose iteration order changes with
``PYTHONHASHSEED``.  Both encoders intern them in sorted token order,
so the vocabulary — and with it every tie broken by item id, such as
equal-lift rules in a top-k page — is the same in every process.
"""

import os
import subprocess
import sys

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


def test_top_rules_and_vocabulary_are_byte_identical_across_hash_seeds():
    children = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        children.append(subprocess.Popen(
            [sys.executable, "-c", RENDER], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    for child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr.decode()
        outputs.append(stdout)
    assert outputs[0].count(b"==>") == 50
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
