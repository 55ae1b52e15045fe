"""Legacy snapshot formats under the v4 reader.

Each version's writer is reconstructed by stripping exactly the keys
that version's spec lacks from a current document — v1 has no
revision/catalog, v2 no shard layout, v3 no journal anchor.  All of
them must load, round-trip through the v4 writer unchanged in
substance, and malformed v4 journal anchors must refuse.  Shard
layouts may carry the ``executor`` and ``workers`` keys, and documents
the ``backend`` and ``events_applied`` keys, that older writers
recorded.
"""

import pytest

from repro.core import persistence
from repro.core.engine import engine
from repro.errors import FormatError
from repro.shard import ShardedEngine
from tests.conftest import make_relation


def mined(shards=1):
    if shards > 1:
        manager = ShardedEngine(make_relation(), min_support=0.25,
                                min_confidence=0.6, shards=shards)
    else:
        manager = engine(make_relation(), min_support=0.25,
                         min_confidence=0.6)
    manager.mine()
    manager.add_annotations([(3, "A")])
    return manager


def downgrade(document, version):
    """What a version-N writer would have produced."""
    aged = dict(document)
    aged["format_version"] = version
    if version < 4:
        aged.pop("journal", None)
    if version < 3:
        aged.pop("shards", None)
    if version < 2:
        aged.pop("engine_revision", None)
        aged.pop("catalog", None)
    return aged


@pytest.mark.parametrize("version", [1, 2, 3])
def test_legacy_documents_load_under_the_v4_reader(version):
    manager = mined()
    aged = downgrade(persistence.snapshot(manager), version)
    restored = persistence.restore(aged)
    assert restored.signature() == manager.signature()
    assert restored.db_size == manager.db_size
    if version >= 2:
        assert restored.revision == manager.revision
    restored.close()
    manager.close()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_legacy_round_trip_is_substance_preserving(version):
    """Restoring an old document and re-saving it yields a current
    document with the identical pattern table and thresholds."""
    manager = mined()
    current = persistence.snapshot(manager)
    restored = persistence.restore(downgrade(current, version))
    resaved = persistence.snapshot(restored)
    assert resaved["format_version"] == persistence.FORMAT_VERSION
    assert resaved["pattern_table"] == current["pattern_table"]
    assert resaved["thresholds"] == current["thresholds"]
    assert resaved["tuples"] == current["tuples"]
    assert resaved["annotations"] == current["annotations"]
    restored.close()
    manager.close()


def test_v3_sharded_layout_still_loads():
    manager = mined(shards=3)
    aged = downgrade(persistence.snapshot(manager), 3)
    restored = persistence.restore(aged)
    assert isinstance(restored, ShardedEngine)
    assert restored.shard_count == 3
    assert restored.assignment() == manager.assignment()
    assert restored.signature() == manager.signature()
    restored.close()
    manager.close()


@pytest.mark.parametrize("version", [3, 4])
@pytest.mark.parametrize("executor", [None, "thread", "process"])
def test_legacy_shard_executor_is_accepted_and_ignored(version, executor):
    """v3/v4 writers recorded a shard executor (or, before it existed,
    none); every such document restores the same engine, and the
    current writer no longer records one."""
    manager = mined(shards=2)
    aged = downgrade(persistence.snapshot(manager), version)
    assert "executor" not in aged["shards"]
    if executor is not None:
        aged["shards"] = {**aged["shards"], "executor": executor}
    restored = persistence.restore(aged)
    assert isinstance(restored, ShardedEngine)
    assert restored.assignment() == manager.assignment()
    assert restored.signature() == manager.signature()


def test_invalid_legacy_shard_executor_refuses():
    manager = mined(shards=2)
    document = persistence.snapshot(manager)
    document["shards"] = {**document["shards"], "executor": "fiber"}
    with pytest.raises(FormatError, match="invalid executor"):
        persistence.restore(document)


@pytest.mark.parametrize("version", [3, 4])
@pytest.mark.parametrize("workers", [None, 1, 4])
def test_legacy_events_applied_and_workers_are_accepted_and_ignored(
        version, workers):
    """Older writers recorded the in-memory event-log length and the
    shard-worker setting; documents carrying them restore the engine
    they were saved with, and the current writer records neither."""
    manager = mined(shards=2)
    aged = downgrade(persistence.snapshot(manager), version)
    assert "events_applied" not in aged
    assert "workers" not in aged["shards"]
    aged["events_applied"] = 7
    aged["shards"] = {**aged["shards"], "workers": workers}
    restored = persistence.restore(aged)
    assert isinstance(restored, ShardedEngine)
    assert restored.assignment() == manager.assignment()
    assert restored.signature() == manager.signature()
    assert restored.config == manager.config


@pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
def test_invalid_legacy_shard_workers_refuses(workers):
    manager = mined(shards=2)
    document = persistence.snapshot(manager)
    document["shards"] = {**document["shards"], "workers": workers}
    with pytest.raises(FormatError, match="invalid workers"):
        persistence.restore(document)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize("backend", ["apriori-fup", "eclat", "fpgrowth"])
def test_legacy_backend_is_accepted_and_ignored(version, backend):
    """Writers before the single mining path recorded the backend they
    mined with; every such document restores the signature it was
    saved with, and the current writer no longer records one."""
    manager = mined()
    aged = downgrade(persistence.snapshot(manager), version)
    assert "backend" not in aged
    aged["backend"] = backend
    restored = persistence.restore(aged)
    assert restored.signature() == manager.signature()
    restored.close()
    manager.close()


def test_unknown_legacy_backend_refuses():
    manager = mined()
    document = persistence.snapshot(manager)
    document["backend"] = "bogus"
    with pytest.raises(FormatError, match="unknown backend 'bogus'"):
        persistence.restore(document)
    manager.close()


def test_v4_journal_anchor_round_trips():
    manager = mined()
    document = persistence.snapshot(manager, journal_seq=41)
    assert document["journal"] == {"seq": 41}
    restored = persistence.restore(document)
    assert restored.signature() == manager.signature()
    restored.close()
    manager.close()


@pytest.mark.parametrize("journal", ["nope", {"seq": -1},
                                     {"seq": "41"}, {}])
def test_malformed_journal_anchor_refuses(journal):
    manager = mined()
    document = persistence.snapshot(manager)
    document["journal"] = journal
    with pytest.raises(FormatError, match="journal key is malformed"):
        persistence.restore(document)
    manager.close()


def test_future_version_refuses():
    manager = mined()
    document = persistence.snapshot(manager)
    document["format_version"] = persistence.FORMAT_VERSION + 1
    with pytest.raises(FormatError, match="unsupported snapshot"):
        persistence.restore(document)
    manager.close()
