"""Thread-parallel phase 1: the sharded engine's one execution path.

The phase-1 shard mines run on a thread pool sized by ``shard_workers``
(or the usable CPU count).  These tests pin its contract: answers equal
to the monolithic engine's after the mine *and* after every later
flush, shard indexes equal to ones rebuilt from the shard transactions,
errors raised inside a shard mine surfacing to the caller on both the
pooled and the serial path, phase timings on every report, and no
worker thread outliving the call that started it.
"""

import threading

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.mining.bitmap import BitmapIndex
from repro.shard import ShardedEngine
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import assert_equivalent_to_remine, make_relation

CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6, validate=True)
#: shard_workers pinned to 2: a single-core runner reports one CPU,
#: which would quietly serialize phase 1 and never start the pool.
THREADED = CONFIG.replace(shards=3, shard_workers=2)


def drawn_events(relation, count, seed):
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(seed=seed, batch_size=4))
    return list(stream.take(
        count, apply=lambda event: apply_to_relation(shadow, event)))


def mined_monolithic(relation):
    mono = CorrelationEngine(relation, CONFIG)
    mono.mine()
    return mono


class TestThreadedExactness:
    @pytest.mark.parametrize("shards", (2, 3, 5))
    def test_mine_signature_equals_monolithic(self, shards):
        relation = make_relation()
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, THREADED.replace(shards=shards))
        sharded.mine()
        assert sharded.signature() == mono.signature()

    def test_maintenance_after_threaded_mine_stays_exact(self, seeds):
        """The pooled mine must leave every shard engine in the state
        its own serial mine would: the incremental path and a
        from-scratch re-mine agree afterwards."""
        relation = make_relation()
        events = drawn_events(relation, count=10, seed=seeds.seed(17))
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, THREADED)
        sharded.mine()
        mono.apply_batch(events)
        sharded.apply_batch(events)
        assert sharded.signature() == mono.signature()
        assert_equivalent_to_remine(sharded)

    def test_shard_indexes_match_rebuilt_indexes(self):
        sharded = ShardedEngine(make_relation(), THREADED)
        sharded.mine()
        for shard_engine in sharded.shard_engines:
            rebuilt = BitmapIndex.from_transactions(
                shard_engine.database.transactions)
            assert shard_engine.index.items() == rebuilt.items()
            for item in rebuilt.items():
                assert (shard_engine.index.tids(item)
                        == frozenset(rebuilt.tidset(item)))


class TestShardMineErrors:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_shard_mining_errors_propagate(self, monkeypatch, workers):
        """A failure inside one shard's mine surfaces from ``mine()``
        on the serial (1 worker) and the pooled (2 workers) path."""
        def exploding_mine(self, **kwargs):
            raise ZeroDivisionError("shard mine bug")

        # ShardedEngine overrides mine(), so only the shard engines
        # reach the patched method.
        monkeypatch.setattr(CorrelationEngine, "mine", exploding_mine)
        sharded = ShardedEngine(make_relation(),
                                THREADED.replace(shard_workers=workers))
        with pytest.raises(ZeroDivisionError, match="shard mine bug"):
            sharded.mine()

    def test_failed_mine_can_be_retried(self, monkeypatch):
        relation = make_relation()
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, THREADED)
        with monkeypatch.context() as patch:
            patch.setattr(CorrelationEngine, "mine",
                          lambda self, **kwargs: 1 // 0)
            with pytest.raises(ZeroDivisionError):
                sharded.mine()
        sharded.mine()
        assert sharded.signature() == mono.signature()
        assert_equivalent_to_remine(sharded)


class TestThreadedFlushes:
    def test_flushes_match_monolithic_at_every_boundary(self, seeds):
        relation = make_relation()
        events = drawn_events(relation, count=12, seed=seeds.seed(31))
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, THREADED)
        sharded.mine()
        for start in range(0, len(events), 3):
            batch = events[start:start + 3]
            mono.apply_batch(batch)
            report = sharded.apply_batch(batch)
            assert sharded.signature() == mono.signature(), (
                f"flush {start} diverged from monolithic")
            assert report.shards_touched <= sharded.shard_count
        assert_equivalent_to_remine(sharded)

    def test_flush_report_carries_phase_breakdown(self, seeds):
        sharded = ShardedEngine(make_relation(), THREADED)
        sharded.mine()
        events = drawn_events(sharded.relation, count=6,
                              seed=seeds.seed(53))
        report = sharded.apply_batch(events)
        assert report.shards_touched >= 1
        for phase in ("partition", "apply", "merge", "refresh"):
            assert phase in report.phases.wall, report.phases.wall

    def test_mine_report_carries_phase_breakdown(self):
        sharded = ShardedEngine(make_relation(), THREADED)
        report = sharded.mine()
        for phase in ("partition", "encode", "build", "mine", "merge",
                      "refresh"):
            assert phase in report.phases.wall, report.phases.wall
        assert len(report.phases.per_shard["mine"]) == THREADED.shards
        assert report.phases.summary() in report.summary()
        payload = report.phases.as_dict()
        assert set(payload) == {"wall", "per_shard"}


class TestNoLingeringWorkers:
    def test_no_worker_thread_outlives_a_mine(self, seeds):
        before = set(threading.enumerate())
        sharded = ShardedEngine(make_relation(),
                                THREADED.replace(shard_workers=3))
        sharded.mine()
        sharded.apply_batch(drawn_events(sharded.relation, count=4,
                                         seed=seeds.seed(59)))
        sharded.mine()
        assert set(threading.enumerate()) <= before

    def test_close_is_a_no_op_and_the_engine_stays_usable(self, seeds):
        sharded = ShardedEngine(make_relation(), THREADED)
        sharded.mine()
        signature = sharded.signature()
        sharded.close()
        sharded.close()
        assert sharded.signature() == signature
        sharded.apply_batch(drawn_events(sharded.relation, count=3,
                                         seed=seeds.seed(59)))
        assert_equivalent_to_remine(sharded)


class TestOneExecutor:
    def test_config_has_no_executor_option(self):
        """Threads are the only phase-1 executor: the config and its
        builder offer no switch to choose another."""
        with pytest.raises(TypeError, match="shard_executor"):
            EngineConfig(min_support=0.25, min_confidence=0.6,
                         shard_executor="thread")
        with pytest.raises(TypeError, match="shard_executor"):
            CONFIG.replace(shard_executor="process")
        assert not hasattr(EngineConfig.builder(), "shard_executor")
