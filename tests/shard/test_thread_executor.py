"""Phase 1 in the caller's thread: the sharded engine's one execution path.

The phase-1 shard mines run one after another in a loop (a measured
thread pool was no faster: pure-Python mining holds the GIL).  These
tests pin the loop's contract: answers equal to the monolithic engine's
after the mine *and* after every later flush, shard indexes equal to
ones rebuilt from the shard transactions, errors raised inside a shard
mine surfacing to the caller with a retry that succeeds, and phase
timings, one mine duration per shard, on every report.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.mining.bitmap import BitmapIndex, tids_from_bits
from repro.shard import ShardedEngine
from repro.synth.streams import EventStream, StreamConfig, apply_to_relation
from tests.conftest import assert_equivalent_to_remine, make_relation

CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6, validate=True)
SHARDED = CONFIG.replace(shards=3)


def drawn_events(relation, count, seed):
    shadow = relation.copy()
    stream = EventStream(shadow, StreamConfig(seed=seed, batch_size=4))
    return list(stream.take(
        count, apply=lambda event: apply_to_relation(shadow, event)))


def mined_monolithic(relation):
    mono = CorrelationEngine(relation, CONFIG)
    mono.mine()
    return mono


class TestShardLoopExactness:
    @pytest.mark.parametrize("shards", (2, 3, 5))
    def test_mine_signature_equals_monolithic(self, shards):
        relation = make_relation()
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, SHARDED.replace(shards=shards))
        sharded.mine()
        assert sharded.signature() == mono.signature()

    def test_maintenance_after_sharded_mine_stays_exact(self, seeds):
        """The sharded mine must leave every shard engine in the state
        its own mine would: the incremental path and a from-scratch
        re-mine agree afterwards."""
        relation = make_relation()
        events = drawn_events(relation, count=10, seed=seeds.seed(17))
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, SHARDED)
        sharded.mine()
        mono.apply_batch(events)
        sharded.apply_batch(events)
        assert sharded.signature() == mono.signature()
        assert_equivalent_to_remine(sharded)

    def test_shard_indexes_match_rebuilt_indexes(self):
        sharded = ShardedEngine(make_relation(), SHARDED)
        sharded.mine()
        for shard_engine in sharded.shard_engines:
            rebuilt = BitmapIndex.from_transactions(
                shard_engine.database.transactions)
            assert shard_engine.index.items() == rebuilt.items()
            for item in rebuilt.items():
                assert (shard_engine.index.tids(item)
                        == frozenset(tids_from_bits(rebuilt.bits(item))))


class TestShardMineErrors:
    def test_shard_mining_errors_propagate(self, monkeypatch):
        """A failure inside one shard's mine surfaces from ``mine()``."""
        def exploding_mine(self, **kwargs):
            raise ZeroDivisionError("shard mine bug")

        # ShardedEngine overrides mine(), so only the shard engines
        # reach the patched method.
        monkeypatch.setattr(CorrelationEngine, "mine", exploding_mine)
        sharded = ShardedEngine(make_relation(), SHARDED)
        with pytest.raises(ZeroDivisionError, match="shard mine bug"):
            sharded.mine()

    @pytest.mark.parametrize("failing", (0, 1, 2))
    def test_a_failure_in_any_shard_propagates_and_retries(
            self, monkeypatch, failing):
        """The loop stops at the shard that fails, whichever it is;
        the shards mined before it leave nothing a retry trips on."""
        relation = make_relation()
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, SHARDED)
        real_mine = CorrelationEngine.mine
        calls = []

        def mine_failing_once(self, **kwargs):
            calls.append(self)
            if len(calls) == failing + 1:
                raise ZeroDivisionError("shard mine bug")
            return real_mine(self, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(CorrelationEngine, "mine", mine_failing_once)
            with pytest.raises(ZeroDivisionError, match="shard mine bug"):
                sharded.mine()
        assert len(calls) == failing + 1
        sharded.mine()
        assert sharded.signature() == mono.signature()
        assert_equivalent_to_remine(sharded)

    def test_failed_mine_can_be_retried(self, monkeypatch):
        relation = make_relation()
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, SHARDED)
        with monkeypatch.context() as patch:
            patch.setattr(CorrelationEngine, "mine",
                          lambda self, **kwargs: 1 // 0)
            with pytest.raises(ZeroDivisionError):
                sharded.mine()
        sharded.mine()
        assert sharded.signature() == mono.signature()
        assert_equivalent_to_remine(sharded)


class TestShardLoopFlushes:
    def test_flushes_match_monolithic_at_every_boundary(self, seeds):
        relation = make_relation()
        events = drawn_events(relation, count=12, seed=seeds.seed(31))
        mono = mined_monolithic(relation.copy())
        sharded = ShardedEngine(relation, SHARDED)
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
        sharded = ShardedEngine(make_relation(), SHARDED)
        sharded.mine()
        events = drawn_events(sharded.relation, count=6,
                              seed=seeds.seed(53))
        report = sharded.apply_batch(events)
        assert report.shards_touched >= 1
        for phase in ("partition", "apply", "merge", "refresh"):
            assert phase in report.phases.wall, report.phases.wall

    def test_mine_report_carries_phase_breakdown(self):
        sharded = ShardedEngine(make_relation(), SHARDED)
        report = sharded.mine()
        for phase in ("partition", "encode", "build", "mine", "merge",
                      "refresh"):
            assert phase in report.phases.wall, report.phases.wall
        assert len(report.phases.per_shard["mine"]) == SHARDED.shards
        assert report.phases.summary() in report.summary()
        payload = report.phases.as_dict()
        assert set(payload) == {"wall", "per_shard"}


class TestClose:
    def test_close_is_a_no_op_and_the_engine_stays_usable(self, seeds):
        sharded = ShardedEngine(make_relation(), SHARDED)
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
        """The config offers no switch to choose a phase-1 executor."""
        with pytest.raises(TypeError, match="shard_executor"):
            EngineConfig(min_support=0.25, min_confidence=0.6,
                         shard_executor="thread")
        with pytest.raises(TypeError, match="shard_executor"):
            CONFIG.replace(shard_executor="process")
