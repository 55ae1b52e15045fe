"""Sharded engines behind the serving facade, including torn-read checks.

The facade must treat a sharded session exactly like a monolithic one:
same snapshots, same catalog queries, same flush semantics.  The
concurrency test hammers ``snapshot()``/``query()`` from reader threads
while a writer repeatedly flushes batches and re-mines the sharded
engine; no reader may ever observe a *torn* revision — a snapshot whose
rules tuple, catalog and revision disagree with each other, or two
snapshots at the same revision with different rule sets.

``REPRO_SHARDS`` (the CI axis) sets the shard count these sessions run
with, so the whole file re-runs at every axis value.
"""

import os
import threading

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine
from repro.core.events import AddAnnotatedTuples, AddAnnotations
from repro.shard import ShardedEngine
from tests.conftest import make_relation

SHARDS = max(2, int(os.environ.get("REPRO_SHARDS", "3")))
CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6, shards=SHARDS)


@pytest.fixture
def service() -> CorrelationService:
    return CorrelationService(config=CONFIG)


class TestShardedSessions:
    def test_create_serves_a_sharded_engine(self, service):
        snap = service.create("hot", make_relation())
        hosted_engine = service._session("hot").engine
        assert isinstance(hosted_engine, ShardedEngine)
        assert hosted_engine.shard_count == SHARDS
        assert snap.catalog is not None and len(snap) == len(snap.rules)

    def test_sharded_session_matches_monolithic_session(self, service):
        service.create("sharded", make_relation())
        mono_service = CorrelationService(
            config=CONFIG.replace(shards=1))
        mono_service.create("mono", make_relation())
        for name, facade in (("sharded", service), ("mono", mono_service)):
            facade.submit(name, AddAnnotations.build([(3, "A")]))
            facade.submit(name, AddAnnotatedTuples.build(
                [(("1", "3"), ("A", "B"))]))
            facade.flush(name)
        assert service.snapshot("sharded").signature == \
            mono_service.snapshot("mono").signature
        # Interned ids depend on encode order, so compare the catalogs
        # token-rendered (the canonical listing order is token-stable).
        sharded_vocab = service._session("sharded").engine.vocabulary
        mono_vocab = mono_service._session("mono").engine.vocabulary
        assert sorted(r.render(sharded_vocab)
                      for r in service.query("sharded").all()) == \
            sorted(r.render(mono_vocab)
                   for r in mono_service.query("mono").all())

    def test_flush_bumps_one_revision_and_reports_shards(self, service):
        service.create("hot", make_relation())
        service.submit("hot", AddAnnotations.build([(3, "A")]))
        service.submit("hot", AddAnnotations.build([(5, "B")]))
        report = service.flush("hot")
        assert report.events == 2
        assert report.shards_touched >= 1
        assert service.snapshot("hot").revision == 2

    def test_verify_compares_against_monolithic_remine(self, service):
        service.create("hot", make_relation())
        assert service.verify("hot").equivalent


class TestLifecycle:
    """Sharded engines hold no resources between calls, so ``drop()``
    and ``close()`` leave no worker threads and close() keeps every
    session serving."""

    def test_drop_leaves_no_worker_threads(self):
        before = set(threading.enumerate())
        service = CorrelationService(config=CONFIG)
        service.create("hot", make_relation())
        service.submit("hot", AddAnnotations.build([(3, "A")]))
        service.flush("hot")
        service.drop("hot")
        assert set(threading.enumerate()) <= before
        assert service.sessions() == ()

    def test_service_close_keeps_sharded_sessions_usable(self):
        service = CorrelationService(config=CONFIG)
        service.create("a", make_relation())
        service.create("b", make_relation())
        signature = service.snapshot("a").signature
        service.close()
        assert service.snapshot("a").signature == signature
        service.submit("a", AddAnnotations.build([(0, "Z9")]))
        report = service.flush("a")
        assert report.events == 1
        assert service.verify("a").equivalent
        assert service.verify("b").equivalent
        service.close()


class TestNoTornRevisions:
    def test_readers_never_observe_torn_state_during_sharded_remine(
            self, service):
        """Rules tuple, catalog and revision stay mutually consistent
        under concurrent flushes and full re-mines."""
        service.create("hot", make_relation())
        stop = threading.Event()
        failures: list[str] = []
        #: revision -> rule-set signature, as first observed.
        seen: dict[int, frozenset] = {}
        seen_lock = threading.Lock()

        def reader():
            last_revision = -1
            while not stop.is_set():
                snap = service.snapshot("hot")
                # The snapshot's three faces must describe one state.
                if snap.catalog is None:
                    failures.append("snapshot lost its catalog")
                    return
                if snap.rules is not snap.catalog.rules:
                    failures.append(
                        "torn snapshot: rules tuple is not the "
                        "catalog's tuple")
                    return
                if len(frozenset(snap.signature)) != len(snap.rules):
                    failures.append(
                        f"torn snapshot: {len(snap.rules)} rules vs "
                        f"{len(snap.signature)} signature entries")
                    return
                if snap.revision < last_revision:
                    failures.append("revision went backwards")
                    return
                last_revision = snap.revision
                with seen_lock:
                    previous = seen.setdefault(snap.revision,
                                               snap.signature)
                if previous != snap.signature:
                    failures.append(
                        f"two different rule sets served at revision "
                        f"{snap.revision}")
                    return
                # The query path must serve the same catalog state.
                top = service.query("hot").top(3, by="confidence")
                if any(rule.key not in
                       {r.key for r in service.catalog("hot").rules}
                       for rule in top):
                    failures.append("query served rules outside the "
                                    "current catalog")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for wave in range(4):
                service.submit("hot", AddAnnotations.build(
                    [(3, "A"), (wave % 8, "B")]))
                service.submit("hot", AddAnnotatedTuples.build(
                    [(("1", "2"), ("A",))]))
                service.flush("hot")
                service.mine("hot")  # full sharded re-mine under load
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)

        assert not failures, failures
        # 1 create + 4 waves x (1 flush + 1 mine).
        assert service.snapshot("hot").revision == 9
        assert service.verify("hot").equivalent


class TestSessionAndFactoryWiring:
    def test_session_mines_sharded_manager(self, tmp_path):
        from repro.app.session import Session
        from repro.io import dataset_format

        relation = make_relation()
        path = tmp_path / "data.txt"
        dataset_format.write_dataset(relation, path)
        session = Session(shards=SHARDS)
        session.load_dataset(path)
        session.mine(0.25, 0.6)
        assert isinstance(session.manager, ShardedEngine)
        assert session.status()["shards"] == SHARDS
        mono = Session()
        mono.load_dataset(path)
        mono.mine(0.25, 0.6)
        assert isinstance(mono.manager, CorrelationEngine)
        assert not isinstance(mono.manager, ShardedEngine)
        assert session.manager.signature() == mono.manager.signature()

    def test_session_rejects_bad_shards(self):
        from repro.app.session import Session
        from repro.errors import SessionError

        with pytest.raises(SessionError, match="shards"):
            Session(shards=0)
