"""Thread-safe serving facade over correlation engines.

The paper's application is one synchronous menu loop around one
dataset.  :class:`CorrelationService` is the shape a *served* system
needs instead: it hosts many named sessions (one engine each), lets
writers stream update events into a batched queue, and lets any number
of concurrent readers query immutable :class:`RuleSnapshot` views while
a flush is pending.

Concurrency model, per session:

* one session lock (a plain mutex) guards the engine — ``mine``,
  ``flush`` and checkpoints take it, and so does ``verify``, the one
  read that walks engine state;
* :meth:`CorrelationService.submit` appends to a queue under a cheap
  mutex and never touches the engine, so producers are not blocked by
  readers or by a running flush; when to flush is the caller's choice
  (the server flushes at a queue watermark and on ``POST .../flush``);
* :meth:`CorrelationService.flush` drains the queue inside one
  session-lock hold and applies it as **one coalesced delta plan**
  (``engine.apply_batch``) — one maintenance pass, one rule refresh,
  one invariant check and one revision bump per flush — so readers
  observe either the pre-batch or the post-batch rule set, never a
  half-applied one;
* one commit path: a flush compiles the queue up to its first poison
  event (:meth:`~repro.core.engine.CorrelationEngine.compile_prefix`),
  journals that prefix, applies it as one batch (one revision bump),
  drops the poison event and re-queues the tail;
* every locked step that commits (create, mine, flush, restore) ends
  by publishing one frozen
  :class:`RuleSnapshot`.  Reads (:meth:`~CorrelationService.snapshot`,
  ``rules``, ``catalog``, ``query``, ``top_rules`` and ``estimate``)
  return the published snapshot without any session lock — only the
  queue mutex, for the pending count — so a flush never stalls a
  reader, and readers see the last committed state until the next
  publication.  Its ``revision`` is the engine's own, persisted with
  every snapshot, so it never goes backwards across a restart.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.app.estimate import EstimateSnapshot, estimate_snapshot
from repro.core.catalog import CatalogQuery, RuleCatalog
from repro.core.config import EngineConfig
from repro.core.deltas import CompiledPrefix
from repro.core.engine import (
    CorrelationEngine,
    RuleSignature,
    VerificationResult,
    engine as build_engine,
    rule_signature,
)
from repro.core.events import UpdateEvent
from repro.core.maintenance import BatchReport, MaintenanceReport
from repro.core.rules import AssociationRule, RuleKind
from repro.errors import SessionError
from repro.mining.itemsets import ItemVocabulary
from repro.relation.relation import AnnotatedRelation

if TYPE_CHECKING:  # the app layer never imports the server at runtime
    from repro.core.journal import JournalStore, RecoveryResult
    from repro.server.metrics import ServiceInstrumentation


@dataclass(frozen=True)
class RuleSnapshot:
    """An immutable, point-in-time view of one session's rule set.

    A snapshot is a thin view over the engine's revision-memoized
    :class:`~repro.core.catalog.RuleCatalog`: ``rules`` *is* the
    catalog's rule tuple (shared, never re-copied per snapshot), and
    indexed lookups / composable queries go through :attr:`catalog`.
    It carries the vocabulary its item ids render through.
    """

    session: str
    db_size: int
    #: The engine's rule revision: bumped once by each mine and each
    #: non-empty flush, and persisted with every journal snapshot.
    revision: int
    rules: tuple[AssociationRule, ...]
    #: Events queued but not yet applied when the snapshot was taken.
    pending_events: int
    #: The vocabulary the rules' item ids render through.
    vocabulary: ItemVocabulary = field(repr=False, compare=False)
    #: The indexed query view this snapshot serves from (``None`` only
    #: for a session created with ``mine=False`` and never mined).
    catalog: RuleCatalog | None = None
    #: Shared by the copies that differ only in ``pending_events``, so
    #: the signature is derived at most once per publication.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def signature(self) -> frozenset[RuleSignature]:
        """Vocabulary-independent fingerprint of ``rules``, derived on
        first access."""
        signature = self._memo.get("signature")
        if signature is None:
            signature = rule_signature(self.rules, self.vocabulary)
            self._memo["signature"] = signature
        return signature

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self.rules)

    def of_kind(self, kind: RuleKind) -> tuple[AssociationRule, ...]:
        if self.catalog is not None:
            return self.catalog.of_kind(kind)
        return tuple(rule for rule in self.rules if rule.kind is kind)

    def query(self) -> CatalogQuery:
        """A composable query over this snapshot's catalog."""
        if self.catalog is None:
            raise SessionError(
                f"session {self.session!r} has no mined rules to query")
        return self.catalog.query()


def poison_error(prefix: CompiledPrefix, describe: str, *,
                 noun: str = "event") -> SessionError:
    """The error every flush path raises after committing the valid
    prefix of a batch, dropping its poison event and re-queueing the
    tail."""
    position = prefix.applied + 1
    size = position + len(prefix.tail)
    return SessionError(
        f"{describe} failed on {noun} {position} of {size} "
        f"({prefix.poison!r}); {prefix.applied} applied, "
        f"{len(prefix.tail)} re-queued, the failing {noun} dropped")


@dataclass
class _Hosted:
    """One named session: an engine plus its locks and update queue."""

    name: str
    #: Set at create or restore and never swapped, so a published
    #: snapshot and this engine always share one vocabulary.
    engine: CorrelationEngine
    #: The config the engine was built from (per-session override or
    #: the service default) — surfaced to status consumers.
    config: EngineConfig | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    queue_lock: threading.Lock = field(default_factory=threading.Lock)
    queue: deque[UpdateEvent] = field(default_factory=deque)
    #: The read view of the last commit, replaced (never mutated) under
    #: the session lock; readers take it without any session lock.
    published: RuleSnapshot | None = None
    #: Durability store (``None`` for non-journaled sessions).
    journal: JournalStore | None = None
    #: Journal sequence of the last record this engine consumed: every
    #: flush appends *before* applying and advances this under the
    #: session lock, so ``journal.last_seq - applied_seq`` is the
    #: recovery lag an observer would replay.
    applied_seq: int = 0


class CorrelationService:
    """Hosts named correlation sessions for concurrent readers/writers."""

    def __init__(self, *,
                 config: EngineConfig | None = None,
                 instrumentation: "ServiceInstrumentation | None" = None,
                 journal_dir: str | os.PathLike | None = None,
                 journal_fsync: bool = True,
                 journal_snapshot_every: int | None = 64,
                 ) -> None:
        if journal_snapshot_every is not None and journal_snapshot_every < 1:
            raise SessionError(
                f"journal_snapshot_every must be >= 1 or None, "
                f"got {journal_snapshot_every}")
        self._default_config = config
        #: Base directory of per-session durability stores (``None``
        #: serves everything in memory, the historical behavior).
        self._journal_dir = (os.fspath(journal_dir)
                             if journal_dir is not None else None)
        self._journal_fsync = journal_fsync
        self._journal_snapshot_every = journal_snapshot_every
        #: Optional metric sink (the serving tier threads in its
        #: :class:`repro.server.metrics.ServiceInstrumentation`);
        #: ``None`` costs one branch per instrumented operation.
        self._instrumentation = instrumentation
        self._registry_lock = threading.Lock()
        self._hosted: dict[str, _Hosted] = {}

    # -- session registry ------------------------------------------------------

    def create(self, name: str,
               relation: AnnotatedRelation | None = None,
               config: EngineConfig | None = None,
               *, mine: bool = True) -> RuleSnapshot:
        """Register session ``name`` over ``relation`` and (by default)
        run the initial mine; returns the first snapshot."""
        config = config if config is not None else self._default_config
        if config is None:
            raise SessionError(
                f"no EngineConfig for session {name!r}: pass one to "
                f"create() or construct the service with a default")
        with self._registry_lock:
            if name in self._hosted:
                raise SessionError(f"session {name!r} already exists")
        # The factory dispatches on ``config.shards``, so a session over
        # a sharded engine is served through the identical facade.
        hosted = _Hosted(name=name,
                         engine=build_engine(relation, config),
                         config=config)
        # Mine before publishing: a failed mine must not leave a broken
        # session squatting on the name (nobody can reach it yet, so no
        # session lock is needed).
        if mine:
            hosted.engine.mine()
        if self._journal_dir is not None:
            self._attach_journal(hosted)
        self._publish(hosted)
        with self._registry_lock:
            if name in self._hosted:
                raise SessionError(f"session {name!r} already exists")
            self._hosted[name] = hosted
        return hosted.published

    def sessions(self) -> tuple[str, ...]:
        with self._registry_lock:
            return tuple(sorted(self._hosted))

    def __contains__(self, name: object) -> bool:
        with self._registry_lock:
            return name in self._hosted

    def drop(self, name: str, *, force: bool = False) -> None:
        """Remove session ``name``.

        A session with queued-but-unflushed events refuses to go — the
        writes would be silently lost — unless ``force=True``
        explicitly discards them.  The pending check and the removal
        happen in one registry-lock critical section, so any submit
        that completed before the drop is counted by the check.
        """
        with self._registry_lock:
            hosted = self._hosted.get(name)
            if hosted is None:
                raise SessionError(f"unknown session {name!r}")
            with hosted.queue_lock:
                pending = len(hosted.queue)
                if pending and not force:
                    raise SessionError(
                        f"session {name!r} has {pending} queued event(s) "
                        f"not yet flushed — flush first, or drop("
                        f"force=True) to discard them")
                hosted.queue.clear()
            del self._hosted[name]
        if hosted.journal is not None:
            # The store's files stay on disk — a drop is not an erase;
            # restore_session() can resurrect the tenant later.
            hosted.journal.close()

    def close(self) -> None:
        """Sync every journal.  Sessions stay registered and usable, so
        this is safe to call at any quiesce point; the server's graceful
        drain calls it after the final flushes."""
        with self._registry_lock:
            hosted_sessions = list(self._hosted.values())
        for hosted in hosted_sessions:
            if hosted.journal is not None:
                hosted.journal.sync()

    def _session(self, name: str) -> _Hosted:
        with self._registry_lock:
            hosted = self._hosted.get(name)
        if hosted is None:
            raise SessionError(f"unknown session {name!r}")
        return hosted

    # -- durability ------------------------------------------------------------

    def _session_journal_path(self, name: str) -> str:
        if self._journal_dir is None:
            raise SessionError(
                "session journals need a service constructed with "
                "journal_dir")
        separators = [sep for sep in (os.sep, os.altsep) if sep]
        if (not name or name.startswith(".")
                or any(sep in name for sep in separators)):
            raise SessionError(
                f"journaled session names must be plain directory "
                f"names, got {name!r}")
        return os.path.join(self._journal_dir, name)

    def _attach_journal(self, hosted: _Hosted) -> None:
        """Open (and base-snapshot) the session's durability store.

        Creating a session on top of an existing journal would fork
        its history, so a non-empty store directory is refused —
        recover it with :meth:`restore_session` instead.
        """
        # Loaded by the first journaled session: a service without
        # journal_dir never imports the journal.
        from repro.core.journal import WAL_NAME, JournalStore
        path = self._session_journal_path(hosted.name)
        if os.path.exists(os.path.join(path, WAL_NAME)):
            raise SessionError(
                f"journal directory {path!r} already holds a write-"
                f"ahead log — restore_session({hosted.name!r}) to "
                f"resume it, or remove the directory to start fresh")
        store = JournalStore(
            path, fsync=self._journal_fsync,
            snapshot_every=self._journal_snapshot_every)
        hosted.journal = store
        hosted.applied_seq = store.last_seq
        if hosted.engine.is_mined:
            store.ensure_base_snapshot(hosted.engine)

    def _journal_append(self, hosted: _Hosted,
                        batch: Sequence[UpdateEvent]) -> int:
        started = time.perf_counter()
        seq = hosted.journal.append_batch(batch)
        instrumentation = self._instrumentation
        if instrumentation is not None:
            instrumentation.journal_appends.inc()
            instrumentation.journal_append_seconds.observe(
                time.perf_counter() - started)
        return seq

    def restore_session(self, name: str, *, upto: int | None = None,
                        generalizer=None) -> RecoveryResult:
        """Recover session ``name`` from its journal store and host it.

        The engine is the newest usable snapshot plus a replay of the
        journal suffix (point-in-time when ``upto`` is given — note the
        store then keeps appending *after* that seq, so a later full
        recovery still sees the complete history).  The hosted config
        is the engine's restored config, and its revision the restored
        engine's, so it never goes backwards across a restart.
        """
        from repro.core.journal import WAL_NAME, JournalStore
        with self._registry_lock:
            if name in self._hosted:
                raise SessionError(f"session {name!r} already exists")
        path = self._session_journal_path(name)
        if not os.path.exists(os.path.join(path, WAL_NAME)):
            raise SessionError(
                f"no journal store at {path!r} to restore "
                f"session {name!r} from")
        store = JournalStore(
            path, fsync=self._journal_fsync,
            snapshot_every=self._journal_snapshot_every)
        try:
            result = store.recover(upto=upto, generalizer=generalizer)
        except Exception:
            store.close()
            raise
        hosted = _Hosted(name=name, engine=result.engine,
                         config=result.engine.config,
                         journal=store, applied_seq=result.last_seq)
        self._publish(hosted)
        with self._registry_lock:
            if name in self._hosted:
                store.close()
                raise SessionError(f"session {name!r} already exists")
            self._hosted[name] = hosted
        return result

    def restore_sessions(self) -> dict[str, RecoveryResult]:
        """Recover every journal store under ``journal_dir`` that is
        not already hosted (server startup).  Returns per-session
        recovery results keyed by name."""
        if self._journal_dir is None or not os.path.isdir(self._journal_dir):
            return {}
        from repro.core.journal import WAL_NAME
        recovered: dict[str, RecoveryResult] = {}
        for name in sorted(os.listdir(self._journal_dir)):
            path = os.path.join(self._journal_dir, name)
            if not os.path.exists(os.path.join(path, WAL_NAME)):
                continue
            with self._registry_lock:
                if name in self._hosted:
                    continue
            recovered[name] = self.restore_session(name)
        return recovered

    def journal_status(self, name: str) -> dict[str, object] | None:
        """Durability status for status surfaces and gauges (``None``
        for a non-journaled session)."""
        hosted = self._session(name)
        store = hosted.journal
        if store is None:
            return None
        status = store.status()
        status["applied_seq"] = hosted.applied_seq
        status["lag"] = status["last_seq"] - hosted.applied_seq
        return status

    def checkpoint(self, name: str) -> dict[str, object]:
        """Force a compacted snapshot at the current applied seq (the
        operational "fsync my restart time down" button)."""
        hosted = self._session(name)
        store = hosted.journal
        if store is None:
            raise SessionError(f"session {name!r} has no journal to "
                               f"checkpoint")
        with hosted.lock:
            store.write_snapshot(hosted.engine, hosted.applied_seq)
        return self.journal_status(name)

    # -- writes ---------------------------------------------------------------

    def submit(self, name: str, event: UpdateEvent) -> int:
        """Queue ``event`` for the next flush; returns the queue depth.

        Takes only the queue mutex, so it never waits for a reader or
        for a running flush."""
        hosted = self._session(name)
        if self._instrumentation is not None:
            self._instrumentation.submitted_events.inc()
        with hosted.queue_lock:
            hosted.queue.append(event)
            return len(hosted.queue)

    def flush(self, name: str) -> BatchReport:
        """Apply every queued event as **one** coalesced batch,
        atomically with respect to readers.

        The whole drain is a single session-lock critical section and one
        commit: the engine compiles the queue into a delta plan
        (:meth:`~repro.core.engine.CorrelationEngine.compile_prefix`),
        the plan is journaled, then applied with one maintenance pass,
        one rule refresh, one invariant check and one revision bump
        however deep the queue was, and the new snapshot is published.
        The returned :class:`~repro.core.maintenance.BatchReport` still
        carries one audit row per applied event.

        A poison event splits the batch: the events before it are
        journaled and applied as one batch, the poison event is dropped
        (retrying it would fail every flush), the events after it are
        re-queued at the front in order, and a :class:`SessionError`
        names the poison event.  A failure tied to no event (an engine
        whose incremental state is stale or that was never mined) puts
        the whole batch back, journals nothing and re-raises — call
        :meth:`CorrelationService.mine`, then flush again.  An empty
        queue raises it too.
        """
        hosted = self._session(name)
        instrumentation = self._instrumentation
        started = time.perf_counter()
        try:
            with hosted.lock:
                try:
                    with hosted.queue_lock:
                        batch = list(hosted.queue)
                        hosted.queue.clear()
                    if not batch:
                        # Nothing to apply, but a stale engine is
                        # still loud.
                        hosted.engine.require_current()
                        return BatchReport(db_size=hosted.engine.db_size,
                                           event="apply-batch[0]")
                    prefix = self._journal_prefix(hosted, batch)
                    if prefix.tail:
                        self._requeue(hosted, prefix.tail)
                    if prefix.plan is not None:
                        report = hosted.engine.apply_plan(prefix.plan)
                        if hosted.journal is not None:
                            # Periodic compacted snapshot, inside the
                            # session lock so the state it captures is the
                            # flushed one.
                            hosted.journal.maybe_snapshot(
                                hosted.engine, hosted.applied_seq)
                    if prefix.poison is not None:
                        raise poison_error(
                            prefix, f"flush of session {name!r}"
                        ) from prefix.error
                finally:
                    self._publish(hosted)
        except Exception:
            if instrumentation is not None:
                instrumentation.flush_failures.inc()
            raise
        if instrumentation is not None:
            instrumentation.flush_seconds.observe(
                time.perf_counter() - started)
            instrumentation.flush_batches.inc()
            instrumentation.flushed_events.inc(len(batch))
            self._observe_phases(report)
        return report

    def _journal_prefix(self, hosted: _Hosted,
                        batch: list[UpdateEvent]) -> CompiledPrefix:
        """Compile ``batch`` up to its first poison event and journal
        the valid prefix — write-ahead, before any mutation.  If either
        step fails nothing was journaled or applied, so the whole batch
        goes back to the front of the queue in order."""
        try:
            prefix = hosted.engine.compile_prefix(batch)
            if prefix.plan is not None and hosted.journal is not None:
                hosted.applied_seq = self._journal_append(
                    hosted, prefix.plan.events)
        except Exception:
            self._requeue(hosted, batch)
            raise
        return prefix

    @staticmethod
    def _requeue(hosted: _Hosted, events: Sequence[UpdateEvent]) -> None:
        with hosted.queue_lock:
            hosted.queue.extendleft(reversed(events))

    def _observe_phases(self, report) -> None:
        """Feed a report's phase breakdown to the metric sink."""
        if self._instrumentation is not None and report.phases:
            self._instrumentation.observe_phases(report.phases)

    def mine(self, name: str) -> MaintenanceReport:
        """(Re-)run the initial from-scratch pass for ``name``."""
        hosted = self._session(name)
        with hosted.lock:
            try:
                if (hosted.journal is not None
                        and hosted.journal.has_snapshot):
                    # A re-mine is a state transition recovery must
                    # repeat (it un-stales an engine after a failed
                    # batch), so it is journaled like any write —
                    # before it runs.
                    hosted.applied_seq = hosted.journal.append_mine()
                report = hosted.engine.mine()
                if hosted.journal is not None \
                        and not hosted.journal.has_snapshot:
                    # A session created with ``mine=False`` could not
                    # take its base snapshot at attach time; the first
                    # mine is the first snapshot-able state.
                    hosted.journal.ensure_base_snapshot(hosted.engine)
            finally:
                # A mine that committed its rules and then failed its
                # invariant check still published them.
                self._publish(hosted)
        self._observe_phases(report)
        return report

    # -- reads ----------------------------------------------------------------

    def snapshot(self, name: str) -> RuleSnapshot:
        """The session's last published snapshot (no session lock).

        Between commits every call returns the *same* snapshot object,
        or, if only the pending count moved, a copy that shares its
        rules tuple, catalog and signature — a read copies no rules.
        """
        hosted = self._session(name)
        snap = self._published(hosted)
        with hosted.queue_lock:
            pending = len(hosted.queue)
        if snap.pending_events != pending:
            snap = replace(snap, pending_events=pending)
        return snap

    def rules(self, name: str,
              kind: RuleKind | None = None) -> tuple[AssociationRule, ...]:
        snap = self.snapshot(name)
        return snap.rules if kind is None else snap.of_kind(kind)

    def catalog(self, name: str) -> RuleCatalog:
        """The published snapshot's indexed query view (no session
        lock)."""
        catalog = self._published(self._session(name)).catalog
        if catalog is None:
            raise SessionError(
                f"session {name!r} has no mined rules to query — "
                f"call mine() first")
        return catalog

    def query(self, name: str) -> CatalogQuery:
        """A composable rule query over the session's catalog."""
        return self.catalog(name).query()

    def top_rules(self, name: str, n: int, *,
                  by: str = "confidence",
                  kind: RuleKind | None = None
                  ) -> tuple[AssociationRule, ...]:
        """The ``n`` best rules by a metric — a presorted-index slice."""
        query = self.query(name)
        if kind is not None:
            query = query.of_kind(kind)
        return query.top(n, by=by)

    def estimate(self, name: str, *, n: int | None = None,
                 by: str = "confidence",
                 kind: RuleKind | None = None,
                 z: float | None = None,
                 confidence_level: float | None = None) -> EstimateSnapshot:
        """A snapshot that never waits for a flush.

        ``mode=estimate`` in one call: candidates come from the
        published catalog, counts come from the engine's vertical
        index plus an exact overlay of still-queued insert events, and
        every metric carries its (zero) error bound.  The only lock
        taken is the queue mutex (one list copy).
        """
        hosted = self._session(name)
        snap = self._published(hosted)
        if snap.catalog is None:
            raise SessionError(
                f"session {name!r} has no mined rules to estimate — "
                f"call mine() first")
        with hosted.queue_lock:
            pending = list(hosted.queue)
        started = time.perf_counter()
        result = estimate_snapshot(
            hosted.engine, snap.catalog.rules, pending,
            session=name, revision=snap.revision,
            n=n, by=by, kind=kind, z=z,
            confidence_level=confidence_level)
        instrumentation = self._instrumentation
        if instrumentation is not None:
            instrumentation.estimate_reads.inc()
            instrumentation.estimate_seconds.observe(
                time.perf_counter() - started)
        return result

    def pending(self, name: str) -> int:
        """Events submitted but not yet flushed."""
        hosted = self._session(name)
        with hosted.queue_lock:
            return len(hosted.queue)

    def config_of(self, name: str) -> EngineConfig:
        """The config the session's engine was built from."""
        hosted = self._session(name)
        if hosted.config is None:
            raise SessionError(
                f"session {name!r} carries no EngineConfig")
        return hosted.config

    def verify(self, name: str) -> VerificationResult:
        """Re-mine from scratch and compare (session lock: no
        mutation, but no concurrent flush either)."""
        hosted = self._session(name)
        with hosted.lock:
            return hosted.engine.verify_against_remine()

    def _published(self, hosted: _Hosted) -> RuleSnapshot:
        if self._instrumentation is not None:
            self._instrumentation.snapshot_hits.inc()
        return hosted.published

    def _publish(self, hosted: _Hosted) -> None:
        """Publish the engine's committed state as the session's read
        snapshot (session lock held, or the session not yet visible).

        The engine's catalog is the commit marker: it changes identity
        with every revision bump and every rule-set replacement, so a
        step that committed nothing — an empty flush, a batch that
        failed before its rules were refreshed — leaves the last
        snapshot, which stays consistent with itself, in place.
        """
        engine = hosted.engine
        catalog = engine.catalog() if engine.is_mined else None
        published = hosted.published
        if published is not None and published.catalog is catalog:
            return
        with hosted.queue_lock:
            pending = len(hosted.queue)
        hosted.published = RuleSnapshot(
            session=hosted.name,
            db_size=engine.db_size,
            revision=engine.revision,
            # The catalog's canonical tuple is the snapshot's rule view
            # — shared, never re-copied.
            rules=catalog.rules if catalog is not None else (),
            pending_events=pending,
            vocabulary=engine.vocabulary,
            catalog=catalog,
        )
        if self._instrumentation is not None:
            self._instrumentation.snapshot_misses.inc()
