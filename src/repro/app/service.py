"""Thread-safe serving facade over correlation engines.

The paper's application is one synchronous menu loop around one
dataset.  :class:`CorrelationService` is the shape a *served* system
needs instead: it hosts many named sessions (one engine each), lets
writers stream update events into a batched queue, and lets any number
of concurrent readers query immutable :class:`RuleSnapshot` views while
a flush is pending.

Concurrency model, per session:

* a read-write lock (:class:`ReadWriteLock`, writer-preferring)
  guards the engine — queries share the read side, ``mine``/``flush``
  take the write side;
* :meth:`CorrelationService.submit` appends to a queue under a cheap
  mutex and never touches the engine, so producers are not blocked by
  readers (set ``auto_flush_every`` to bound queue growth by flushing
  inline once the queue reaches that depth);
* :meth:`CorrelationService.flush` drains the queue inside one
  write-lock hold and applies it as **one coalesced delta plan**
  (``engine.apply_batch``) — one maintenance pass, one rule refresh,
  one invariant check and one revision bump per flush — so readers
  observe either the pre-batch or the post-batch rule set, never a
  half-applied one;
* :class:`RuleSnapshot` results are frozen views — they stay valid
  (and stale) after the lock is released, which is the point.  They
  are *memoized per revision*: while no flush intervenes, repeated
  ``snapshot()`` calls return the same object (sharing one rules tuple
  and one :class:`~repro.core.catalog.RuleCatalog`), so a hot
  unchanged-revision read path copies nothing and serves indexed
  queries (top-k by metric, by-item, by-RHS) straight from the
  catalog.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.app.estimate import EstimateSnapshot, estimate_snapshot
from repro.core import persistence
from repro.core.catalog import CatalogQuery, RuleCatalog
from repro.core.config import EngineConfig
from repro.core.engine import (
    CorrelationEngine,
    RuleSignature,
    VerificationResult,
    engine as build_engine,
)
from repro.core.events import UpdateEvent
from repro.core.journal import (
    JournalStore,
    RecoveryResult,
    WAL_NAME,
    replay_into,
)
from repro.core.maintenance import BatchReport, MaintenanceReport
from repro.core.rules import AssociationRule, RuleKind
from repro.errors import SessionError
from repro.mining.itemsets import ItemVocabulary
from repro.relation.relation import AnnotatedRelation
from repro.shard.rebalance import (
    RebalancePlan,
    plan_rebalance,
    rebuild_with_plan,
    shard_skew,
)

if TYPE_CHECKING:  # the app layer never imports the server at runtime
    from repro.server.metrics import ServiceInstrumentation


@dataclass(frozen=True)
class RuleSnapshot:
    """An immutable, point-in-time view of one session's rule set.

    A snapshot is a thin view over the engine's revision-memoized
    :class:`~repro.core.catalog.RuleCatalog`: ``rules`` *is* the
    catalog's rule tuple (shared, never re-copied per snapshot), and
    indexed lookups / composable queries go through :attr:`catalog`.
    """

    session: str
    db_size: int
    #: Monotone per-session *flush* counter: bumped by ``mine`` and
    #: each flush.  Not the engine's rule revision — a per-event
    #: fallback flush bumps this once while the engine advances once
    #: per applied event.  For comparisons against
    #: ``Recommendation.revision`` / ``AuditEntry.revision`` (which
    #: carry the engine number) use ``snapshot.catalog.revision``.
    revision: int
    rules: tuple[AssociationRule, ...]
    signature: frozenset[RuleSignature]
    #: Events queued but not yet applied when the snapshot was taken.
    pending_events: int
    #: The indexed query view this snapshot serves from (``None`` only
    #: for a session created with ``mine=False`` and never mined).
    catalog: RuleCatalog | None = None

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


def isolate_poison_event(apply, batch, *, requeue, describe,
                         noun: str = "event") -> None:
    """Shared batch-failure fallback: apply ``batch`` one event at a
    time after a compile-rejected (provably unmutated) ``apply_batch``.

    The documented semantics live here once for every front-end: the
    valid prefix stays applied, the poison event is dropped (retrying
    it would fail every flush), and ``requeue(remainder, applied)`` is
    handed the unapplied tail to put back at the front of its queue.
    Always raises :class:`SessionError` — naming the poison event, or
    the compiler/per-event disagreement if everything applied.
    """
    applied = 0
    for position, event in enumerate(batch):
        try:
            apply(event)
            applied += 1
        except Exception as error:
            remainder = list(batch[position + 1:])
            requeue(remainder, applied)
            raise SessionError(
                f"{describe} failed on {noun} {position + 1} of "
                f"{len(batch)} ({event!r}); {applied} applied, "
                f"{len(remainder)} re-queued, the failing {noun} "
                f"dropped") from error
    requeue([], applied)
    raise SessionError(
        f"{describe}: batch compilation failed but every {noun} applied "
        f"individually — plan compiler and per-event application "
        f"disagree")


class ReadWriteLock:
    """Writer-preferring read-write lock.

    Any number of readers may hold the lock together; a writer holds it
    alone.  Arriving writers block *new* readers, so a steady read load
    cannot starve flushes.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._condition:
            while self._active_writer or self._waiting_writers:
                self._condition.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._condition:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    self._condition.wait()
                self._active_writer = True
            finally:
                self._waiting_writers -= 1
        try:
            yield
        finally:
            with self._condition:
                self._active_writer = False
                self._condition.notify_all()


@dataclass
class _Hosted:
    """One named session: an engine plus its locks and update queue."""

    name: str
    engine: CorrelationEngine
    #: The config the engine was built from (per-session override or
    #: the service default) — surfaced to status consumers.
    config: EngineConfig | None = None
    lock: ReadWriteLock = field(default_factory=ReadWriteLock)
    queue_lock: threading.Lock = field(default_factory=threading.Lock)
    queue: deque[UpdateEvent] = field(default_factory=deque)
    revision: int = 0
    #: Token of the writer holding the inline auto-flush duty (None when
    #: unclaimed).  Set under ``queue_lock`` by the submit that crosses
    #: the threshold, cleared under ``queue_lock`` when a flush drains
    #: the queue — so exactly one writer triggers per crossing, decided
    #: atomically with the depth read.  A token (not a bool) lets a
    #: failed claimant release only its *own* claim, never one a later
    #: writer legitimately took after the drain.
    flush_claim: object | None = None
    #: The last snapshot built, reused verbatim while the revision (and
    #: queue depth) hold still — unchanged-revision reads are O(1).
    snapshot_cache: RuleSnapshot | None = None
    #: Durability store (``None`` for non-journaled sessions).
    journal: JournalStore | None = None
    #: Journal sequence of the last record this engine consumed: every
    #: flush appends *before* applying and advances this under the
    #: write lock, so ``journal.last_seq - applied_seq`` is the
    #: recovery lag an observer would replay.
    applied_seq: int = 0


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of :meth:`CorrelationService.rebalance`."""

    session: str
    plan: RebalancePlan
    #: False for a dry run (plan only, nothing changed).
    applied: bool
    #: Journal records replayed into the new engine while catching up
    #: with live traffic (0 for non-journaled or dry runs).
    caught_up_records: int = 0
    #: Session revision after the cutover (the single bump readers see).
    revision: int = 0

    def as_dict(self) -> dict:
        return {
            "session": self.session,
            "plan": self.plan.as_dict(),
            "applied": self.applied,
            "caught_up_records": self.caught_up_records,
            "revision": self.revision,
        }


class CorrelationService:
    """Hosts named correlation sessions for concurrent readers/writers."""

    def __init__(self, *,
                 config: EngineConfig | None = None,
                 auto_flush_every: int | None = None,
                 instrumentation: "ServiceInstrumentation | None" = None,
                 journal_dir: str | os.PathLike | None = None,
                 journal_fsync: bool = True,
                 journal_snapshot_every: int | None = 64,
                 ) -> None:
        if auto_flush_every is not None and auto_flush_every < 1:
            raise SessionError(
                f"auto_flush_every must be >= 1 or None, "
                f"got {auto_flush_every}")
        if journal_snapshot_every is not None and journal_snapshot_every < 1:
            raise SessionError(
                f"journal_snapshot_every must be >= 1 or None, "
                f"got {journal_snapshot_every}")
        self._default_config = config
        self._auto_flush_every = auto_flush_every
        #: Base directory of per-session durability stores (``None``
        #: serves everything in memory, the historical behavior).
        self._journal_dir = (os.fspath(journal_dir)
                             if journal_dir is not None else None)
        self._journal_fsync = journal_fsync
        self._journal_snapshot_every = journal_snapshot_every
        #: Optional metric sink (the serving tier threads in a
        #: :class:`repro.server.metrics.ServiceInstrumentation`); the
        #: service only ever calls ``inc``/``observe`` on it, so any
        #: object with that surface works and ``None`` costs one
        #: branch per instrumented operation.
        self._instrumentation = instrumentation
        self._registry_lock = threading.Lock()
        self._hosted: dict[str, _Hosted] = {}
        #: Lazily created worker for :meth:`flush_async` — the exact
        #: refresh runs here while estimate reads keep serving.
        self._flush_executor: ThreadPoolExecutor | None = None

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
        # write lock is needed).
        if mine:
            hosted.engine.mine()
            hosted.revision += 1
        if self._journal_dir is not None:
            self._attach_journal(hosted)
        with self._registry_lock:
            if name in self._hosted:
                raise SessionError(f"session {name!r} already exists")
            self._hosted[name] = hosted
        return self._snapshot_locked(hosted)

    def sessions(self) -> tuple[str, ...]:
        with self._registry_lock:
            return tuple(sorted(self._hosted))

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
        """Stop the async-flush worker and sync every journal.
        Sessions stay registered and usable, so this is safe to call at
        any quiesce point; the server's graceful drain calls it after
        the final flushes."""
        with self._registry_lock:
            hosted_sessions = list(self._hosted.values())
            executor, self._flush_executor = self._flush_executor, None
        if executor is not None:
            # Let in-flight async flushes land before syncing; a later
            # flush_async simply starts a fresh worker.
            executor.shutdown(wait=True)
        for hosted in hosted_sessions:
            if hosted.journal is not None:
                hosted.journal.sync()

    def _session(self, name: str) -> _Hosted:
        with self._registry_lock:
            try:
                return self._hosted[name]
            except KeyError:
                known = ", ".join(sorted(self._hosted)) or "(none)"
                raise SessionError(
                    f"unknown session {name!r}; known: {known}") from None

    # -- durability ------------------------------------------------------------

    def _session_journal_path(self, name: str) -> str:
        assert self._journal_dir is not None
        if os.sep in name or name.startswith("."):
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
                        batch: list[UpdateEvent]) -> int:
        started = time.perf_counter()
        seq = hosted.journal.append_batch(batch)
        instrumentation = self._instrumentation
        if instrumentation is not None:
            # Duck-typed like observe_phases: minimal sinks may lack
            # the journal instruments.
            appends = getattr(instrumentation, "journal_appends", None)
            if appends is not None:
                appends.inc()
            seconds = getattr(instrumentation,
                              "journal_append_seconds", None)
            if seconds is not None:
                seconds.observe(time.perf_counter() - started)
        return seq

    def restore_session(self, name: str, *, upto: int | None = None,
                        generalizer=None) -> RecoveryResult:
        """Recover session ``name`` from its journal store and host it.

        The engine is the newest usable snapshot plus a replay of the
        journal suffix (point-in-time when ``upto`` is given — note the
        store then keeps appending *after* that seq, so a later full
        recovery still sees the complete history).  The hosted config
        is the engine's restored config.
        """
        if self._journal_dir is None:
            raise SessionError(
                "restore_session needs a service constructed with "
                "journal_dir")
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
        hosted.revision += 1
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
        with hosted.lock.write():
            store.write_snapshot(hosted.engine, hosted.applied_seq)
        return self.journal_status(name)

    # -- rebalancing -----------------------------------------------------------

    def rebalance(self, name: str, *, shards: int | None = None,
                  dry_run: bool = False) -> RebalanceReport:
        """Re-layout the session's shards with no torn revision.

        ``dry_run`` returns the plan (balanced round-robin over live
        tuples, optionally to a new shard count) without acting.
        Applying builds the replacement engine *outside* the session
        locks from a consistent snapshot, catches it up by streaming
        the journal slice written since, then takes the write lock for
        the final slice and the cutover: signature equality is checked
        before the swap, the session revision bumps exactly once, and
        readers observe either the old engine or the fully caught-up
        new one.  Non-journaled sessions have no stream to catch up
        from, so they rebuild while holding the write lock (offline
        but still atomic).
        """
        hosted = self._session(name)
        with hosted.lock.read():
            plan = plan_rebalance(hosted.engine, target_shards=shards)
        if dry_run:
            return RebalanceReport(session=name, plan=plan,
                                   applied=False,
                                   revision=hosted.revision)
        store = hosted.journal
        if store is None:
            with hosted.lock.write():
                return self._cutover(hosted, plan,
                                     base_seq=0, caught_up=0)
        with hosted.lock.read():
            document = persistence.snapshot(
                hosted.engine, journal_seq=hosted.applied_seq)
            base_seq = hosted.applied_seq
        new_engine = rebuild_with_plan(document, plan)
        # Catch up on traffic that flushed while we rebuilt — without
        # any session lock, racing the live appender, until the lag is
        # gone (bounded: give up the lock-free chase after a few laps
        # and let the write-lock pass below absorb the rest).
        caught = base_seq
        caught_up = 0
        for _lap in range(8):
            records = list(store.records(after=caught,
                                         tolerate_torn_tail=True))
            if not records:
                break
            replay_into(new_engine, records)
            caught_up += len(records)
            caught = records[-1].seq
        with hosted.lock.write():
            records = list(store.records(after=caught,
                                         tolerate_torn_tail=True))
            if records:
                replay_into(new_engine, records)
                caught_up += len(records)
            return self._cutover(hosted, plan,
                                 base_seq=base_seq, caught_up=caught_up,
                                 new_engine=new_engine)

    def _cutover(self, hosted: _Hosted, plan: RebalancePlan, *,
                 base_seq: int, caught_up: int,
                 new_engine: CorrelationEngine | None = None
                 ) -> RebalanceReport:
        """Swap in the rebuilt engine (write lock held by the caller).

        The old engine stays untouched until the replacement proves
        signature equality — an aborted rebalance leaves the session
        exactly as it was.
        """
        old = hosted.engine
        if new_engine is None:
            document = persistence.snapshot(
                old, journal_seq=hosted.applied_seq)
            new_engine = rebuild_with_plan(document, plan)
        if new_engine.signature() != old.signature():
            raise SessionError(
                f"rebalance of session {hosted.name!r} aborted before "
                f"cutover: rebuilt engine's rule signature diverged "
                f"from the live one")
        new_engine.adopt_revision(old.revision)
        hosted.engine = new_engine
        if hosted.config is not None:
            hosted.config = hosted.config.replace(
                shards=plan.target_shards)
        hosted.revision += 1
        hosted.snapshot_cache = None
        if hosted.journal is not None:
            # The new layout must be the one recovery rebuilds: anchor
            # it with a snapshot at the caught-up seq.
            hosted.journal.write_snapshot(hosted.engine,
                                          hosted.applied_seq)
        return RebalanceReport(
            session=hosted.name, plan=plan, applied=True,
            caught_up_records=caught_up, revision=hosted.revision)

    def skew(self, name: str):
        """Live-tuple shard balance of the session (read lock)."""
        hosted = self._session(name)
        with hosted.lock.read():
            return shard_skew(hosted.engine)

    # -- writes ---------------------------------------------------------------

    def submit(self, name: str, event: UpdateEvent) -> int:
        """Queue ``event`` for the next flush; returns the queue depth.

        Never blocks on readers.  With ``auto_flush_every`` set, the
        submit that fills the queue flushes it inline before returning —
        the flush decision is made atomically with the depth read, so
        concurrent writers trigger exactly one inline flush per
        threshold crossing.  The returned depth is re-read after the
        flush (usually 0, but truthful when other writers queued events
        meanwhile or a failing batch was re-queued).
        """
        hosted = self._session(name)
        instrumentation = self._instrumentation
        if instrumentation is not None:
            instrumentation.submitted_events.inc()
        token = object()
        with hosted.queue_lock:
            hosted.queue.append(event)
            depth = len(hosted.queue)
            # Decide inline-flush duty atomically with the depth read:
            # exactly one writer claims it per threshold crossing, so
            # concurrent submitters cannot pile redundant flushes onto
            # the same backlog.
            claimed = (self._auto_flush_every is not None
                       and depth >= self._auto_flush_every
                       and hosted.flush_claim is None)
            if claimed:
                hosted.flush_claim = token
        if not claimed:
            return depth
        try:
            self.flush(name)
        finally:
            # flush() normally releases the claim when it drains the
            # queue; if it failed *before* the drain, release our own
            # claim so auto-flushing is not dead forever after.  Only
            # our token is released — by now another writer may hold a
            # legitimate claim on the post-drain backlog.
            with hosted.queue_lock:
                if hosted.flush_claim is token:
                    hosted.flush_claim = None
                depth = len(hosted.queue)
        # Post-flush depth, read under the lock: 0 unless other writers
        # queued during the flush (or a failing batch was re-queued).
        return depth

    def flush(self, name: str) -> BatchReport:
        """Apply every queued event as **one** coalesced batch,
        atomically with respect to readers.

        The whole drain is a single write-lock critical section and a
        single revision bump: the engine compiles the queue into a
        delta plan (:meth:`~repro.core.engine.CorrelationEngine.apply_batch`)
        and runs one maintenance pass, one rule refresh and one
        invariant check however deep the queue was.  The returned
        :class:`~repro.core.maintenance.BatchReport` still carries one
        audit row per submitted event.

        Poison-event isolation is preserved: plan compilation fails
        *before* any mutation, so on a compile-rejected batch (or any
        batch failure that provably mutated nothing) the flush falls
        back to applying the events one at a time.  That fallback keeps
        the documented semantics — events before the poison stay
        applied, the poison event is dropped (retrying it would fail
        every flush), the unapplied remainder is re-queued at the front
        in order, and a :class:`SessionError` names the poison event.
        Call :meth:`CorrelationService.mine` if the engine reports its
        incremental state as stale.
        """
        hosted = self._session(name)
        instrumentation = self._instrumentation
        started = time.perf_counter()
        try:
            with hosted.lock.write():
                with hosted.queue_lock:
                    batch = list(hosted.queue)
                    hosted.queue.clear()
                    # The backlog this claim covered is drained; the
                    # next threshold crossing may claim a fresh inline
                    # flush.
                    hosted.flush_claim = None
                if not batch:
                    return BatchReport(db_size=hosted.engine.db_size,
                                       event="apply-batch[0]")
                if hosted.journal is not None:
                    # Write-ahead: the batch is durable *before* any
                    # mutation.  If the append itself fails (disk full,
                    # injected crash) nothing was applied — put the
                    # batch back in order and surface the error.
                    try:
                        seq = self._journal_append(hosted, batch)
                    except Exception:
                        with hosted.queue_lock:
                            hosted.queue.extendleft(reversed(batch))
                        raise
                    # From here on the record replays on recovery with
                    # the same poison semantics the live path has, so
                    # the engine's outcome below — success, fallback,
                    # or mid-batch failure — is what replay reproduces.
                    hosted.applied_seq = seq
                version_before = hosted.engine.relation.version
                try:
                    report = hosted.engine.apply_batch(batch)
                except Exception:
                    if hosted.engine.relation.version != version_before:
                        # The batch died mid-application; per-event
                        # replay would double-apply the prefix.  Bump
                        # the revision (readers must notice the mutated
                        # state) and surface the error — the engine's
                        # version guard forces a re-mine before further
                        # incremental updates.
                        hosted.revision += 1
                        raise
                    self._flush_per_event(name, hosted, batch)
                hosted.revision += 1
                if hosted.journal is not None:
                    # Periodic compacted snapshot, inside the write
                    # lock so the state it captures is the flushed one.
                    hosted.journal.maybe_snapshot(hosted.engine,
                                                  hosted.applied_seq)
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

    def _observe_phases(self, report) -> None:
        """Feed a report's phase breakdown to the metric sink (the sink
        is duck-typed; older/minimal sinks simply lack the hook)."""
        observe = getattr(self._instrumentation, "observe_phases", None)
        if observe is not None and report.phases:
            observe(report.phases)

    def _flush_per_event(self, name: str, hosted: _Hosted,
                         batch: list[UpdateEvent]) -> None:
        """Fallback path isolating a poison event (documented semantics:
        prefix stays applied, poison dropped, remainder re-queued)."""
        def requeue(remainder: list[UpdateEvent], applied: int) -> None:
            with hosted.queue_lock:
                hosted.queue.extendleft(reversed(remainder))
            if applied:
                hosted.revision += 1

        isolate_poison_event(
            hosted.engine.apply, batch,
            requeue=requeue,
            describe=f"flush of session {name!r}")

    def flush_async(self, name: str) -> "Future[BatchReport]":
        """Start :meth:`flush` on a background worker and return its
        :class:`~concurrent.futures.Future`.

        This is the "exact refresh behind the estimate" write path:
        the caller queues events, kicks the flush here, and serves
        :meth:`estimate` reads immediately — the pending overlay covers
        the queue until the batch reaches the substrate, the sketch
        observers cover it from then on, and the Future resolves when
        the exact rules (and the next exact snapshot) are published.
        """
        hosted = self._session(name)  # fail fast on unknown sessions
        del hosted
        with self._registry_lock:
            if self._flush_executor is None:
                self._flush_executor = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="repro-flush")
            executor = self._flush_executor
        return executor.submit(self.flush, name)

    def mine(self, name: str) -> MaintenanceReport:
        """(Re-)run the initial from-scratch pass for ``name``."""
        hosted = self._session(name)
        with hosted.lock.write():
            if hosted.journal is not None and hosted.journal.has_snapshot:
                # A re-mine is a state transition recovery must repeat
                # (it un-stales an engine after a failed batch), so it
                # is journaled like any write — before it runs.
                hosted.applied_seq = hosted.journal.append_mine()
            report = hosted.engine.mine()
            hosted.revision += 1
            if hosted.journal is not None \
                    and not hosted.journal.has_snapshot:
                # A session created with ``mine=False`` could not take
                # its base snapshot at attach time; the first mine is
                # the first snapshot-able state.
                hosted.journal.ensure_base_snapshot(hosted.engine)
        if self._instrumentation is not None:
            self._observe_phases(report)
        return report

    # -- reads ----------------------------------------------------------------

    def snapshot(self, name: str) -> RuleSnapshot:
        """A frozen view of the current rules (shared read lock).

        Memoized per revision: while nothing flushed, repeated calls
        return the *same* snapshot object (or, if only the pending
        count moved, a copy that still shares the rules tuple and
        catalog) — an unchanged-revision read copies no rules.
        """
        hosted = self._session(name)
        return self._snapshot_locked(hosted)

    def rules(self, name: str,
              kind: RuleKind | None = None) -> tuple[AssociationRule, ...]:
        snap = self.snapshot(name)
        return snap.rules if kind is None else snap.of_kind(kind)

    def catalog(self, name: str) -> RuleCatalog:
        """The session's indexed query view (shared read lock); at an
        unchanged revision this is a cache hit, not a rebuild."""
        hosted = self._session(name)
        with hosted.lock.read():
            if not hosted.engine.is_mined:
                raise SessionError(
                    f"session {name!r} has no mined rules to query — "
                    f"call mine() first")
            return hosted.engine.catalog()

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
        """An approximate snapshot that never waits for a flush.

        ``mode=estimate`` in one call: candidates come from the last
        *published* catalog (immutable — read without the session
        lock), counts come from the engine's maintenance-fresh sketch
        registries plus an exact overlay of still-queued insert events,
        and every metric carries its error bound.  The only lock taken
        on the hot path is the queue mutex (one list copy); the session
        read lock is touched once ever, to build the sketches without
        racing a writer.  Contrast :meth:`snapshot`, which serves exact
        numbers but queues behind an in-flight flush.
        """
        hosted = self._session(name)
        engine = hosted.engine
        snap = hosted.snapshot_cache
        if snap is None or snap.catalog is None \
                or snap.revision != hosted.revision:
            # Cold path: no published snapshot yet, or a completed
            # flush already bumped the revision past the cache — build
            # the fresh one the exact way.  The revision compare is
            # lock-free, and a flush bumps it only *after* applying,
            # so an in-flight flush never drags an estimate onto this
            # path: stale-by-revision means the new catalog is already
            # published and the read lock is (briefly) contended at
            # worst.
            snap = self._snapshot_locked(hosted)
        if snap.catalog is None:
            raise SessionError(
                f"session {name!r} has no mined rules to estimate — "
                f"call mine() first")
        if not engine.sketches_ready:
            with hosted.lock.read():
                engine.warm_sketches()
        with hosted.queue_lock:
            pending = list(hosted.queue)
        started = time.perf_counter()
        result = estimate_snapshot(
            engine, snap.catalog.rules, pending,
            session=name, revision=snap.revision,
            n=n, by=by, kind=kind, z=z,
            confidence_level=confidence_level)
        instrumentation = self._instrumentation
        if instrumentation is not None:
            # Duck-typed like observe_phases: minimal sinks may lack
            # the estimate-tier instruments.
            reads = getattr(instrumentation, "estimate_reads", None)
            if reads is not None:
                reads.inc()
            seconds = getattr(instrumentation, "estimate_seconds", None)
            if seconds is not None:
                seconds.observe(time.perf_counter() - started)
        return result

    def pending(self, name: str) -> int:
        """Events submitted but not yet flushed."""
        hosted = self._session(name)
        with hosted.queue_lock:
            return len(hosted.queue)

    def vocabulary(self, name: str) -> ItemVocabulary:
        """The session engine's item vocabulary.

        The vocabulary is append-only for the engine's lifetime, so
        callers may render item ids from *older* snapshots through it
        without holding any session lock.
        """
        return self._session(name).engine.vocabulary

    def config_of(self, name: str) -> EngineConfig:
        """The config the session's engine was built from."""
        hosted = self._session(name)
        if hosted.config is None:
            raise SessionError(
                f"session {name!r} carries no EngineConfig")
        return hosted.config

    def verify(self, name: str) -> VerificationResult:
        """Re-mine from scratch and compare (read lock: no mutation)."""
        hosted = self._session(name)
        with hosted.lock.read():
            return hosted.engine.verify_against_remine()

    def _snapshot_locked(self, hosted: _Hosted) -> RuleSnapshot:
        with hosted.lock.read():
            engine = hosted.engine
            mined = engine.is_mined
            # The engine-side memo is the staleness authority: a rule
            # set replaced by a mine/flush that later failed validation
            # changes the engine's catalog identity without bumping the
            # session revision, and the cached snapshot must not
            # outlive it.  On the hot path this is one memo hit and an
            # identity compare.
            current = engine.catalog() if mined else None
            instrumentation = self._instrumentation
            with hosted.queue_lock:
                pending = len(hosted.queue)
                cached = hosted.snapshot_cache
                if (cached is not None
                        and cached.revision == hosted.revision
                        and cached.catalog is current):
                    if instrumentation is not None:
                        instrumentation.snapshot_hits.inc()
                    if cached.pending_events != pending:
                        # Only the queue depth moved: refresh that one
                        # field; the rules tuple, signature and catalog
                        # are shared with the cached snapshot, not
                        # copied.
                        cached = replace(cached, pending_events=pending)
                        hosted.snapshot_cache = cached
                    return cached
            if instrumentation is not None:
                instrumentation.snapshot_misses.inc()
            snap = RuleSnapshot(
                session=hosted.name,
                db_size=engine.db_size,
                revision=hosted.revision,
                # The catalog's canonical tuple is the snapshot's rule
                # view — shared, never re-copied per call.
                rules=current.rules if mined else (),
                signature=engine.signature() if mined else frozenset(),
                pending_events=pending,
                catalog=current,
            )
            with hosted.queue_lock:
                hosted.snapshot_cache = snap
            return snap
