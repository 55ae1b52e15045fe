"""Stateful model test of a journaled session's commit path.

Hypothesis interleaves valid and poison submits, flushes, one-shot
failures injected mid-batch, re-mines, checkpoints and restarts.  The
model tracks the queue as valid/poison markers and the revision the
engine should report, and checks after every step:

* a flush drops exactly the poison event it names, re-queues the tail,
  and on a stale engine drops and journals nothing;
* after each committed flush or mine the published snapshot's
  signature equals a from-scratch re-mine of the engine's relation;
* the revision moves once per commit and never decreases, across a
  restart included;
* a restarted session's signature and ``db_size`` equal the live
  values at its last commit.

Valid events come from one pre-drawn stream, valid in order: poison
events change nothing, a batch that fails mid-application has already
changed the relation, and a stale batch is re-queued whole, so every
valid event applies exactly once and in order.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.app.service import CorrelationService
from repro.baselines.remine import remine
from repro.core.config import EngineConfig
from repro.core.events import AddAnnotations
from repro.errors import MaintenanceError, SessionError
from tests.conftest import make_relation
from tests.property.test_prop_shard import drawn_events

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6, validate=True)
STREAM = drawn_events(make_relation(), count=40, seed=17)
POISON = AddAnnotations.build([(10_000, "A")])   # unknown tuple id


class InjectedFailure(RuntimeError):
    """The one-shot mid-batch failure the machine injects."""


class CommitPath(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="commit-path-")
        self.service = self._service()
        self.service.create("s", make_relation())
        self.drawn = 0
        #: The queue as the model sees it: True = valid, False = poison.
        self.queue: list[bool] = []
        self.stale = False
        self.armed = False
        self.committed = self.service.snapshot("s")
        self.revision = self.committed.revision

    def _service(self):
        return CorrelationService(config=ENGINE,
                                  journal_dir=self.directory)

    @property
    def engine(self):
        return self.service._session("s").engine

    def _commit(self, bumps: int) -> None:
        """Check the published snapshot after a step that committed
        ``bumps`` times."""
        snap = self.service.snapshot("s")
        assert snap.revision == self.revision + bumps
        self.revision = snap.revision
        if bumps:
            thresholds = self.engine.thresholds
            fresh = remine(self.engine.relation,
                           min_support=thresholds.min_support,
                           min_confidence=thresholds.min_confidence,
                           margin=thresholds.margin)
            assert snap.signature == fresh.signature()
            assert snap.db_size == self.engine.db_size
            self.committed = snap

    # -- writes ----------------------------------------------------------------

    @precondition(lambda self: self.drawn < len(STREAM))
    @rule()
    def submit_valid(self):
        self.service.submit("s", STREAM[self.drawn])
        self.drawn += 1
        self.queue.append(True)

    @rule()
    def submit_poison(self):
        self.service.submit("s", POISON)
        self.queue.append(False)

    @rule()
    def flush(self):
        queue = self.queue
        poison = queue.index(False) if False in queue else None
        try:
            self.service.flush("s")
        except SessionError as error:
            assert not self.stale and poison is not None
            assert f"event {poison + 1} of {len(queue)}" in str(error)
            self.queue = queue[poison + 1:]
            self._commit(1 if poison else 0)
        except MaintenanceError as error:
            assert self.stale, error
            assert "stale" in str(error)
            self._commit(0)
        except InjectedFailure:
            assert self.armed and poison != 0
            self.armed = False
            self.stale = True
            self.queue = queue[poison + 1:] if poison is not None else []
            self._commit(0)
        else:
            assert not self.stale and poison is None
            self.queue = []
            self._commit(1 if queue else 0)
        assert self.service.pending("s") == len(self.queue)

    @precondition(lambda self: not self.armed)
    @rule()
    def inject_failure(self):
        """Fail the next rule refresh once, after the batch mutated the
        relation, index and pattern table."""
        engine = self.engine

        def refresh(report, dirty):
            del engine._refresh_rules_scoped   # one shot
            raise InjectedFailure("injected refresh failure")

        engine._refresh_rules_scoped = refresh
        self.armed = True

    @rule()
    def mine(self):
        self.service.mine("s")
        self.stale = False
        self._commit(1)

    @rule()
    def checkpoint(self):
        self.service.checkpoint("s")
        self._commit(0)

    @precondition(lambda self: not self.stale)
    @rule()
    def restart(self):
        """Close, recover from the journal, and resubmit what was
        queued (a client retrying writes the crash lost)."""
        queued = list(self.service._session("s").queue)
        self.service.close()
        self.service.drop("s", force=True)
        self.service = self._service()
        self.service.restore_session("s")
        self.armed = False
        snap = self.service.snapshot("s")
        assert snap.signature == self.committed.signature
        assert snap.db_size == self.committed.db_size
        assert snap.revision >= self.revision
        self.revision = snap.revision
        for event in queued:
            self.service.submit("s", event)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def revision_never_decreases(self):
        assert self.service.snapshot("s").revision >= self.revision

    def teardown(self):
        self.service.close()
        self.service.drop("s", force=True)
        shutil.rmtree(self.directory, ignore_errors=True)


CommitPath.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
TestCommitPath = CommitPath.TestCase
