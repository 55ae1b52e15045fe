"""Application session: the state behind the paper's menu.

The paper's standalone application loads a dataset file, mines rules at
user-entered support/confidence, applies update files incrementally,
and writes rule files.  :class:`Session` is that lifecycle as an
object, shared by the interactive CLI and by scripted/driven use in
tests.  Invalid transitions (mining before loading a dataset, applying
updates before mining) raise :class:`~repro.errors.SessionError` with
actionable messages instead of crashing mid-menu.
"""

from __future__ import annotations

import os

from repro.core.catalog import RuleCatalog
from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine, engine as build_engine
from repro.core.events import (
    AddAnnotatedTuples,
    AddUnannotatedTuples,
    UpdateEvent,
)
from repro.core.maintenance import BatchReport, MaintenanceReport
from repro.app.estimate import EstimateSnapshot, estimate_snapshot
from repro.app.service import poison_error
from repro.core.rules import AssociationRule, RuleKind
from repro.core.stats import DEFAULT_MARGIN
from repro.errors import ItemKindError, SessionError, VocabularyError
from repro.exploitation.ranking import rank
from repro.exploitation.recommender import (
    MissingAnnotationRecommender,
    Recommendation,
)
from repro.generalization.engine import Generalizer
from repro.mining.itemsets import Item, ItemKind
from repro.io import dataset_format, generalization_format, rules_format
from repro.io import updates_format
from repro.relation.relation import AnnotatedRelation


class Session:
    """Mutable application state: one dataset, one mined manager.

    With ``auto_flush_every`` set, update files are *queued* as events
    instead of applied immediately; once the queue reaches that depth
    (or :meth:`flush` is called from the menu) the whole backlog is
    applied as one coalesced batch through ``engine.apply_batch`` —
    the serving facade's write path, surfaced in the standalone app.
    """

    def __init__(self, *, auto_flush_every: int | None = None,
                 shards: int = 1) -> None:
        if auto_flush_every is not None and auto_flush_every < 1:
            raise SessionError(
                f"auto_flush_every must be >= 1 or None, "
                f"got {auto_flush_every}")
        if shards < 1:
            raise SessionError(f"shards must be >= 1, got {shards}")
        self.relation: AnnotatedRelation | None = None
        self.manager: CorrelationEngine | None = None
        self.generalizer: Generalizer | None = None
        self.dataset_path: str | None = None
        self.auto_flush_every = auto_flush_every
        self.shards = shards
        self.pending_updates: list[UpdateEvent] = []
        #: Wall-clock phase breakdown of the most recent mine or flush
        #: (``{phase: seconds}``); surfaced by :meth:`status`.
        self.last_phases: dict[str, float] = {}

    # -- dataset -----------------------------------------------------------

    def load_dataset(self, path: str | os.PathLike) -> int:
        """Load a Figure 4 dataset file; returns the tuple count."""
        self.relation = dataset_format.read_dataset(path)
        self.dataset_path = os.fspath(path)
        self.manager = None  # thresholds must be re-entered
        self.generalizer = None
        self.pending_updates.clear()  # queued events named old tids
        self.last_phases = {}
        return len(self.relation)

    def restore_snapshot(self, manager: CorrelationEngine,
                         label: str) -> None:
        """Adopt a restored engine (menu option 13 / programmatic load).

        Owns the queue invariant: any pending updates named tids of the
        replaced relation, so they are discarded with it.  The replaced
        session's generalizer and phase breakdown go with it too: the
        next mine generalizes the way the restored engine does.
        """
        self.relation = manager.relation
        self.manager = manager
        self.generalizer = manager.generalizer
        self.dataset_path = label
        self.pending_updates.clear()
        self.last_phases = {}

    def _require_relation(self) -> AnnotatedRelation:
        if self.relation is None:
            raise SessionError("no dataset loaded — load a dataset first")
        return self.relation

    def _require_manager(self) -> CorrelationEngine:
        if self.manager is None:
            raise SessionError(
                "no rules mined yet — run a discovery option first")
        return self.manager

    # -- generalization (menu option 3) -------------------------------------

    def load_generalizations(self, path: str | os.PathLike) -> int:
        """Parse a Figure 9 file; takes effect on the next mining run."""
        relation = self._require_relation()
        rules, hierarchy = generalization_format.parse_generalization_rules(
            path)
        self.generalizer = Generalizer(relation.registry, rules, hierarchy)
        self.manager = None  # the extended database changes the rules
        return len(rules)

    # -- mining (menu options 1 and 2) ----------------------------------------

    def mine(self, min_support: float, min_confidence: float, *,
             margin: float = DEFAULT_MARGIN,
             max_length: int | None = None) -> MaintenanceReport:
        """(Re)mine at the given thresholds; installs a fresh manager."""
        relation = self._require_relation()
        config = EngineConfig(min_support=min_support,
                              min_confidence=min_confidence,
                              margin=margin,
                              generalizer=self.generalizer,
                              max_length=max_length,
                              shards=self.shards)
        self.manager = build_engine(relation, config)
        report = self.manager.mine()
        self.last_phases = dict(report.phases.wall)
        return report

    def rules_of_kind(self, kind: RuleKind) -> list[AssociationRule]:
        manager = self._require_manager()
        return list(manager.catalog().query().of_kind(kind)
                    .order_by("confidence").all())

    # -- rule queries (menu options 17 and 18) --------------------------------

    def catalog(self) -> RuleCatalog:
        """The indexed rule catalog — memoized per engine revision."""
        return self._require_manager().catalog()

    def top_rules(self, n: int, *, by: str = "confidence",
                  kind: RuleKind | None = None) -> list[AssociationRule]:
        """The ``n`` best rules by a metric (presorted-index slice)."""
        query = self.catalog().query()
        if kind is not None:
            query = query.of_kind(kind)
        return list(query.top(n, by=by))

    def rules_page(self, *, offset: int = 0, limit: int | None = 20,
                   by: str = "confidence",
                   kind: RuleKind | None = None) -> list[AssociationRule]:
        """One page of the metric-ordered rule listing."""
        query = self.catalog().query().order_by(by)
        if kind is not None:
            query = query.of_kind(kind)
        return list(query.page(offset, limit).all())

    def estimate_rules(self, n: int | None = None, *,
                       by: str = "confidence",
                       kind: RuleKind | None = None,
                       z: float | None = None,
                       confidence_level: float | None = None
                       ) -> EstimateSnapshot:
        """Estimated rule ranking (menu option 19).

        Re-counts the current catalog's rules from the engine's
        vertical index and folds queued-but-unflushed insert updates
        in exactly — the standalone twin of the serving facade's
        ``mode=estimate`` read.
        """
        manager = self._require_manager()
        return estimate_snapshot(
            manager, manager.catalog().rules, list(self.pending_updates),
            session=self.dataset_path or "(unnamed)",
            revision=manager.revision,
            n=n, by=by, kind=kind, z=z,
            confidence_level=confidence_level)

    def significant_rules(self, *, max_p_value: float = 0.05,
                          min_chi_square: float | None = None,
                          kind: RuleKind | None = None,
                          limit: int | None = None
                          ) -> list[AssociationRule]:
        """Rules surviving the significance tier, most significant
        first (menu option 20): chi-square floor and p-value ceiling
        over the catalog's exact counts."""
        query = self.catalog().query().max_p_value(max_p_value)
        if min_chi_square is not None:
            query = query.min_chi_square(min_chi_square)
        if kind is not None:
            query = query.of_kind(kind)
        query = query.order_by("p_value")
        if limit is not None:
            query = query.page(0, limit)
        return list(query.all())

    def rules_for_annotation(self, annotation_token: str, *,
                             limit: int | None = None
                             ) -> list[AssociationRule]:
        """Rules predicting ``annotation_token``, best confidence
        first — one by-RHS index probe.  The token may name a raw
        annotation or a generalization label; one the mined vocabulary
        never saw predicts nothing: empty list."""
        manager = self._require_manager()
        # ItemKindError covers malformed tokens (e.g. empty string) the
        # Item constructor rejects before any vocabulary lookup.
        try:
            rhs = manager.vocabulary.find_annotation(annotation_token)
        except (VocabularyError, ItemKindError):
            try:
                rhs = manager.vocabulary.id_of(
                    Item(ItemKind.LABEL, annotation_token))
            except (VocabularyError, ItemKindError):
                return []
        query = (manager.catalog().query().with_rhs(rhs)
                 .order_by("confidence"))
        if limit is not None:
            query = query.page(0, limit)
        return list(query.all())

    # -- updates (menu options 4, 5, 6) -------------------------------------------

    def _route_update(self, event: UpdateEvent
                      ) -> MaintenanceReport | BatchReport | None:
        """Apply immediately, or queue for a coalesced flush.

        Returns ``None`` when the event was queued without triggering
        the auto-flush threshold — the CLI reports the queue depth.
        """
        manager = self._require_manager()
        if self.auto_flush_every is None:
            return manager.apply(event)
        self.pending_updates.append(event)
        if len(self.pending_updates) >= self.auto_flush_every:
            return self.flush()
        return None

    def flush(self) -> BatchReport | None:
        """Apply every queued update as one coalesced batch.

        Returns ``None`` when nothing was queued on a current engine;
        on a stale one (a failed flush left it so) even an empty flush
        raises the stale :class:`MaintenanceError`, as the serving
        facade's does.  Poison isolation mirrors the serving facade:
        the batch is compiled up to its first poison update before any
        mutation, the valid prefix is applied as one batch, the poison
        update is dropped, and the rest returns to the front of the
        queue with the raised :class:`SessionError` naming it.  A
        failure tied to no update (stale engine) puts the whole batch
        back and re-raises.
        """
        manager = self._require_manager()
        if not self.pending_updates:
            manager.require_current()
            return None
        batch, self.pending_updates = self.pending_updates, []
        try:
            prefix = manager.compile_prefix(batch)
        except Exception:
            self.pending_updates = batch + self.pending_updates
            raise
        self.pending_updates = list(prefix.tail) + self.pending_updates
        report = None
        if prefix.plan is not None:
            report = manager.apply_plan(prefix.plan)
            self.last_phases = dict(report.phases.wall)
        if prefix.poison is not None:
            raise poison_error(prefix, "flush",
                               noun="update") from prefix.error
        return report

    def pending(self) -> int:
        """Updates queued but not yet flushed."""
        return len(self.pending_updates)

    def add_annotations_from_file(self, path: str | os.PathLike
                                  ) -> MaintenanceReport | BatchReport | None:
        """Menu option 4: a Figure 14 δ batch."""
        return self._route_update(updates_format.read_updates(path))

    def add_annotated_tuples_from_file(
            self, path: str | os.PathLike
    ) -> MaintenanceReport | BatchReport | None:
        """Menu option 5: Case 1 — rows in the Figure 4 dataset format."""
        self._require_manager()
        rows = list(dataset_format.iter_rows(_read_lines(path)))
        if not rows:
            raise SessionError(f"no tuples found in {os.fspath(path)!r}")
        return self._route_update(AddAnnotatedTuples.build(rows))

    def add_unannotated_tuples_from_file(
            self, path: str | os.PathLike
    ) -> MaintenanceReport | BatchReport | None:
        """Menu option 6: Case 2 — rows must carry no annotations."""
        self._require_manager()
        rows = list(dataset_format.iter_rows(_read_lines(path)))
        if not rows:
            raise SessionError(f"no tuples found in {os.fspath(path)!r}")
        annotated = [values for values, annotations in rows if annotations]
        if annotated:
            raise SessionError(
                f"{len(annotated)} row(s) in {os.fspath(path)!r} carry "
                f"annotations — use the annotated-tuples option instead")
        return self._route_update(AddUnannotatedTuples.build(
            [values for values, _annotations in rows]))

    # -- exploitation (menu option 7) -----------------------------------------------

    def recommendations(self, *, limit: int = 20,
                        min_confidence: float | None = None
                        ) -> list[Recommendation]:
        manager = self._require_manager()
        recommender = MissingAnnotationRecommender(
            manager, min_confidence=min_confidence)
        ranked = rank(recommender.scan())
        return ranked[:limit] if limit else ranked

    # -- output (menu option 8) ---------------------------------------------------------

    def write_rules(self, path: str | os.PathLike, *,
                    kind: RuleKind | None = None) -> int:
        manager = self._require_manager()
        rules = (manager.rules if kind is None
                 else manager.rules_of_kind(kind))
        return rules_format.write_rules(rules, manager.vocabulary, path)

    # -- status (menu option 9) -----------------------------------------------------------

    def status(self) -> dict[str, object]:
        out: dict[str, object] = {
            "dataset": self.dataset_path,
            "tuples": len(self.relation) if self.relation else 0,
            "annotations": (len(self.relation.registry)
                            if self.relation else 0),
            "generalizations": (self.generalizer is not None),
            # The live manager's actual layout wins over the session
            # default: a restored v3 snapshot installs its own shard
            # count (menu option 13), which the next mine() replaces
            # with the session setting again.
            "shards": (getattr(self.manager, "shard_count", 1)
                       if self.manager is not None else self.shards),
            "auto_flush_every": self.auto_flush_every,
            "pending_updates": self.pending(),
            "mined": self.manager is not None,
        }
        if self.manager is not None:
            out.update({
                "rules": len(self.manager.rules),
                "d2a_rules": len(self.manager.rules_of_kind(
                    RuleKind.DATA_TO_ANNOTATION)),
                "a2a_rules": len(self.manager.rules_of_kind(
                    RuleKind.ANNOTATION_TO_ANNOTATION)),
                "patterns": len(self.manager.table),
                "candidates": len(self.manager.candidates),
                "revision": self.manager.revision,
                "min_support": self.manager.thresholds.min_support,
                "min_confidence": self.manager.thresholds.min_confidence,
            })
        if self.last_phases:
            out["last_phases"] = dict(self.last_phases)
        return out


def _read_lines(path: str | os.PathLike) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return list(handle)
