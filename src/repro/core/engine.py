"""The correlation engine — the library's central lifecycle object.

:class:`CorrelationEngine` owns an annotated relation together with all
maintained state the paper describes: the transaction encoding, the
annotation (vertical) index and frequency table, the frequent-pattern
table, the valid rule set, and the near-miss candidate rules.  It
exposes exactly the lifecycle of the paper's application:

* :meth:`mine` — the initial, from-scratch pass: bulk-encode the
  relation into the transaction store and bitmap index, then mine the
  constrained itemsets over that index;
* :meth:`apply_batch` — coalesce an ordered batch of update events
  into one :class:`~repro.core.deltas.DeltaPlan` and run it through
  the incremental algorithms of Figures 12 and 13 with **one**
  relation/index update, one maintenance walk per case, one
  (dirty-scoped) rule refresh and one invariant check.  It is two
  steps — :meth:`compile_batch` (side-effect free) and
  :meth:`apply_plan` — so the flush paths can split a batch at its
  first poison event (:meth:`compile_prefix`) before journaling it;
* :meth:`apply` — the single-event case of :meth:`apply_batch`,
  returning the per-event :class:`MaintenanceReport` shape;
* :meth:`rules` / :meth:`rules_of_kind` — the current correlations;
* :meth:`catalog` — the revision-memoized
  :class:`~repro.core.catalog.RuleCatalog` (indexed lookups, metric
  orderings, composable queries) the serving read path answers from;
* :meth:`signature` — a vocabulary-independent snapshot used by every
  equivalence check against full re-mining.

Construction goes through :class:`~repro.core.config.EngineConfig`
(usually via :func:`engine`), or passes
config fields as keyword arguments straight to the constructor.

All mutation must flow through the engine (or a relation it has not
yet adopted): it records the relation's version counter and refuses to
proceed if the relation changed behind its back, because incremental
maintenance over unseen mutations would silently desynchronize counts.
"""

from __future__ import annotations

import itertools
import time
import types
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.annotation_index import VerticalIndex
from repro.core.catalog import RuleCatalog
from repro.core.config import EngineConfig
from repro.core.deltas import (
    CompiledPrefix,
    DeltaPlan,
    PlannedInsert,
    compile_plan,
    event_label,
)
from repro.core.derive import (
    affected_unions,
    derive_rules,
    derive_rules_for_unions,
)
from repro.core.discovery import complete_table, discover_with_seeds
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
    UpdateEvent,
)
from repro.core.maintenance import (
    BatchReport,
    MaintenanceReport,
    PhaseTimings,
    TupleDelta,
    decay_for_deleted_tuples,
    decay_for_removed_items,
    refresh_for_added_items,
)
from repro.core.pattern_table import FrequentPatternTable
from repro.core.rules import AssociationRule, RuleKey, RuleKind, RuleSet
from repro.errors import MaintenanceError, ReproError, SchemaError
from repro.mining.constraints import CombinedRelevanceConstraint
from repro.mining.bitmap import BitmapIndex
from repro.mining.eclat import mine_frequent_itemsets_vertical
from repro.mining.fup import fup_update
from repro.mining.itemsets import (
    Itemset,
    ItemVocabulary,
    Transaction,
    TransactionDatabase,
)
from repro.relation.annotation import Annotation
from repro.relation.relation import AnnotatedRelation
from repro.relation.transactions import (
    EncodedRelation,
    TokenInterner,
    encode_relation,
    encode_tuple,
)

#: Vocabulary-independent fingerprint of one rule (used across engines).
RuleSignature = tuple[str, tuple[str, ...], str, int, int, int]


def engine(relation: AnnotatedRelation | None = None,
           config: EngineConfig | None = None,
           **overrides) -> "CorrelationEngine":
    """Build a correlation engine — the one-call public entry.

    ``overrides`` are :class:`EngineConfig` fields; they either build a
    config from scratch (``repro.engine(rel, min_support=0.2,
    min_confidence=0.6, max_length=3)``) or refine a given one.

    With ``shards >= 2`` in the config the factory returns a
    :class:`~repro.shard.ShardedEngine` — a drop-in
    :class:`CorrelationEngine` subclass that partitions the relation by
    tid, mines/maintains the partitions independently, and merges them
    exactly (identical rules and ``signature()``).
    """
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    if config.shards > 1:
        from repro.shard import ShardedEngine  # local: shard imports us

        return ShardedEngine(relation, config)
    return CorrelationEngine(relation, config)


def rule_signature(rules: Iterable[AssociationRule],
                   vocabulary: ItemVocabulary) -> frozenset[RuleSignature]:
    """The vocabulary-independent fingerprint of ``rules``: each rule
    as its kind, sorted LHS tokens, RHS token and counts."""
    out = set()
    for rule in rules:
        lhs_tokens = tuple(sorted(vocabulary.item(item).token
                                  for item in rule.lhs))
        rhs_token = vocabulary.item(rule.rhs).token
        out.add((rule.kind.value, lhs_tokens, rhs_token,
                 rule.union_count, rule.lhs_count, rule.db_size))
    return frozenset(out)


@dataclass(frozen=True)
class EncodedSubstrate:
    """The mining substrate of one relation: its transaction store and
    the bitmap index over the same transactions.

    :meth:`CorrelationEngine.mine` builds one from its relation; the
    sharded engine builds one per partition itself (interning must
    stay sequential across shards) and hands it to each shard's
    ``mine``.  The database and index must be built against the
    engine's *own* vocabulary and aligned with its relation
    (transaction index == tid, tombstones encoded as empty
    transactions, index covering exactly the database's transactions).
    ``mine`` verifies the vocabulary identity of both halves and the
    database/relation alignment; index/database agreement is the
    builder's contract (:meth:`from_encoded` adopts both halves of one
    :func:`~repro.relation.transactions.encode_relation` pass, and
    :meth:`from_transactions` derives both from one transaction list).
    """

    database: TransactionDatabase
    index: VerticalIndex

    @classmethod
    def from_encoded(cls, vocabulary: ItemVocabulary,
                     encoded: EncodedRelation) -> "EncodedSubstrate":
        """Wrap the output of one bulk encoding pass."""
        return cls(
            database=TransactionDatabase.from_encoded(
                vocabulary, encoded.transactions),
            index=VerticalIndex.from_bitmaps(vocabulary, encoded.bitmaps))

    @classmethod
    def from_transactions(cls, vocabulary: ItemVocabulary,
                          transactions: list[Transaction]
                          ) -> "EncodedSubstrate":
        """Materialize a substrate from pre-encoded transactions."""
        return cls.from_encoded(vocabulary, EncodedRelation(
            [tuple(items) for items in transactions],
            BitmapIndex.from_transactions(transactions)))


class CorrelationEngine:
    """Discovers and incrementally maintains annotation correlations."""

    def __init__(self,
                 relation: AnnotatedRelation | None = None,
                 config: EngineConfig | None = None,
                 *,
                 vocabulary: ItemVocabulary | None = None,
                 **overrides) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.relation = relation if relation is not None else AnnotatedRelation()
        self.config = config
        self.thresholds = config.thresholds()

        # A caller-supplied vocabulary lets several engines share one
        # interning space — the sharded engine gives every partition
        # (and its own merged table) the same vocabulary so itemset ids
        # are comparable across shards without translation.
        self.vocabulary = vocabulary if vocabulary is not None \
            else ItemVocabulary()
        self.database = TransactionDatabase(self.vocabulary)
        self.index = VerticalIndex(self.vocabulary)
        self.table = FrequentPatternTable(self.vocabulary)
        self.constraint = CombinedRelevanceConstraint(self.vocabulary)
        self._rules = RuleSet()
        #: Full current near-miss set, keyed — maintained alongside the
        #: rules so the dirty-scoped refresh can revalidate untouched
        #: near misses arithmetically; :attr:`candidates` serves it.
        self._near_misses: dict[RuleKey, AssociationRule] = {}
        self._mined = False
        self._relation_version = -1
        #: Monotone rule-state revision: bumped once by ``mine()`` and
        #: once per ``apply_batch`` — the key the read path's catalog
        #: cache is invalidated by (exactly once per flushed batch).
        self._revision = 0
        self._catalog: RuleCatalog | None = None
        #: The rule-set-built catalog ``_catalog`` was stamped from —
        #: a rule-set replacement (even one whose batch later failed
        #: validation, leaving ``_revision`` unbumped) must invalidate
        #: the memo, or reads would serve rules the engine no longer
        #: holds.
        self._catalog_base: RuleCatalog | None = None

    # -- properties ----------------------------------------------------------

    @property
    def generalizer(self):
        return self.config.generalizer

    @property
    def max_length(self) -> int | None:
        return self.config.max_length

    @property
    def validate(self) -> bool:
        return self.config.validate

    @property
    def db_size(self) -> int:
        """|DB| — the support denominator (live tuples)."""
        return self.relation.live_count

    @property
    def rules(self) -> RuleSet:
        self._require_mined()
        return self._rules

    @property
    def candidates(self) -> Mapping[RuleKey, AssociationRule]:
        """The near-miss rules, keyed, as a read-only view.

        Section 4.3 (Case 3): "storing the existing rules and candidate
        rules (rules slightly below the minimum support and confidence
        requirements)" — rules failing a user threshold but inside the
        ``margin`` band, with their exact counts.
        """
        return types.MappingProxyType(self._near_misses)

    def rules_of_kind(self, kind: RuleKind) -> list[AssociationRule]:
        return list(self.catalog().of_kind(kind))

    @property
    def is_mined(self) -> bool:
        return self._mined

    @property
    def revision(self) -> int:
        """Monotone counter of committed rule-state changes."""
        return self._revision

    # -- the serving read path -------------------------------------------------

    def catalog(self) -> RuleCatalog:
        """The indexed, immutable query view of the current rules.

        Memoized by :attr:`revision` *and* rule-set identity: a flush
        invalidates it exactly once per batch, and every read at an
        unchanged revision returns the *same* catalog object —
        concurrent readers share one set of indexes.  The indexes
        themselves are built (lazily, once) by the rule set and only
        re-stamped with the engine revision here, so the engine and
        :meth:`RuleSet.catalog` never hold duplicate index builds.
        (The memo is a benign race under concurrent first reads: both
        derive equal catalogs and one wins the slot.)
        """
        self._require_mined()
        base: RuleCatalog = self._rules.catalog()
        cached = self._catalog
        if (cached is None or self._catalog_base is not base
                or cached.revision != self._revision):
            cached = base.with_revision(
                self._revision, rhs_counts=self._rhs_frequencies(base))
            self._catalog = cached
            self._catalog_base = base
        return cached

    def _rhs_frequencies(self, base: RuleCatalog) -> dict[int, int]:
        """Exact RHS marginals for the catalog's significance tier —
        one frequency probe per distinct predicted item, once per
        revision (the catalog memoizes the enriched clone)."""
        index = self.index
        return {rhs: index.frequency(rhs) for rhs in base.rhs_items()}

    def adopt_revision(self, revision: int) -> None:
        """Install a restored revision counter (persistence only):
        the restored engine's catalog is then keyed exactly as the
        saved engine's was."""
        if revision < 0:
            raise MaintenanceError(
                f"revision must be >= 0, got {revision}")
        self._revision = revision
        self._catalog = None
        self._catalog_base = None

    # -- initial mining --------------------------------------------------------

    def mine(self, *,
             substrate: EncodedSubstrate | None = None) -> MaintenanceReport:
        """From-scratch pass: apply generalizations, bulk-encode the
        relation into the database and bitmap index, mine the
        constrained itemsets at the margined floor over that index,
        derive rules.

        Only the sharded engine passes a pre-built ``substrate`` (one
        per partition, interned sequentially across shards); its caller
        owns label application, so the generalizer pass is skipped with
        it too.
        """
        started = time.perf_counter()
        phases = PhaseTimings()
        with phases.timed("encode"):
            if substrate is None:
                self._apply_generalizer()
                substrate = EncodedSubstrate.from_encoded(
                    self.vocabulary,
                    encode_relation(self.relation,
                                    TokenInterner(self.vocabulary)))
            elif (substrate.database.vocabulary is not self.vocabulary
                    or substrate.index.vocabulary is not self.vocabulary):
                raise MaintenanceError(
                    "substrate was encoded against a different vocabulary "
                    "than this engine's")
            elif len(substrate.database) != self.relation.tid_range:
                raise MaintenanceError(
                    f"substrate covers {len(substrate.database)} "
                    f"transactions but the relation has tid range "
                    f"{self.relation.tid_range}")
        with phases.timed("mine"):
            counts = mine_frequent_itemsets_vertical(
                substrate.database.transactions,
                min_count=self.thresholds.keep_count(self.db_size),
                constraint=self.constraint,
                max_length=self.max_length,
                index=substrate.index.as_mapping(),
            )
        return self._commit_mine(substrate, counts, phases, started)

    def _apply_generalizer(self) -> None:
        """Label every live tuple with its generalizations (no-op
        without a generalizer) — the first step of a from-scratch
        mine."""
        if self.generalizer is not None:
            for row in self.relation:
                self.relation.set_labels(
                    row.tid, self.generalizer.labels_for(row.annotation_ids))

    def _commit_mine(self, substrate: EncodedSubstrate,
                     counts: dict[Itemset, int],
                     phases: PhaseTimings,
                     started: float) -> MaintenanceReport:
        """Adopt a from-scratch substrate and pattern table, then derive
        and commit the rules.

        :func:`repro.baselines.remine.remine` calls this directly with
        the substrate and table of its own encoder and miner, so the
        oracle shares only rule derivation with :meth:`mine`.
        """
        self.database = substrate.database
        self.index = substrate.index
        self.table.replace(counts)
        self._mined = True
        self._relation_version = self.relation.version

        report = MaintenanceReport(event="mine", db_size=self.db_size,
                                   phases=phases)
        with phases.timed("refresh"):
            self._refresh_rules(report)
        # The rule state is committed: bump the revision even if the
        # invariant check below fails — readers are already served the
        # new rules, and staleness consumers key on this number.
        self._revision += 1
        report.duration_seconds = time.perf_counter() - started
        self._finish(report)
        return report

    # -- convenience wrappers ---------------------------------------------------

    def insert_annotated(self, rows: Iterable[tuple[Sequence[str],
                                                    Iterable[str]]]
                         ) -> MaintenanceReport:
        return self.apply(AddAnnotatedTuples.build(rows))

    def insert_unannotated(self, rows: Iterable[Sequence[str]]
                           ) -> MaintenanceReport:
        return self.apply(AddUnannotatedTuples.build(rows))

    def add_annotations(self, additions: Iterable[tuple[int, str]]
                        ) -> MaintenanceReport:
        return self.apply(AddAnnotations.build(additions))

    def remove_annotations(self, removals: Iterable[tuple[int, str]]
                           ) -> MaintenanceReport:
        return self.apply(RemoveAnnotations.build(removals))

    def remove_tuples(self, tids: Iterable[int]) -> MaintenanceReport:
        return self.apply(RemoveTuples.build(tids))

    # -- event routing ---------------------------------------------------------

    def apply(self, event: UpdateEvent) -> MaintenanceReport:
        """Route one update event — the single-element batch case."""
        batch = self.apply_batch([event])
        report = MaintenanceReport(event=event_label(event),
                                   db_size=batch.db_size)
        # One event exercises one case, but a sharded engine emits one
        # case report per *touched shard* — aggregate them all so the
        # per-event statistics match per-event application everywhere.
        for case in batch.case_reports:
            report.patterns_touched += case.patterns_touched
            report.patterns_added += case.patterns_added
            report.patterns_pruned += case.patterns_pruned
            report.tuples_scanned += case.tuples_scanned
        report.rules_added = batch.rules_added
        report.rules_dropped = batch.rules_dropped
        report.rules_updated = batch.rules_updated
        report.table_size = batch.table_size
        report.duration_seconds = batch.duration_seconds
        report.validation_seconds = batch.validation_seconds
        return report

    def apply_batch(self, events: Sequence[UpdateEvent]) -> BatchReport:
        """Coalesce ``events`` into one delta plan and apply it.

        The plan is compiled — and every compile-detectable failure
        raised — *before* any state is mutated, so a
        :class:`~repro.errors.DeltaPlanError` from this method leaves
        the engine untouched.  The batch runs one maintenance walk per
        case over the merged deltas, then **one** dirty-scoped rule
        refresh and **one** invariant check.
        """
        return self._apply_plan(self.compile_batch(events))

    def compile_batch(self, events: Sequence[UpdateEvent]) -> DeltaPlan:
        """The compile step of :meth:`apply_batch`: the mined check,
        the relation-version guard and :func:`compile_plan`, with no
        side effect.  An error raised for one event carries its
        position as ``event_position``; the guards' errors carry none.
        """
        self._require_mined()
        if not events:
            raise MaintenanceError("apply_batch needs at least one event")
        self.require_current()
        return compile_plan(
            events,
            next_tid=self.relation.tid_range,
            is_live=self.relation.is_live,
            annotations_of=lambda tid: self.relation.tuple(tid).annotation_ids,
            validate_row=self._validate_insert_row,
            validate_annotation=Annotation,
        )

    def compile_prefix(self, events: Sequence[UpdateEvent]) -> CompiledPrefix:
        """Compile ``events`` up to their first poison event.

        Every flush path (the service, the standalone session and
        journal replay) commits through this: it journals and applies
        ``plan`` as one batch, drops ``poison`` and re-queues ``tail``.
        An error tied to no event (a stale or unmined engine) is raised
        unchanged: no event of the batch can apply.
        """
        try:
            return CompiledPrefix(plan=self.compile_batch(events))
        except ReproError as error:
            position = error.event_position
            if position is None:
                raise
            prefix = events[:position - 1]
            return CompiledPrefix(
                plan=self.compile_batch(prefix) if prefix else None,
                poison=events[position - 1],
                tail=tuple(events[position:]),
                error=error)

    def apply_plan(self, plan: DeltaPlan) -> BatchReport:
        """The application step of :meth:`apply_batch`, for a plan
        :meth:`compile_batch` or :meth:`compile_prefix` built against
        the engine's current state."""
        if (self.relation.version != self._relation_version
                or plan.base_tid != self.relation.tid_range):
            raise MaintenanceError(
                "delta plan was compiled against another relation state")
        return self._apply_plan(plan)

    def close(self) -> None:
        """Release held resources and leave the engine reusable.

        No engine holds any today; the method stays so callers that
        close engines when done keep working."""

    def _validate_insert_row(self, values: Sequence[str]) -> None:
        """Mirror of ``relation.insert``'s row validation, run at plan
        compile time so a malformed row is rejected before any state is
        mutated (same exception per-event application would raise)."""
        if self.relation.schema is not None:
            self.relation.schema.validate_row(values)
        elif not values:
            raise SchemaError("a tuple needs at least one data value")

    def _apply_plan(self, plan: DeltaPlan) -> BatchReport:
        started = time.perf_counter()
        batch = BatchReport(db_size=self.db_size)
        batch.audits = list(plan.audits)
        batch.plan_stats = plan.stats
        # Name single-event batches after their event so validation
        # failures carry the same context per-event application did.
        if len(plan.audits) == 1:
            batch.event = plan.audits[0].event
        else:
            batch.event = f"apply-batch[{len(plan.audits)}]"
        dirty: set[Itemset] = set()
        with batch.phases.timed("apply"):
            if plan.inserts:
                batch.case_reports.append(
                    self._plan_inserts(plan.inserts, dirty))
            if plan.annotation_adds:
                batch.case_reports.append(
                    self._plan_annotation_adds(plan.annotation_adds, dirty))
            if plan.annotation_removes:
                batch.case_reports.append(
                    self._plan_annotation_removes(plan.annotation_removes,
                                                  dirty))
            if plan.deletions:
                batch.case_reports.append(
                    self._plan_tuple_removals(plan.deletions, dirty))
        batch.db_size = self.db_size
        batch.patterns_dirty = len(dirty)
        with batch.phases.timed("refresh"):
            self._refresh_rules_scoped(batch, dirty)
        # One revision bump per batch, committed *with* the rule state:
        # a batch that installs new rules and then fails the invariant
        # check below must still advance the number that advice
        # staleness (Recommendation.revision and friends) keys on.
        self._revision += 1
        batch.duration_seconds = time.perf_counter() - started
        # Validate *before* syncing the version counter: a failed
        # invariant check leaves the engine stale, so the guard at the
        # top of apply_batch forces a re-mine instead of letting
        # incremental maintenance continue over a corrupt table.
        self._finish(batch)
        self._relation_version = self.relation.version
        return batch

    # -- Cases 1 and 2: tuple inserts (FUP increment path) ----------------------

    def _plan_inserts(self, inserts: Sequence[PlannedInsert],
                      dirty: set[Itemset]) -> MaintenanceReport:
        increment = []
        for planned in inserts:
            # Sorted: the registry meets new ids in this order, and a
            # set's order would follow the hash seed into snapshots.
            tid = self.relation.insert(planned.values,
                                       sorted(planned.annotations))
            if tid != planned.tid:
                raise MaintenanceError(
                    f"tid drift: plan says {planned.tid}, "
                    f"relation says {tid}")
            if planned.elided:
                # Born dead (inserted and deleted within the batch): it
                # consumes its tid so later tids match per-event
                # application, but never reaches the mining substrate.
                self.relation.delete(tid)
                db_tid = self.database.add(frozenset())
                if db_tid != tid:
                    raise MaintenanceError(
                        f"tid drift: relation says {tid}, database "
                        f"says {db_tid}")
                continue
            if self.generalizer is not None:
                self.relation.set_labels(
                    tid,
                    self.generalizer.labels_for(
                        frozenset(planned.annotations)))
            transaction = encode_tuple(self.relation, tid, self.vocabulary)
            db_tid = self.database.add(transaction)
            if db_tid != tid:
                raise MaintenanceError(
                    f"tid drift: relation says {tid}, database says {db_tid}")
            self.index.add_transaction(tid, transaction)
            increment.append(transaction)

        report = MaintenanceReport(event="insert-tuples",
                                   db_size=self.db_size)
        report.tuples_scanned = len(increment)
        if not increment:
            return report  # every insert was elided: |DB| net unchanged
        fup_report = fup_update(
            self.table.counts,
            increment,
            index=self.index.as_mapping(),
            new_size=self.db_size,
            keep_fraction=self.thresholds.keep_support,
            constraint=self.constraint,
            max_length=self.max_length,
        )
        report.patterns_touched = fup_report.refreshed
        report.patterns_added = fup_report.added
        report.patterns_pruned = fup_report.pruned
        dirty |= fup_report.touched
        dirty.update(fup_report.added)
        dirty.update(fup_report.pruned)
        return report

    # -- Case 3: the δ batch of new annotations ---------------------------------

    def _plan_annotation_adds(self, adds: dict[int, list[str]],
                              dirty: set[Itemset]) -> MaintenanceReport:
        deltas: list[TupleDelta] = []
        seeds: set[int] = set()
        for tid, annotation_ids in adds.items():
            new_items = set()
            for annotation_id in annotation_ids:
                if self.relation.annotate(tid, annotation_id):
                    new_items.add(
                        self.vocabulary.intern_annotation(annotation_id))
            if self.generalizer is not None:
                row = self.relation.tuple(tid)
                fresh_labels = self.relation.add_labels(
                    tid, self.generalizer.labels_for(row.annotation_ids))
                new_items |= {self.vocabulary.intern_label(label)
                              for label in sorted(fresh_labels)}
            if not new_items:
                continue  # every annotation was already present
            self.database.extend_transaction(tid, new_items)
            self.index.extend_transaction(tid, new_items)
            deltas.append(TupleDelta(
                tid=tid,
                after=self.database.transaction(tid),
                changed_items=frozenset(new_items)))
            seeds |= new_items

        report = MaintenanceReport(event="add-annotations",
                                   db_size=self.db_size)
        report.tuples_scanned = len(deltas)
        # Figure 12: refresh stored patterns, touching only δ tuples.
        report.patterns_touched = refresh_for_added_items(
            self.table, deltas, touched_out=dirty)
        # Figure 13: seeded discovery through the annotation index.
        report.patterns_added = discover_with_seeds(
            self.table, self.index, seeds,
            min_count=self.thresholds.keep_count(self.db_size),
            constraint=self.constraint,
            max_length=self.max_length,
            validate=self.validate,
        )
        dirty.update(report.patterns_added)
        return report

    # -- extensions: removals ----------------------------------------------------

    def _plan_annotation_removes(self, removes: dict[int, list[str]],
                                 dirty: set[Itemset]) -> MaintenanceReport:
        deltas: list[TupleDelta] = []
        for tid, annotation_ids in removes.items():
            before = self.database.transaction(tid)
            removed_items = set()
            for annotation_id in annotation_ids:
                if self.relation.detach(tid, annotation_id):
                    removed_items.add(
                        self.vocabulary.intern_annotation(annotation_id))
            if self.generalizer is not None:
                row = self.relation.tuple(tid)
                kept_labels = self.generalizer.labels_for(row.annotation_ids)
                lost_labels = row.labels - set(kept_labels)
                if lost_labels:
                    self.relation.set_labels(tid, kept_labels)
                    removed_items |= {self.vocabulary.intern_label(label)
                                      for label in sorted(lost_labels)}
            if not removed_items:
                continue
            self.database.shrink_transaction(tid, removed_items)
            self.index.shrink_transaction(tid, removed_items)
            deltas.append(TupleDelta(
                tid=tid, after=before,
                changed_items=frozenset(removed_items)))

        report = MaintenanceReport(event="remove-annotations",
                                   db_size=self.db_size)
        report.tuples_scanned = len(deltas)
        report.patterns_touched = decay_for_removed_items(
            self.table, deltas, touched_out=dirty)
        # Counts only fell and |DB| is unchanged: nothing new can appear.
        report.patterns_pruned = self.table.prune_below(
            self.thresholds.keep_count(self.db_size))
        dirty.update(report.patterns_pruned)
        return report

    def _plan_tuple_removals(self, tids: Sequence[int],
                             dirty: set[Itemset]) -> MaintenanceReport:
        old_transactions = []
        for tid in tids:
            self.relation.delete(tid)
            old = self.database.clear_transaction(tid)
            self.index.remove_transaction(tid, old)
            old_transactions.append(old)

        report = MaintenanceReport(event="remove-tuples",
                                   db_size=self.db_size)
        report.tuples_scanned = len(old_transactions)
        report.patterns_touched = decay_for_deleted_tuples(
            self.table, old_transactions, touched_out=dirty)
        floor = self.thresholds.keep_count(self.db_size)
        report.patterns_pruned = self.table.prune_below(floor)
        # |DB| fell, so patterns whose counts never changed may now
        # qualify: run the level-wise completion.
        report.patterns_added = complete_table(
            self.table, self.index,
            floor=floor,
            constraint=self.constraint,
            max_length=self.max_length,
        )
        dirty.update(report.patterns_pruned)
        dirty.update(report.patterns_added)
        return report

    # -- rule refresh & verification -----------------------------------------------

    def _refresh_rules(self, report: MaintenanceReport) -> None:
        """Full derivation over the whole table (initial ``mine()``)."""
        new_rules, near_misses = derive_rules(self.table, self.thresholds,
                                              self.db_size)
        self._commit_rules(report, new_rules, near_misses)

    def _refresh_rules_scoped(self, report, dirty: set[Itemset]) -> None:
        """Re-derive rules only where ``dirty`` patterns can reach.

        Rules whose union was added, pruned or recounted — or whose LHS
        was — are re-enumerated from the table
        (:func:`~repro.core.derive.affected_unions` finds exactly those
        unions).  Every other rule's two counts are untouched, so its
        validity under the (possibly new) ``db_size`` is a pure
        arithmetic recheck: no table lookups, no shape enumeration.
        Rules that were neither valid nor near-miss stay untracked:
        their confidence is unchanged and the table floor already
        guarantees the support band, so no comparison can flip for
        them without their counts changing.
        """
        db_size = self.db_size
        thresholds = self.thresholds
        affected = affected_unions(self.table, dirty)
        new_rules, near_misses = derive_rules_for_unions(
            self.table, affected, thresholds, db_size)
        for rule in itertools.chain(self._rules, self._near_misses.values()):
            if rule.union_itemset in affected:
                continue
            if rule.db_size != db_size:
                rule = rule.with_counts(db_size=db_size)
            if thresholds.is_valid(rule):
                new_rules.add(rule)
            elif thresholds.is_near_miss(rule):
                near_misses.append(rule)
        self._commit_rules(report, new_rules, near_misses)

    def _commit_rules(self, report, new_rules: RuleSet,
                      near_misses: list[AssociationRule]) -> None:
        """Install a refreshed rule set; ``report`` may be a
        :class:`MaintenanceReport` or a :class:`BatchReport` (both carry
        the rule-statistics fields)."""
        old_rules = self._rules
        added_keys = new_rules.keys() - old_rules.keys()
        dropped_keys = old_rules.keys() - new_rules.keys()
        report.rules_added = sorted(
            (new_rules.get(key) for key in added_keys),
            key=lambda rule: (rule.kind.value, rule.lhs, rule.rhs))
        report.rules_dropped = sorted(dropped_keys,
                                      key=lambda key: (key[0].value, key[1],
                                                       key[2]))
        report.rules_updated = sum(
            1 for rule in new_rules
            if rule.key not in added_keys and old_rules.get(rule.key) != rule)
        self._rules = new_rules
        self._near_misses = {rule.key: rule for rule in near_misses}
        report.table_size = len(self.table)

    def _finish(self, report: MaintenanceReport) -> None:
        """Post-event validation; timing and failure context land on
        ``report`` so callers can see *which* event broke an invariant."""
        if not self.validate:
            return
        started = time.perf_counter()
        try:
            self.table.check_invariants(
                floor=self.thresholds.keep_count(self.db_size))
        except MaintenanceError as error:
            report.validation_seconds = time.perf_counter() - started
            raise MaintenanceError(
                f"invariant check failed after event {report.event!r} "
                f"(db_size={report.db_size}): "
                f"{error}") from error
        report.validation_seconds = time.perf_counter() - started

    def require_current(self) -> None:
        """Raise the :class:`MaintenanceError` any batch would meet
        when the engine was never mined, or when its relation changed
        outside it (a batch that failed mid-way leaves it so): its
        incremental state is stale until :meth:`mine` runs again."""
        self._require_mined()
        if self.relation.version != self._relation_version:
            raise MaintenanceError(
                "relation was modified outside the engine; incremental "
                "state is stale — re-run mine()")

    def _require_mined(self) -> None:
        if not self._mined:
            raise MaintenanceError(
                "call mine() before using rules or applying updates")

    # -- equivalence with full re-mining ---------------------------------------------

    def signature(self) -> frozenset[RuleSignature]:
        """Vocabulary-independent fingerprint of the current rule set.

        Two engines (e.g. an incrementally maintained one and a fresh
        re-mine of the same relation) agree iff their signatures are
        equal — the comparison the paper's three "Results" sections run.
        """
        return rule_signature(self.rules, self.vocabulary)

    def verify_against_remine(self) -> "VerificationResult":
        """Re-mine the relation from scratch and compare rule sets."""
        from repro.baselines.remine import remine  # local: avoid cycle

        fresh = remine(
            self.relation,
            min_support=self.thresholds.min_support,
            min_confidence=self.thresholds.min_confidence,
            margin=self.thresholds.margin,
            generalizer=self.generalizer,
            max_length=self.max_length,
        )
        mine_signature = self.signature()
        fresh_signature = fresh.signature()
        return VerificationResult(
            equivalent=mine_signature == fresh_signature,
            only_incremental=mine_signature - fresh_signature,
            only_remine=fresh_signature - mine_signature,
        )


class VerificationResult:
    """Outcome of an incremental-vs-remine comparison."""

    def __init__(self, *, equivalent: bool,
                 only_incremental: frozenset[RuleSignature],
                 only_remine: frozenset[RuleSignature]) -> None:
        self.equivalent = equivalent
        self.only_incremental = only_incremental
        self.only_remine = only_remine

    def __bool__(self) -> bool:
        return self.equivalent

    def explain(self) -> str:
        if self.equivalent:
            return "rule sets identical (counts included)"
        return (f"{len(self.only_incremental)} rules only incremental, "
                f"{len(self.only_remine)} rules only in re-mine")
