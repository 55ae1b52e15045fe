"""The sharded correlation engine: partitioned mining with exact merge.

:class:`ShardedEngine` is a drop-in :class:`~repro.core.engine.CorrelationEngine`
whose relation is hash-partitioned by tid into N shard-local engines.
Each shard maintains its own substrate (relation slice, transaction
store, bitmap index, pattern table) with the ordinary engine machinery
but derives no rules of its own; the sharded engine owns the *global*
state every consumer reads — the authoritative relation, the merged
pattern table, the rule set, the revision counter and the catalog —
plus tid-translating views
(:mod:`repro.shard.views`) standing in for the monolithic
``engine.index`` / ``engine.database`` attributes.

Exactness comes from the SON partitioning argument
(:mod:`repro.mining.son`): every globally frequent pattern is locally
frequent in at least one shard, so the union of the shard tables is a
complete candidate set and one exact counting pass over the shard
bitmap indexes rebuilds the monolithic table entry for entry.  Because
each shard engine's incremental maintenance is itself exact, the same
merge stays exact after every routed update batch — a sharded engine's
rules and ``signature()`` are byte-identical to a monolithic engine's
at every point of any event stream.

Lifecycle:

* :meth:`mine` — partition, bulk-encode each shard's transactions in
  one sequential interning pass (:func:`repro.shard.partition.encode_shards`;
  interning order is what keeps vocabulary ids deterministic), build
  each shard's substrate, run the phase-1 vertical searches one shard
  after another, then the exact phase-2 merge;
* :meth:`apply_batch` (inherited) — compiles the global delta plan
  with all the usual guards; the overridden plan application routes
  per-shard sub-plans (:func:`repro.core.deltas.split_plan`) through
  each touched shard's own incremental maintenance, then one global
  re-merge and one revision bump.

Every report carries a :class:`~repro.core.maintenance.PhaseTimings`
breakdown (partition / encode / build / mine / merge / refresh) so the
benchmarks can attribute scaling to phases instead of one opaque total.
"""

from __future__ import annotations

import time

from repro.core.config import EngineConfig
from repro.core.deltas import DeltaPlan, split_plan
from repro.core.engine import CorrelationEngine, EncodedSubstrate
from repro.core.maintenance import (
    BatchReport,
    MaintenanceReport,
    PhaseTimings,
)
from repro.errors import MaintenanceError
from repro.mining.son import candidate_union, merge_counts
from repro.relation.relation import AnnotatedRelation
from repro.shard.partition import (
    Partitioner,
    encode_shards,
    modulo_partitioner,
    partition_relation,
)
from repro.shard.views import ShardDatabaseView, ShardIndexView


class _ShardEngine(CorrelationEngine):
    """A shard-local engine: it keeps its substrate and pattern table
    exact and derives no rules.  Only the rules of the merged global
    table are served, so shard-local derivation would be thrown away."""

    def _refresh_rules(self, report) -> None:
        pass

    def _refresh_rules_scoped(self, report, dirty) -> None:
        pass


class ShardedEngine(CorrelationEngine):
    """Partitioned engines behind the monolithic engine's interface."""

    def __init__(self,
                 relation: AnnotatedRelation | None = None,
                 config: EngineConfig | None = None,
                 *,
                 partitioner: Partitioner | None = None,
                 **overrides) -> None:
        super().__init__(relation, config, **overrides)
        self.shard_count = self.config.shards
        self._partitioner = (partitioner if partitioner is not None
                             else modulo_partitioner(self.shard_count))
        self._shards: list[CorrelationEngine] = []
        #: shard -> local tid -> global tid (dense, grows with inserts).
        self._global_of: list[list[int]] = []
        #: global tid -> (shard, local tid); tombstones at partition
        #: time are owned by no shard and absent here.
        self._local_of: dict[int, tuple[int, int]] = {}
        # Global read views over the partitions, standing in for the
        # monolithic engine's maintained substrate attributes.
        self.index = ShardIndexView(self)
        self.database = ShardDatabaseView(self)

    # -- partition accessors (views and tests read these) ----------------------

    @property
    def shard_engines(self) -> list[CorrelationEngine]:
        """The shard-local engines, in shard order."""
        return self._shards

    def global_tids(self, shard: int) -> list[int]:
        """Local-tid -> global-tid map of one shard."""
        return self._global_of[shard]

    def locate(self, tid: int) -> tuple[int, int] | None:
        """(shard, local tid) owning a global tid; ``None`` for tuples
        no shard owns (tombstoned before partitioning)."""
        return self._local_of.get(tid)

    def shard_of(self, tid: int) -> int | None:
        located = self._local_of.get(tid)
        return located[0] if located is not None else None

    def assignment(self) -> list[int | None]:
        """Shard owning each global tid (``None`` = unowned), indexed
        by tid — the persistence format's shard layout."""
        out: list[int | None] = [None] * self.relation.tid_range
        for tid, (shard, _local) in self._local_of.items():
            out[tid] = shard
        return out

    def _shard_config(self) -> EngineConfig:
        """Shard engines are monolithic engines (minus rule derivation)."""
        return self.config.replace(shards=1)

    # -- initial (partitioned) mining -------------------------------------------

    def mine(self, *, substrate=None) -> MaintenanceReport:
        """Partition, mine every shard, merge exactly."""
        if substrate is not None:
            raise MaintenanceError(
                "a sharded engine builds its own per-shard substrates")
        started = time.perf_counter()
        phases = PhaseTimings()
        with phases.timed("partition"):
            self._apply_generalizer()
            relations, self._global_of, self._local_of = partition_relation(
                self.relation, self._partitioner, self.shard_count)
            self._shards = [
                _ShardEngine(shard_relation, self._shard_config(),
                                  vocabulary=self.vocabulary)
                for shard_relation in relations
            ]
        # All interning happens in this pass; the builds and phase-1
        # mines below only read the shared vocabulary.
        with phases.timed("encode"):
            encoded_per_shard = encode_shards(relations, self.vocabulary)

        with phases.timed("build"):
            substrates = [
                EncodedSubstrate.from_encoded(self.vocabulary, encoded)
                for encoded in encoded_per_shard
            ]
        with phases.timed("mine"):
            reports = [
                shard_engine.mine(substrate=shard_substrate)
                for shard_engine, shard_substrate
                in zip(self._shards, substrates)
            ]
        phases.record_shards(
            "mine", [shard_report.duration_seconds for shard_report in reports])

        self._mined = True
        self._relation_version = self.relation.version
        report = MaintenanceReport(event="mine", db_size=self.db_size,
                                   phases=phases)
        self._merge(report)
        self._revision += 1
        report.duration_seconds = time.perf_counter() - started
        self._finish(report)
        return report

    # -- the SON merge ----------------------------------------------------------

    def _merge(self, report) -> None:
        """Rebuild the global table from the shard states and re-derive
        the global rules (phase 2 of the SON protocol).  ``report`` is
        a :class:`MaintenanceReport` or :class:`BatchReport`."""
        with report.phases.timed("merge"):
            floor = self.thresholds.keep_count(self.db_size)
            union = candidate_union(
                shard.table for shard in self._shards)
            shard_indexes = [shard.index.as_mapping()
                             for shard in self._shards]
            merged = merge_counts(union, shard_indexes, floor=floor)
            self.table.replace(merged)
        with report.phases.timed("refresh"):
            self._refresh_rules(report)

    # -- routed incremental maintenance ------------------------------------------

    def _apply_plan(self, plan: DeltaPlan) -> BatchReport:
        """Split the compiled plan into per-shard sub-plans, apply the
        global relation mutation once, run each touched shard's own
        batch through its dirty-scoped maintenance, then one global
        re-merge and revision bump.  The inherited :meth:`apply_batch` already
        compiled and validated the plan against the global relation."""
        started = time.perf_counter()
        batch = BatchReport(db_size=self.db_size)
        batch.audits = list(plan.audits)
        batch.plan_stats = plan.stats
        if len(plan.audits) == 1:
            batch.event = plan.audits[0].event
        else:
            batch.event = f"apply-batch[{len(plan.audits)}]"

        with batch.phases.timed("partition"):
            sub_plans, placements = split_plan(
                plan,
                locate=self._locate_existing,
                place=self._partitioner,
                next_local_tid=lambda shard: (
                    self._shards[shard].relation.tid_range),
                shard_count=self.shard_count,
            )
            self._apply_plan_to_relation(plan)
            for placement in placements:
                if placement.local_tid != len(
                        self._global_of[placement.shard]):
                    raise MaintenanceError(
                        f"local tid drift on shard {placement.shard}: "
                        f"placement says {placement.local_tid}, map says "
                        f"{len(self._global_of[placement.shard])}")
                self._global_of[placement.shard].append(placement.tid)
                self._local_of[placement.tid] = (placement.shard,
                                                 placement.local_tid)

        with batch.phases.timed("apply"):
            for shard, events in enumerate(sub_plans):
                if not events:
                    continue
                shard_report = self._shards[shard].apply_batch(events)
                batch.shards_touched += 1
                batch.case_reports.extend(shard_report.case_reports)
                batch.patterns_dirty += shard_report.patterns_dirty

        batch.db_size = self.db_size
        self._merge(batch)
        self._revision += 1
        batch.duration_seconds = time.perf_counter() - started
        self._finish(batch)
        self._relation_version = self.relation.version
        return batch

    def _locate_existing(self, tid: int) -> tuple[int, int]:
        located = self._local_of.get(tid)
        if located is None:
            # The plan compiler only routes ops against live tuples,
            # and every live tuple is owned by a shard.
            raise MaintenanceError(
                f"tuple {tid} is owned by no shard — partition maps "
                f"desynchronized from the relation")
        return located

    def _apply_plan_to_relation(self, plan: DeltaPlan) -> None:
        """Mirror of the monolithic plan application's *relation*
        mutations (no substrate work — the shards own that), so the
        authoritative global relation every reader sees stays exactly
        in step with per-event application.

        Must stay behaviourally in lockstep with the relation halves of
        ``CorrelationEngine._plan_inserts`` / ``_plan_annotation_adds``
        / ``_plan_annotation_removes`` / ``_plan_tuple_removals``
        (``set_labels``/``add_labels`` are no-op-safe, so the
        unconditional label mirrors here are equivalent to the guarded
        monolithic ones).  Drift desynchronizes the global relation
        from the shard relations and is caught by the differential
        suite's remine-equivalence checks and the audit parity test —
        both re-derive expectations from this relation.
        """
        relation = self.relation
        for planned in plan.inserts:
            tid = relation.insert(planned.values,
                                  sorted(planned.annotations))
            if tid != planned.tid:
                raise MaintenanceError(
                    f"tid drift: plan says {planned.tid}, "
                    f"relation says {tid}")
            if planned.elided:
                relation.delete(tid)
                continue
            if self.generalizer is not None:
                relation.set_labels(
                    tid,
                    self.generalizer.labels_for(
                        frozenset(planned.annotations)))
        for tid, annotation_ids in plan.annotation_adds.items():
            for annotation_id in annotation_ids:
                relation.annotate(tid, annotation_id)
            if self.generalizer is not None:
                row = relation.tuple(tid)
                relation.add_labels(
                    tid, self.generalizer.labels_for(row.annotation_ids))
        for tid, annotation_ids in plan.annotation_removes.items():
            for annotation_id in annotation_ids:
                relation.detach(tid, annotation_id)
            if self.generalizer is not None:
                row = relation.tuple(tid)
                relation.set_labels(
                    tid, self.generalizer.labels_for(row.annotation_ids))
        for tid in plan.deletions:
            relation.delete(tid)

    # -- verification -------------------------------------------------------------

    def _finish(self, report) -> None:
        """Inherited table validation plus the partition-sum invariant:
        the shards' live tuples must account for exactly the global
        relation's."""
        if self.validate and self._shards:
            shard_total = sum(shard.db_size for shard in self._shards)
            if shard_total != self.db_size:
                raise MaintenanceError(
                    f"shard live counts sum to {shard_total} but the "
                    f"global relation holds {self.db_size} after event "
                    f"{report.event!r}")
        super()._finish(report)
