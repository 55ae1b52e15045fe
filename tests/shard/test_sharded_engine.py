"""Unit tests of the sharded engine: layout, views, routing, guards."""

import pytest

from repro.core.config import EngineConfig
from repro.core.audit import audit
from repro.core.engine import CorrelationEngine, engine
from repro.core.events import (
    AddAnnotatedTuples,
    AddAnnotations,
    RemoveAnnotations,
    RemoveTuples,
)
from repro.core import persistence
from repro.errors import InvalidThresholdError, MaintenanceError
from repro.shard import ShardedEngine, modulo_partitioner, partition_relation
from tests.conftest import (
    assert_equivalent_to_remine,
    make_relation,
)

CONFIG = EngineConfig(min_support=0.25, min_confidence=0.6, validate=True)


def sharded(relation=None, shards=3, **overrides):
    manager = ShardedEngine(
        relation if relation is not None else make_relation(),
        CONFIG.replace(shards=shards, **overrides))
    manager.mine()
    return manager


class TestFactoryDispatch:
    def test_factory_builds_sharded_engine_for_sharded_configs(self):
        assert isinstance(engine(make_relation(), CONFIG), CorrelationEngine)
        manager = engine(make_relation(), CONFIG.replace(shards=3))
        assert isinstance(manager, ShardedEngine)
        assert manager.shard_count == 3

    def test_config_rejects_bad_shard_settings(self):
        with pytest.raises(InvalidThresholdError, match="shards"):
            CONFIG.replace(shards=0)

    def test_sharded_engine_rejects_foreign_substrates(self):
        manager = ShardedEngine(make_relation(), CONFIG.replace(shards=2))
        with pytest.raises(MaintenanceError, match="own per-shard"):
            manager.mine(substrate=object())


class TestPartitionLayout:
    def test_partition_maps_are_mutually_inverse(self):
        manager = sharded()
        for tid in manager.relation.tids():
            shard, local = manager.locate(tid)
            assert manager.global_tids(shard)[local] == tid
        total = sum(len(manager.global_tids(shard))
                    for shard in range(manager.shard_count))
        assert total == manager.relation.live_count

    def test_default_layout_is_modulo(self):
        manager = sharded()
        for tid in manager.relation.tids():
            assert manager.shard_of(tid) == tid % manager.shard_count

    def test_partitioner_out_of_range_rejected(self):
        manager = ShardedEngine(make_relation(),
                                CONFIG.replace(shards=2),
                                partitioner=lambda tid: 5)
        with pytest.raises(MaintenanceError, match="outside 0..1"):
            manager.mine()

    def test_tombstones_are_owned_by_no_shard(self):
        relation = make_relation()
        relation.delete(2)
        manager = sharded(relation)
        assert manager.locate(2) is None
        assert manager.database.transaction(2) == frozenset()

    def test_bulk_encode_matches_encode_tuple_with_and_without_schema(self):
        """The bulk encoder must track encode_tuple exactly — including
        the schema-token branch no other shard test exercises."""
        from repro.mining.itemsets import ItemVocabulary
        from repro.relation.schema import Schema
        from repro.relation.relation import AnnotatedRelation
        from repro.relation.transactions import TokenInterner, encode_tuple
        from repro.shard import build_substrate

        schemaless = make_relation()
        schemaful = AnnotatedRelation(Schema(("color", "size")))
        for row in schemaless:
            schemaful.insert(row.values, sorted(row.annotation_ids))
        schemaful.set_labels(1, ["Concept_X"])
        for relation in (schemaless, schemaful):
            fast_vocab = ItemVocabulary()
            substrate = build_substrate(relation,
                                        TokenInterner(fast_vocab))
            slow_vocab = ItemVocabulary()
            for tid in relation.tids():
                expected = encode_tuple(relation, tid, slow_vocab)
                got = substrate.database.transaction(tid)
                as_items = lambda vocab, ids: {
                    (vocab.item(i).kind, vocab.item(i).token) for i in ids}
                assert as_items(fast_vocab, got) == \
                    as_items(slow_vocab, expected)
                if got:
                    assert substrate.index.count(tuple(sorted(got))) >= 1

    def test_partition_relation_renumbers_densely(self):
        relation = make_relation()
        shards, global_of, local_of = partition_relation(
            relation, modulo_partitioner(2), 2)
        assert [shard.live_count for shard in shards] == [4, 4]
        assert global_of[0] == [0, 2, 4, 6]
        assert local_of[6] == (0, 3)
        assert shards[0].tuple(3).values == relation.tuple(6).values

    def test_inserts_extend_the_owning_shard_maps(self):
        manager = sharded()
        before = manager.relation.tid_range
        manager.insert_annotated([(("1", "3"), ("A", "B"))])
        shard, local = manager.locate(before)
        assert shard == before % manager.shard_count
        assert manager.global_tids(shard)[local] == before


class TestGlobalViews:
    def test_index_view_matches_monolithic_index(self):
        relation = make_relation()
        mono = CorrelationEngine(relation.copy(), CONFIG)
        mono.mine()
        manager = sharded(relation.copy())
        for token in ("A", "B"):
            mono_item = mono.vocabulary.find_annotation(token)
            shard_item = manager.vocabulary.find_annotation(token)
            assert manager.index.tids(shard_item) == \
                mono.index.tids(mono_item)
            assert manager.index.frequency(shard_item) == \
                mono.index.frequency(mono_item)
        mono_freq = {mono.vocabulary.item(item).token: count
                     for item, count
                     in mono.index.annotation_frequencies().items()}
        shard_freq = {manager.vocabulary.item(item).token: count
                      for item, count
                      in manager.index.annotation_frequencies().items()}
        assert shard_freq == mono_freq

    def test_database_view_reencodes_every_tuple(self):
        manager = sharded()
        from repro.relation.transactions import encode_tuple

        for tid in range(manager.relation.tid_range):
            expected = (encode_tuple(manager.relation, tid,
                                     manager.vocabulary)
                        if manager.relation.is_live(tid) else frozenset())
            assert manager.database.transaction(tid) == expected
        assert len(manager.database.transactions) == \
            manager.relation.tid_range

    def test_audit_passes_on_a_maintained_sharded_engine(self):
        manager = sharded()
        manager.apply_batch([
            AddAnnotations.build([(3, "A"), (7, "B")]),
            AddAnnotatedTuples.build([(("1", "3"), ("A", "B"))]),
            RemoveAnnotations.build([(1, "B")]),
            RemoveTuples.build([0]),
        ])
        report = audit(manager)
        assert report.consistent, report.summary()


class TestRoutedMaintenance:
    def test_single_event_apply_works(self):
        manager = sharded()
        report = manager.apply(AddAnnotations.build([(3, "A")]))
        assert report.event == "add-annotations"
        assert_equivalent_to_remine(manager)

    def test_batch_report_names_touched_shards(self):
        manager = sharded()
        report = manager.apply_batch([
            AddAnnotations.build([(0, "B"), (1, "A")]),
        ])
        assert 1 <= report.shards_touched <= manager.shard_count
        assert report.events == 1

    def test_elided_insert_consumes_global_and_local_tids(self):
        manager = sharded()
        base = manager.relation.tid_range
        manager.apply_batch([
            AddAnnotatedTuples.build([(("1", "3"), ("A",)),
                                      (("4", "5"), ())]),
            RemoveTuples.build([base]),
        ])
        assert not manager.relation.is_live(base)
        assert manager.relation.is_live(base + 1)
        shard, local = manager.locate(base)
        assert not manager.shard_engines[shard].relation.is_live(local)
        assert_equivalent_to_remine(manager)

    def test_revision_bumps_once_per_batch(self):
        manager = sharded()
        revision = manager.revision
        manager.apply_batch([
            AddAnnotations.build([(3, "A")]),
            AddAnnotations.build([(5, "B")]),
        ])
        assert manager.revision == revision + 1

    def test_catalog_is_memoized_per_revision(self):
        manager = sharded()
        catalog = manager.catalog()
        assert manager.catalog() is catalog
        manager.apply(AddAnnotations.build([(3, "A")]))
        refreshed = manager.catalog()
        assert refreshed is not catalog
        assert refreshed.revision == manager.revision

    def test_out_of_band_mutation_detected(self):
        manager = sharded()
        manager.relation.annotate(0, "B")
        with pytest.raises(MaintenanceError, match="outside the engine"):
            manager.apply(AddAnnotations.build([(1, "A")]))

    def test_remine_repartitions_from_current_state(self):
        manager = sharded()
        manager.apply_batch([AddAnnotatedTuples.build(
            [(("1", "3"), ("A", "B"))] * 3)])
        signature = manager.signature()
        manager.mine()
        assert manager.signature() == signature
        assert_equivalent_to_remine(manager)


class TestExploitationParity:
    """The read views keep every exploitation consumer's answers
    identical to the monolithic engine's."""

    def _pair(self):
        mono = CorrelationEngine(make_relation(), CONFIG)
        mono.mine()
        return mono, sharded()

    def test_recommender_and_removal_scan_agree(self):
        from repro.exploitation.recommender import (
            MissingAnnotationRecommender,
        )
        from repro.exploitation.removal import UnexplainedAnnotationFinder

        mono, manager = self._pair()
        assert (
            sorted((r.tid, r.annotation_id)
                   for r in MissingAnnotationRecommender(manager).scan())
            == sorted((r.tid, r.annotation_id)
                      for r in MissingAnnotationRecommender(mono).scan()))
        assert (
            sorted((s.tid, s.annotation_id)
                   for s in UnexplainedAnnotationFinder(manager).scan())
            == sorted((s.tid, s.annotation_id)
                      for s in UnexplainedAnnotationFinder(mono).scan()))

    def test_recommending_for_an_inserted_tuple_rides_the_database_view(
            self):
        from repro.exploitation.recommender import (
            MissingAnnotationRecommender,
        )

        manager = sharded()
        tid = manager.relation.tid_range
        manager.insert_annotated([(("1", "3"), ())])
        recommended = {
            (r.tid, r.annotation_id)
            for r in MissingAnnotationRecommender(manager).for_tuple(tid)}
        assert (tid, "A") in recommended

    def test_explain_rule_counts_match(self):
        from repro.core.explain import explain_rule

        mono, manager = self._pair()
        for engine_under_test in (mono, manager):
            rule = max(engine_under_test.rules,
                       key=lambda r: (r.confidence, r.support))
            evidence = explain_rule(engine_under_test, rule, max_tids=20)
            assert evidence.rhs_count == \
                engine_under_test.index.frequency(rule.rhs)

    def test_generalized_mining_and_updates_agree(self, tmp_path):
        """Label maintenance (generalizer) stays exact through the
        routed write path — mine and incremental updates both."""
        from repro.app.session import Session
        from tests.app.test_session import DATASET, GENERALIZATIONS, UPDATES

        (tmp_path / "data.txt").write_text(DATASET)
        (tmp_path / "gen.txt").write_text(GENERALIZATIONS)
        (tmp_path / "updates.txt").write_text(UPDATES)
        mined, updated = [], []
        for shards in (1, 3):
            session = Session(shards=shards)
            session.load_dataset(tmp_path / "data.txt")
            session.load_generalizations(tmp_path / "gen.txt")
            session.mine(0.25, 0.6)
            mined.append(session.manager.signature())
            session.add_annotations_from_file(tmp_path / "updates.txt")
            updated.append(session.manager.signature())
            assert_equivalent_to_remine(session.manager)
        assert mined[0] == mined[1]
        assert updated[0] == updated[1]


class TestPersistenceV3:
    def test_sharded_snapshot_round_trips_layout_and_rules(self, tmp_path):
        manager = sharded()
        manager.apply(AddAnnotations.build([(3, "A")]))
        path = tmp_path / "sharded.json"
        persistence.save(manager, path)
        restored = persistence.load(path)
        assert isinstance(restored, ShardedEngine)
        assert restored.shard_count == manager.shard_count
        assert restored.signature() == manager.signature()
        assert restored.revision == manager.revision
        assert restored.assignment() == manager.assignment()

    def test_custom_layout_survives_restore(self):
        relation = make_relation()
        manager = ShardedEngine(relation, CONFIG.replace(shards=2),
                                partitioner=lambda tid: 0 if tid < 6 else 1)
        manager.mine()
        restored = persistence.restore(persistence.snapshot(manager))
        assert restored.assignment() == manager.assignment()
        assert restored.signature() == manager.signature()

    def test_monolithic_snapshots_omit_the_shard_key(self):
        manager = CorrelationEngine(make_relation(), CONFIG)
        manager.mine()
        document = persistence.snapshot(manager)
        assert "shards" not in document
        assert isinstance(persistence.restore(document), CorrelationEngine)

    def test_corrupted_shard_layout_rejected(self):
        document = persistence.snapshot(sharded())
        document["shards"]["assignment"][0] = 99
        from repro.errors import FormatError

        with pytest.raises(FormatError, match="outside 0..2"):
            persistence.restore(document)
        document["shards"] = {"count": 0, "assignment": []}
        with pytest.raises(FormatError, match="invalid count"):
            persistence.restore(document)

    def test_session_status_reports_the_restored_layout(self):
        """A monolithic-default session adopting a sharded snapshot
        must report the snapshot's layout, not its own setting."""
        from repro.app.session import Session

        restored = persistence.restore(persistence.snapshot(sharded()))
        session = Session()  # shards=1 default
        session.restore_snapshot(restored, "(snapshot)")
        assert session.status()["shards"] == 3
        assert Session(shards=2).status()["shards"] == 2  # no manager yet

    def test_mine_rejects_mismatched_substrate(self):
        from repro.core.engine import EncodedSubstrate
        from repro.core.annotation_index import VerticalIndex
        from repro.mining.itemsets import ItemVocabulary, TransactionDatabase

        manager = CorrelationEngine(make_relation(), CONFIG)
        with pytest.raises(MaintenanceError, match="different vocabulary"):
            manager.mine(substrate=EncodedSubstrate(
                database=TransactionDatabase(manager.vocabulary),
                index=VerticalIndex(ItemVocabulary())))

    def test_mine_rejects_misaligned_substrate(self):
        from repro.core.engine import EncodedSubstrate

        manager = CorrelationEngine(make_relation(), CONFIG)
        with pytest.raises(MaintenanceError, match="tid range"):
            manager.mine(substrate=EncodedSubstrate.from_transactions(
                manager.vocabulary, [frozenset()]))

    def test_v2_documents_still_load(self):
        manager = CorrelationEngine(make_relation(), CONFIG)
        manager.mine()
        document = persistence.snapshot(manager)
        document["format_version"] = 2
        restored = persistence.restore(document)
        assert restored.signature() == manager.signature()
