"""Unit tests for manager snapshots (save/load)."""

import errno
import json

import pytest

from repro.core import persistence
from repro.core.engine import CorrelationEngine
from repro.core.persistence import load, restore, save, snapshot
from repro.errors import FormatError, MaintenanceError
from repro.relation.annotation import Annotation
from repro.relation.schema import Schema
from repro.relation.relation import AnnotatedRelation
from tests.conftest import make_relation


def mined_manager(relation=None):
    manager = CorrelationEngine(
        relation if relation is not None else make_relation(),
        min_support=0.25, min_confidence=0.6)
    manager.mine()
    return manager


class TestSnapshot:
    def test_unmined_rejected(self):
        manager = CorrelationEngine(make_relation(), min_support=0.3,
                                    min_confidence=0.6)
        with pytest.raises(MaintenanceError):
            snapshot(manager)

    def test_snapshot_is_json_serializable(self):
        document = snapshot(mined_manager())
        json.dumps(document)  # must not raise

    def test_snapshot_records_thresholds_and_tuples(self):
        manager = mined_manager()
        document = snapshot(manager)
        assert document["thresholds"]["min_support"] == 0.25
        assert len(document["tuples"]) == manager.relation.tid_range
        assert document["pattern_table"]


class TestRestore:
    def test_round_trip_preserves_rules(self):
        manager = mined_manager()
        manager.add_annotations([(3, "A")])
        restored = restore(snapshot(manager))
        assert restored.signature() == manager.signature()

    def test_round_trip_preserves_tombstones(self):
        manager = mined_manager()
        manager.remove_tuples([0])
        restored = restore(snapshot(manager))
        assert restored.db_size == manager.db_size
        assert not restored.relation.is_live(0)
        assert restored.signature() == manager.signature()

    def test_round_trip_of_a_relation_with_interior_and_trailing_tombstones(
            self):
        """A restored relation carries its tombstones into the bulk
        encoder of ``mine()``: dead tids, including the last one, must
        stay empty transactions so every later tid keeps its slot."""
        relation = AnnotatedRelation(Schema(["x", "y"]))
        for values, annotations in [(("1", "2"), ("A",)),
                                    (("1", "3"), ("A", "B")),
                                    (("4", "2"), ()),
                                    (("1", "3"), ("A", "B")),
                                    (("4", "3"), ("B",)),
                                    (("1", "2"), ("A",))]:
            relation.insert(values, annotations)
        manager = mined_manager(relation)
        manager.remove_tuples([2, 5])
        restored = restore(snapshot(manager))
        assert restored.relation.tid_range == manager.relation.tid_range
        assert [restored.database.transaction(tid) == frozenset()
                for tid in range(restored.relation.tid_range)] == \
            [not manager.relation.is_live(tid)
             for tid in range(manager.relation.tid_range)]
        assert restored.signature() == manager.signature()
        restored.insert_annotated([(("1", "2"), ("A",))])
        assert restored.verify_against_remine().equivalent

    def test_restored_manager_accepts_updates(self):
        restored = restore(snapshot(mined_manager()))
        restored.add_annotations([(3, "A")])
        assert restored.verify_against_remine().equivalent

    def test_schema_preserved(self):
        relation = AnnotatedRelation(Schema(["g", "t"]))
        relation.insert(("a", "b"), ("Annot_1",))
        relation.insert(("a", "c"), ("Annot_1",))
        restored = restore(snapshot(mined_manager(relation)))
        assert restored.relation.schema == Schema(["g", "t"])

    def test_annotation_metadata_preserved(self):
        relation = make_relation()
        relation.registry.register(
            Annotation("Rich", text="details", category="flag"))
        restored = restore(snapshot(mined_manager(relation)))
        assert restored.relation.registry.get("Rich").text == "details"

    def test_wrong_version_rejected(self):
        document = snapshot(mined_manager())
        document["format_version"] = 99
        with pytest.raises(FormatError):
            restore(document)

    def test_corrupted_table_detected(self):
        document = snapshot(mined_manager())
        document["pattern_table"][0]["count"] += 1
        with pytest.raises(FormatError):
            restore(document)

    def test_unknown_item_detected(self):
        document = snapshot(mined_manager())
        document["pattern_table"][0]["items"] = [["data", "ghost"]]
        with pytest.raises(FormatError):
            restore(document)


class TestFiles:
    def test_save_and_load(self, tmp_path):
        manager = mined_manager()
        path = tmp_path / "state.json"
        save(manager, path)
        restored = load(path)
        assert restored.signature() == manager.signature()
        assert restored.thresholds == manager.thresholds

    def test_a_failed_save_leaves_the_previous_file_intact(
            self, tmp_path, monkeypatch):
        """A save that dies mid-write (here: the disk fills after the
        first 100 characters) must not tear the snapshot it replaces."""
        manager = mined_manager()
        path = tmp_path / "state.json"
        save(manager, path)
        before = path.read_bytes()
        manager.add_annotations([(1, "B")])

        real_open = open

        def filling_open(file, mode="r", **kwargs):
            handle = real_open(file, mode, **kwargs)
            if "w" in mode:
                real_write = handle.write
                written = 0

                def write(text):
                    nonlocal written
                    if written > 100:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    written += len(text)
                    return real_write(text)

                handle.write = write
            return handle

        monkeypatch.setattr(persistence, "open", filling_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save(manager, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["state.json"]
        assert json.loads(before) != snapshot(manager)


class TestRevisionRoundTrip:
    """Format v2: engine revision + catalog stats survive save/load."""

    def test_snapshot_records_revision_and_catalog_stats(self):
        manager = mined_manager()
        manager.add_annotations([(3, "A")])
        document = snapshot(manager)
        assert document["format_version"] == 4
        assert document["engine_revision"] == manager.revision == 2
        stats = document["catalog"]
        assert stats == manager.catalog().stats.as_dict()
        assert stats["rule_count"] == len(manager.rules)

    def test_restore_adopts_revision_and_warms_the_catalog(self):
        manager = mined_manager()
        manager.add_annotations([(3, "A")])
        manager.add_annotations([(5, "B")])
        restored = restore(snapshot(manager))
        assert restored.revision == manager.revision == 3
        catalog = restored.catalog()
        assert catalog.revision == 3
        assert catalog.stats == manager.catalog().stats
        # Warm: the restore itself built it; the first read is a hit.
        assert restored.catalog() is catalog

    def test_restore_rejects_corrupted_catalog_stats(self):
        document = snapshot(mined_manager())
        document["catalog"]["rule_count"] += 1
        with pytest.raises(FormatError, match="catalog stats disagree"):
            restore(document)

    def test_restore_rejects_truncated_catalog_stats(self):
        document = snapshot(mined_manager())
        del document["catalog"]["rule_count"]
        with pytest.raises(FormatError, match="catalog stats disagree"):
            restore(document)
        document["catalog"] = {}
        with pytest.raises(FormatError, match="catalog stats disagree"):
            restore(document)

    def test_restore_rejects_v2_documents_missing_the_new_keys(self):
        for key in ("engine_revision", "catalog"):
            document = snapshot(mined_manager())
            del document[key]
            with pytest.raises(FormatError, match="missing its"):
                restore(document)

    def test_restore_tolerates_future_catalog_stats(self):
        document = snapshot(mined_manager())
        document["catalog"]["stat_from_the_future"] = 7
        restored = restore(document)
        assert restored.revision == document["engine_revision"]

    def test_version_1_documents_still_load(self):
        manager = mined_manager()
        document = snapshot(manager)
        document["format_version"] = 1
        del document["engine_revision"]
        del document["catalog"]
        restored = restore(document)
        assert restored.signature() == manager.signature()
        assert restored.revision == 1  # just the restore's own mine()
