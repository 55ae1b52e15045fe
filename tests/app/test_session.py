"""Unit tests for the application session."""

import pytest

from repro.app.session import Session
from repro.core.rules import RuleKind
from repro.errors import MaintenanceError, SessionError
from tests.app.test_commit_path import fail_next_refresh

DATASET = """\
1 2 Annot_1
1 3 Annot_1 Annot_2
1 2 Annot_1
4 2
1 3 Annot_1 Annot_2
4 3 Annot_2
1 5 Annot_1
4 5
"""

GENERALIZATIONS = """\
Concept_X <= Annot_1 | Annot_2
"""

UPDATES = "3: Annot_1\n7: Annot_2\n"

ANNOTATED_TUPLES = "1 2 Annot_1\n9 9 Annot_3\n"

UNANNOTATED_TUPLES = "6 7\n8 9\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in [
        ("data.txt", DATASET),
        ("gen.txt", GENERALIZATIONS),
        ("updates.txt", UPDATES),
        ("annotated.txt", ANNOTATED_TUPLES),
        ("unannotated.txt", UNANNOTATED_TUPLES),
    ]:
        path = tmp_path / name
        path.write_text(content)
        paths[name] = path
    return paths


@pytest.fixture
def session(files):
    session = Session()
    session.load_dataset(files["data.txt"])
    return session


class TestTransitions:
    def test_mine_before_load_rejected(self):
        with pytest.raises(SessionError):
            Session().mine(0.3, 0.7)

    def test_updates_before_mine_rejected(self, session, files):
        with pytest.raises(SessionError):
            session.add_annotations_from_file(files["updates.txt"])

    def test_load_resets_manager(self, session, files):
        session.mine(0.3, 0.7)
        session.load_dataset(files["data.txt"])
        with pytest.raises(SessionError):
            session.write_rules("unused.txt")


class TestMining:
    def test_load_and_mine(self, session):
        report = session.mine(0.25, 0.6)
        assert report.event == "mine"
        assert session.rules_of_kind(RuleKind.DATA_TO_ANNOTATION)
        assert session.rules_of_kind(RuleKind.ANNOTATION_TO_ANNOTATION)

    def test_rules_sorted_by_confidence(self, session):
        session.mine(0.25, 0.6)
        rules = session.rules_of_kind(RuleKind.DATA_TO_ANNOTATION)
        confidences = [rule.confidence for rule in rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_remine_with_new_thresholds(self, session):
        session.mine(0.25, 0.6)
        loose = len(session.manager.rules)
        session.mine(0.5, 0.9)
        strict = len(session.manager.rules)
        assert strict <= loose


class TestUpdates:
    def test_annotation_updates(self, session, files):
        session.mine(0.25, 0.6)
        report = session.add_annotations_from_file(files["updates.txt"])
        assert report.event == "add-annotations"
        assert session.manager.relation.tuple(3).has_annotation("Annot_1")

    def test_annotated_tuples(self, session, files):
        session.mine(0.25, 0.6)
        report = session.add_annotated_tuples_from_file(
            files["annotated.txt"])
        assert report.event == "add-annotated-tuples"
        assert session.manager.db_size == 10

    def test_unannotated_tuples(self, session, files):
        session.mine(0.25, 0.6)
        report = session.add_unannotated_tuples_from_file(
            files["unannotated.txt"])
        assert report.event == "add-unannotated-tuples"

    def test_annotated_rows_in_unannotated_file_rejected(self, session,
                                                         files):
        session.mine(0.25, 0.6)
        with pytest.raises(SessionError):
            session.add_unannotated_tuples_from_file(files["annotated.txt"])

    def test_empty_update_file_rejected(self, session, tmp_path):
        session.mine(0.25, 0.6)
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        with pytest.raises(SessionError):
            session.add_annotated_tuples_from_file(empty)


class TestGeneralization:
    def test_load_generalizations_resets_mining(self, session, files):
        session.mine(0.25, 0.6)
        count = session.load_generalizations(files["gen.txt"])
        assert count == 1
        with pytest.raises(SessionError):
            session.write_rules("unused.txt")
        session.mine(0.25, 0.6)
        tokens = {
            session.manager.vocabulary.item(rule.rhs).token
            for rule in session.manager.rules
        }
        assert "Concept_X" in tokens


class TestOutputs:
    def test_write_rules(self, session, tmp_path):
        session.mine(0.25, 0.6)
        out = tmp_path / "rules.txt"
        written = session.write_rules(out)
        assert written == len(session.manager.rules)
        assert out.read_text().count("==>") == written

    def test_write_rules_by_kind(self, session, tmp_path):
        session.mine(0.25, 0.6)
        out = tmp_path / "d2a.txt"
        written = session.write_rules(out, kind=RuleKind.DATA_TO_ANNOTATION)
        assert written == len(session.rules_of_kind(
            RuleKind.DATA_TO_ANNOTATION))

    def test_recommendations(self, session):
        session.mine(0.25, 0.6)
        recommendations = session.recommendations(limit=5)
        assert len(recommendations) <= 5

    def test_status_progression(self, session):
        status = session.status()
        assert status["mined"] is False and status["tuples"] == 8
        session.mine(0.25, 0.6)
        status = session.status()
        assert status["mined"] is True
        assert status["rules"] == status["d2a_rules"] + status["a2a_rules"]


class TestRuleQueries:
    """Menu options 17/18 behind the session API: catalog-served."""

    @pytest.fixture
    def mined(self, session):
        session.mine(0.25, 0.6)
        return session

    def test_catalog_memoized_until_update(self, mined, files):
        catalog = mined.catalog()
        assert mined.catalog() is catalog
        mined.add_annotations_from_file(files["updates.txt"])
        assert mined.catalog() is not catalog

    def test_top_rules_ordering(self, mined):
        top = mined.top_rules(3, by="confidence")
        assert len(top) == 3
        assert top[0].confidence >= top[1].confidence >= top[2].confidence
        by_lift = mined.top_rules(2, by="lift")
        assert by_lift == list(mined.catalog().top(2, by="lift"))

    def test_rules_page_partitions_the_listing(self, mined):
        total = len(mined.manager.rules)
        pages = []
        offset = 0
        while True:
            page = mined.rules_page(offset=offset, limit=2, by="support")
            if not page:
                break
            pages.extend(page)
            offset += 2
        assert len(pages) == total
        assert pages == list(mined.catalog().ordered_by("support"))

    def test_rules_for_annotation(self, mined):
        rules = mined.rules_for_annotation("Annot_1")
        assert rules
        annot_1 = mined.manager.vocabulary.find_annotation("Annot_1")
        assert all(rule.rhs == annot_1 for rule in rules)
        confidences = [rule.confidence for rule in rules]
        assert confidences == sorted(confidences, reverse=True)
        assert mined.rules_for_annotation("Annot_1", limit=1) == rules[:1]
        assert mined.rules_for_annotation("NoSuchAnnotation") == []
        assert mined.rules_for_annotation("") == []

    def test_queries_require_a_mined_manager(self, session):
        with pytest.raises(SessionError):
            session.top_rules(3)
        with pytest.raises(SessionError):
            session.rules_for_annotation("Annot_1")

    def test_status_reports_revision(self, mined, files):
        assert mined.status()["revision"] == 1
        mined.add_annotations_from_file(files["updates.txt"])
        assert mined.status()["revision"] == 2

    def test_rules_for_a_generalization_label(self, session, files):
        from repro.mining.itemsets import Item, ItemKind

        session.load_generalizations(files["gen.txt"])
        session.mine(0.25, 0.6)
        rules = session.rules_for_annotation("Concept_X")
        assert rules, "expected rules predicting the label"
        label_id = session.manager.vocabulary.id_of(
            Item(ItemKind.LABEL, "Concept_X"))
        assert all(rule.rhs == label_id for rule in rules)


class TestSnapshotRestore:
    """Menu option 13: a restored engine replaces the session's state."""

    def test_restore_drops_the_replaced_generalizer_and_phases(
            self, session, files, tmp_path):
        from repro.core import persistence

        session.load_generalizations(files["gen.txt"])
        session.mine(0.25, 0.6)
        assert session.last_phases
        path = tmp_path / "snapshot.json"
        persistence.save(session.manager, path)
        restored = persistence.load(path)
        session.restore_snapshot(restored, str(path))
        assert session.generalizer is None
        status = session.status()
        assert status["generalizations"] is False
        assert "last_phases" not in status
        # The next mine uses the restored engine's (absent) generalizer,
        # not one built on the replaced relation's registry.
        session.mine(0.25, 0.6)
        assert session.manager.generalizer is None
        assert session.manager.verify_against_remine().equivalent

    def test_restore_adopts_the_restored_engines_generalizer(
            self, session, files, tmp_path):
        from repro.core import persistence

        session.load_generalizations(files["gen.txt"])
        session.mine(0.25, 0.6)
        generalizer = session.generalizer
        path = tmp_path / "snapshot.json"
        persistence.save(session.manager, path)
        restored = persistence.load(path, generalizer=generalizer)
        fresh = Session()
        fresh.restore_snapshot(restored, str(path))
        assert fresh.generalizer is generalizer
        assert fresh.status()["generalizations"] is True


class TestQueuedFlush:
    @pytest.fixture
    def queued(self, files):
        session = Session(auto_flush_every=10)
        session.load_dataset(files["data.txt"])
        session.mine(0.25, 0.6)
        return session

    def test_poison_update_splits_the_batch(self, queued, files, tmp_path):
        poison = tmp_path / "poison.txt"
        poison.write_text("9999: Annot_9\n")
        queued.add_annotations_from_file(files["updates.txt"])
        queued.add_annotations_from_file(poison)
        queued.add_annotations_from_file(files["updates.txt"])
        revision = queued.manager.revision
        with pytest.raises(SessionError, match="update 2 of 3"):
            queued.flush()
        assert queued.manager.revision == revision + 1
        assert queued.pending() == 1
        queued.flush()
        assert queued.manager.verify_against_remine().equivalent

    def test_an_empty_flush_after_a_failed_flush_raises_stale(
            self, queued, files, monkeypatch):
        fail_next_refresh(monkeypatch, queued.manager)
        queued.add_annotations_from_file(files["updates.txt"])
        with pytest.raises(RuntimeError, match="injected"):
            queued.flush()
        assert queued.pending() == 0
        with pytest.raises(MaintenanceError, match="stale"):
            queued.flush()
        queued.mine(0.25, 0.6)
        assert queued.flush() is None
        assert queued.manager.verify_against_remine().equivalent

    def test_a_stale_engine_requeues_the_whole_batch(self, queued, files):
        queued.add_annotations_from_file(files["updates.txt"])
        queued.add_annotations_from_file(files["updates.txt"])
        batch = list(queued.pending_updates)
        queued.relation.insert(["1", "2"], ["Annot_1"])  # behind its back
        with pytest.raises(MaintenanceError, match="stale"):
            queued.flush()
        assert queued.pending_updates == batch
