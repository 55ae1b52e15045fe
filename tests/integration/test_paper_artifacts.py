"""Regeneration of the paper's qualitative artifacts (Figures 4, 7, 14).

These are the file-level outputs a user of the paper's application saw:
the dataset file, the discovered-rules file, and the update batch file.
The tests drive the same flow end to end through the public API.
"""

import io

from repro.app.session import Session
from repro.core.events import AddAnnotations
from repro.core.engine import CorrelationEngine
from repro.io import dataset_format, rules_format, updates_format
from repro.synth import workloads
from repro.synth.generator import generate_annotation_batch
from tests.conftest import assert_equivalent_to_remine


class TestFigure4Dataset:
    def test_generated_dataset_matches_figure4_format(self, tmp_path):
        workload = workloads.dev_scale(n_tuples=50)
        path = tmp_path / "dataset.txt"
        dataset_format.write_dataset(workload.relation, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        for line in lines:
            tokens = line.split()
            data = [token for token in tokens
                    if not token.startswith("Annot_")]
            assert len(data) == 4  # dev workload arity


class TestFigure7Rules:
    def test_rule_file_regenerated(self, tmp_path):
        workload = workloads.dev_scale()
        manager = CorrelationEngine(
            workload.relation, min_support=workload.min_support,
            min_confidence=workload.min_confidence)
        manager.mine()
        path = tmp_path / "rules.txt"
        written = rules_format.write_rules(manager.rules,
                                           manager.vocabulary, path)
        assert written > 0
        for parsed in rules_format.parse_rules(path):
            # Figure 7 semantics: confidence then support, both in [0,1],
            # and every rule satisfies the entered thresholds.
            assert parsed.confidence >= workload.min_confidence - 1e-4
            assert parsed.support >= workload.min_support - 1e-4


class TestFigure14Updates:
    def test_update_file_round_trip_through_manager(self, tmp_path):
        workload = workloads.dev_scale()
        manager = CorrelationEngine(
            workload.relation, min_support=workload.min_support,
            min_confidence=workload.min_confidence)
        manager.mine()
        batch = generate_annotation_batch(workload.relation, size=20,
                                          seed=5)
        path = tmp_path / "updates.txt"
        updates_format.write_updates(AddAnnotations.build(batch), path)
        event = updates_format.read_updates(path)
        manager.apply(event)
        assert_equivalent_to_remine(manager)


class TestApplicationFlow:
    def test_session_replays_paper_workflow(self, tmp_path):
        """Dataset file -> menu mining -> update file -> rules file."""
        workload = workloads.dev_scale(n_tuples=120)
        dataset = tmp_path / "data.txt"
        dataset_format.write_dataset(workload.relation, dataset)

        session = Session()
        session.load_dataset(dataset)
        session.mine(0.3, 0.7)
        rules_before = len(session.manager.rules)

        batch = generate_annotation_batch(session.manager.relation,
                                          size=15, seed=2)
        updates = tmp_path / "updates.txt"
        updates_format.write_updates(AddAnnotations.build(batch), updates)
        session.add_annotations_from_file(updates)

        out = tmp_path / "rules.txt"
        written = session.write_rules(out)
        assert written == len(session.manager.rules)
        assert session.manager.verify_against_remine().equivalent
        assert rules_before >= 0  # flow completed
