"""Unit tests for rule timelines and the Figure 11 direction matrix."""

import pytest

from repro.core.events import AddAnnotations, AddUnannotatedTuples
from repro.core.engine import CorrelationEngine
from repro.core.rules import RuleKind
from repro.core.timeline import Direction, TimelineRecorder
from repro.errors import MaintenanceError
from tests.conftest import make_relation


def recorder_over(rows=None, **thresholds):
    manager = CorrelationEngine(
        make_relation(rows),
        min_support=thresholds.get("min_support", 0.25),
        min_confidence=thresholds.get("min_confidence", 0.6))
    manager.mine()
    return TimelineRecorder(manager)


class TestDirection:
    def test_classification(self):
        assert Direction.of(0.5, 0.6) is Direction.UP
        assert Direction.of(0.5, 0.4) is Direction.DOWN
        assert Direction.of(0.5, 0.5) is Direction.FLAT
        assert Direction.of(0.5, 0.5 + 1e-15) is Direction.FLAT


class TestRecorder:
    def test_requires_mined_manager(self):
        manager = CorrelationEngine(make_relation(), min_support=0.3,
                                    min_confidence=0.6)
        with pytest.raises(MaintenanceError):
            TimelineRecorder(manager)

    def test_initial_snapshot_registers_all_rules(self):
        recorder = recorder_over()
        assert len(recorder.trajectories) == len(recorder.manager.rules)
        for trajectory in recorder.trajectories.values():
            assert trajectory.born_at == 0
            assert trajectory.alive

    def test_apply_records_points(self):
        recorder = recorder_over()
        recorder.apply(AddAnnotations.build([(3, "A")]))
        survivor = next(iter(recorder.living_rules()))
        assert len(survivor.points) == 2
        assert survivor.points[1].event_name == "add-annotations"

    def test_rule_death_recorded(self):
        recorder = recorder_over()
        # Heavy dilution kills every rule.
        recorder.apply(AddUnannotatedTuples.build([("x", "y")] * 60))
        assert recorder.living_rules() == []
        for trajectory in recorder.dead_rules():
            assert trajectory.died_at == 1

    def test_rule_birth_after_event(self):
        recorder = recorder_over()
        before = set(recorder.trajectories)
        recorder.apply(AddAnnotations.build(
            [(tid, "Fresh") for tid in range(6)]))
        born = [trajectory for key, trajectory
                in recorder.trajectories.items() if key not in before]
        assert any(trajectory.born_at == 1 for trajectory in born)

    def test_resurrection_clears_death(self):
        rows = [(("1",), ("A",))] * 3 + [(("2",), ())] * 5
        recorder = recorder_over(rows, min_support=0.3)
        key = next(iter(recorder.trajectories))
        # Kill by dilution, resurrect by deletion.
        recorder.apply(AddUnannotatedTuples.build([("3",)] * 6))
        assert not recorder.trajectory(key).alive
        from repro.core.events import RemoveTuples
        recorder.apply(RemoveTuples.build(range(8, 14)))
        assert recorder.trajectory(key).alive

    def test_statistic_series(self):
        recorder = recorder_over()
        recorder.apply(AddAnnotations.build([(3, "A")]))
        trajectory = next(iter(recorder.living_rules()))
        series = trajectory.statistic_series("support")
        assert len(series) == len(trajectory.points)
        with pytest.raises(MaintenanceError):
            trajectory.statistic_series("lift")

    def test_unknown_key(self):
        recorder = recorder_over()
        with pytest.raises(MaintenanceError):
            recorder.trajectory((RuleKind.DATA_TO_ANNOTATION, (999,), 998))


class TestDirectionMatrix:
    def test_case3_d2a_never_decreases(self):
        """Paper Figure 11: Case 3 cannot lower D2A support/confidence."""
        recorder = recorder_over()
        recorder.apply(AddAnnotations.build([(3, "A"), (5, "A")]))
        matrix = recorder.direction_matrix()
        for statistic in ("support", "confidence"):
            directions = matrix.get(("add-annotations",
                                     RuleKind.DATA_TO_ANNOTATION,
                                     statistic), set())
            assert Direction.DOWN not in directions

    def test_case2_support_never_increases(self):
        recorder = recorder_over()
        recorder.apply(AddUnannotatedTuples.build([("1", "2")] * 3))
        matrix = recorder.direction_matrix()
        for kind in RuleKind:
            directions = matrix.get(("add-unannotated-tuples", kind,
                                     "support"), set())
            assert Direction.UP not in directions

    def test_case2_a2a_confidence_flat(self):
        recorder = recorder_over()
        recorder.apply(AddUnannotatedTuples.build([("9", "9")] * 3))
        directions = recorder.direction_matrix().get(
            ("add-unannotated-tuples",
             RuleKind.ANNOTATION_TO_ANNOTATION, "confidence"), set())
        assert directions <= {Direction.FLAT}

    def test_render_matrix_format(self):
        recorder = recorder_over()
        recorder.apply(AddAnnotations.build([(3, "A")]))
        text = recorder.render_matrix()
        assert "event" in text.splitlines()[0]
        assert "add-annotations" in text
