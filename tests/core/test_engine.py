"""EngineConfig validation and the engine() factory."""

import dataclasses

import pytest

from repro.core.config import EngineConfig
from repro.core.derive import derive_rules
from repro.core.engine import CorrelationEngine, engine
from repro.errors import InvalidThresholdError, MaintenanceError
from tests.conftest import make_relation


class TestEngineConfig:
    def test_bad_fraction_fails_at_construction(self):
        with pytest.raises(InvalidThresholdError):
            EngineConfig(min_support=1.5, min_confidence=0.6)

    @pytest.mark.parametrize("given,missing", [
        ({"min_support": 0.2}, "min_confidence"),
        ({"min_confidence": 0.6}, "min_support"),
    ])
    def test_thresholds_are_required(self, given, missing):
        with pytest.raises(TypeError, match=missing):
            EngineConfig(**given)

    def test_fields(self):
        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "min_support", "min_confidence", "margin", "generalizer",
            "max_length", "validate", "shards"]

    @pytest.mark.parametrize("field", ["max_log_events", "shard_workers",
                                       "sketch_k", "track_candidates"])
    def test_removed_options_fail_at_construction(self, field):
        with pytest.raises(TypeError, match=field):
            EngineConfig(min_support=0.2, min_confidence=0.6,
                         **{field: 2})

    @pytest.mark.parametrize("field,value", [
        ("max_length", 0), ("max_length", 2.5), ("max_length", True),
        ("shards", 0), ("shards", True),
        ("validate", 1),
    ])
    def test_bad_field_value_rejected(self, field, value):
        with pytest.raises(InvalidThresholdError, match=field):
            EngineConfig(min_support=0.2, min_confidence=0.6,
                         **{field: value})

    def test_replace_revalidates(self):
        config = EngineConfig(min_support=0.2, min_confidence=0.6)
        assert config.replace(max_length=4).max_length == 4
        with pytest.raises(InvalidThresholdError):
            config.replace(min_support=0.0)

    def test_config_is_immutable(self):
        config = EngineConfig(min_support=0.2, min_confidence=0.6)
        with pytest.raises(AttributeError):
            config.min_support = 0.5


class TestEngineFactory:
    def test_engine_from_kwargs(self):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6)
        eng.mine()
        assert len(eng.rules) > 0

    def test_engine_from_config_with_overrides(self):
        config = EngineConfig(min_support=0.25, min_confidence=0.6)
        eng = engine(make_relation(), config, max_length=2)
        assert eng.config.max_length == 2
        assert eng.thresholds.min_support == 0.25

    @pytest.mark.parametrize("field", ["backend", "counter"])
    def test_removed_mining_options_fail_at_construction(self, field):
        with pytest.raises(TypeError, match=field):
            engine(make_relation(), min_support=0.2, min_confidence=0.6,
                   **{field: "auto"})

    def test_default_relation_is_empty(self):
        eng = engine(min_support=0.5, min_confidence=0.5)
        assert eng.db_size == 0


class TestCandidatesView:
    """``engine.candidates`` is the engine's own near-miss set: after
    every kind of batch it equals what a fresh derivation over the
    maintained table classifies as near-miss."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_equals_fresh_derivation_after_every_case(self, shards):
        eng = engine(make_relation(), min_support=0.3, min_confidence=0.7,
                     margin=0.5, shards=shards)
        steps = [
            eng.mine,
            lambda: eng.insert_annotated([(("1", "2"), ("A",)),
                                          (("4", "3"), ("B",))]),
            lambda: eng.add_annotations([(3, "A"), (5, "A"), (0, "B")]),
            lambda: eng.remove_annotations([(5, "A"), (1, "B")]),
            lambda: eng.remove_tuples([7, 2]),
        ]
        sizes = []
        for step in steps:
            step()
            _, near_misses = derive_rules(eng.table, eng.thresholds,
                                          eng.db_size)
            assert dict(eng.candidates) == {
                rule.key: rule for rule in near_misses}
            sizes.append(len(eng.candidates))
        assert all(sizes)

    def test_view_is_read_only(self):
        eng = engine(make_relation(), min_support=0.3, min_confidence=0.7,
                     margin=0.5)
        eng.mine()
        [key] = list(eng.candidates)[:1]
        with pytest.raises(TypeError):
            eng.candidates[key] = None
        with pytest.raises(TypeError):
            del eng.candidates[key]


class TestValidationReporting:
    def test_validation_duration_recorded(self):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6,
                     validate=True)
        report = eng.mine()
        assert report.validation_seconds > 0.0
        report = eng.add_annotations([(3, "A")])
        assert report.validation_seconds > 0.0

    def test_validation_off_records_zero(self):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6)
        report = eng.mine()
        assert report.validation_seconds == 0.0

    def test_invariant_failure_carries_event_context(self, monkeypatch):
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6,
                     validate=True)
        eng.mine()

        def broken_check(*, floor=None):
            raise MaintenanceError("closure violated (synthetic)")

        monkeypatch.setattr(eng.table, "check_invariants", broken_check)
        with pytest.raises(MaintenanceError) as excinfo:
            eng.add_annotations([(3, "A")])
        message = str(excinfo.value)
        assert "add-annotations" in message
        assert "db_size=8" in message
        assert "closure violated (synthetic)" in message
        assert isinstance(excinfo.value.__cause__, MaintenanceError)


class TestLifecycleAgainstRemine:
    @pytest.mark.parametrize("max_length", [None, 1, 2])
    def test_every_step_matches_the_paper_pipeline(self, max_length):
        """The paper's three cases plus both removal extensions: after
        each one the engine's table respects ``max_length`` and its
        rules equal a from-scratch hash-tree Apriori re-mine."""
        eng = engine(make_relation(), min_support=0.25, min_confidence=0.6,
                     max_length=max_length, validate=True)
        steps = [
            eng.mine,
            lambda: eng.add_annotations([(3, "A"), (5, "A"), (0, "B")]),
            lambda: eng.insert_annotated([(("1", "2"), ("A",)),
                                          (("4", "3"), ("B",))]),
            lambda: eng.insert_unannotated([("4", "9"), ("1", "9")]),
            lambda: eng.remove_annotations([(5, "A"), (1, "B")]),
            lambda: eng.remove_tuples([7, 2]),
        ]
        for step in steps:
            step()
            if max_length is not None:
                assert max(map(len, eng.table)) <= max_length
            verification = eng.verify_against_remine()
            assert verification.equivalent, verification.explain()
