"""EngineConfig builder, the engine() factory, and the deprecated shim."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import CorrelationEngine, engine
from repro.errors import InvalidThresholdError, MaintenanceError, MiningError
from tests.conftest import make_relation


class TestEngineConfig:
    def test_builder_round_trip(self):
        config = (EngineConfig.builder()
                  .support(0.2)
                  .confidence(0.6)
                  .margin(0.8)
                  .backend("eclat")
                  .max_length(3)
                  .counter("scan")
                  .track_candidates(False)
                  .validate()
                  .build())
        assert config == EngineConfig(
            min_support=0.2, min_confidence=0.6, margin=0.8,
            backend="eclat", max_length=3, counter="scan",
            track_candidates=False, validate=True)

    def test_builder_requires_thresholds(self):
        with pytest.raises(InvalidThresholdError, match="min_confidence"):
            EngineConfig.builder().support(0.2).build()
        with pytest.raises(InvalidThresholdError, match="min_support"):
            EngineConfig.builder().confidence(0.6).build()

    def test_bad_fraction_fails_at_build(self):
        with pytest.raises(InvalidThresholdError):
            EngineConfig.builder().support(1.5).confidence(0.6).build()

    def test_bad_max_length_rejected(self):
        with pytest.raises(InvalidThresholdError):
            EngineConfig(min_support=0.2, min_confidence=0.6, max_length=0)

    def test_replace_revalidates(self):
        config = EngineConfig(min_support=0.2, min_confidence=0.6)
        assert config.replace(backend="fpgrowth").backend == "fpgrowth"
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
        assert eng.backend_name == "apriori-fup"
        assert len(eng.rules) > 0

    def test_engine_from_config_with_overrides(self):
        config = EngineConfig(min_support=0.25, min_confidence=0.6)
        eng = engine(make_relation(), config, backend="eclat")
        assert eng.config.backend == "eclat"
        assert eng.thresholds.min_support == 0.25

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(MiningError, match="unknown mining backend"):
            engine(make_relation(), min_support=0.2, min_confidence=0.6,
                   backend="nope")

    def test_default_relation_is_empty(self):
        eng = engine(min_support=0.5, min_confidence=0.5)
        assert eng.db_size == 0


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
        assert "backend=apriori-fup" in message
        assert "closure violated (synthetic)" in message
        assert isinstance(excinfo.value.__cause__, MaintenanceError)
