"""Unit tests for experiment kits (generation + replay)."""

import pytest

from repro.io import dataset_format, updates_format
from repro.io.generalization_format import parse_generalization_rules
from repro.synth.trace import KitConfig, main, replay_kit, write_kit


class TestWriteKit:
    def test_kit_files_exist(self, tmp_path):
        paths = write_kit(tmp_path / "kit", KitConfig(n_tuples=80))
        assert paths.dataset.exists()
        assert paths.manifest.exists()
        assert len(paths.updates) == 3
        assert paths.annotated_tuples.exists()
        assert paths.unannotated_tuples.exists()
        assert paths.generalizations is not None

    def test_kit_is_deterministic(self, tmp_path):
        first = write_kit(tmp_path / "a", KitConfig(n_tuples=60, seed=3))
        second = write_kit(tmp_path / "b", KitConfig(n_tuples=60, seed=3))
        assert first.dataset.read_text() == second.dataset.read_text()
        for left, right in zip(first.updates, second.updates):
            assert left.read_text() == right.read_text()

    def test_seed_changes_kit(self, tmp_path):
        first = write_kit(tmp_path / "a", KitConfig(n_tuples=60, seed=1))
        second = write_kit(tmp_path / "b", KitConfig(n_tuples=60, seed=2))
        assert first.dataset.read_text() != second.dataset.read_text()

    def test_all_files_parse(self, tmp_path):
        paths = write_kit(tmp_path / "kit", KitConfig(n_tuples=50))
        relation = dataset_format.read_dataset(paths.dataset)
        assert len(relation) == 50
        for update in paths.updates:
            event = updates_format.read_updates(update)
            for tid, _annotation in event.additions:
                assert 0 <= tid < len(relation)
        rules, hierarchy = parse_generalization_rules(paths.generalizations)
        assert len(rules) >= 1 and hierarchy is not None

    def test_update_batches_never_duplicate_pairs(self, tmp_path):
        paths = write_kit(tmp_path / "kit",
                          KitConfig(n_tuples=50, update_batches=4))
        seen = set()
        for update in paths.updates:
            for pair in updates_format.read_pairs(update):
                assert pair not in seen
                seen.add(pair)

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_kit(tmp_path / "kit", KitConfig(workload="galactic"))


class TestReplay:
    def test_replay_applies_everything_exactly(self, tmp_path):
        paths = write_kit(tmp_path / "kit",
                          KitConfig(n_tuples=80, insert_rows=10))
        manager = replay_kit(paths, min_support=0.3, min_confidence=0.7)
        assert manager.db_size == 80 + 10 + 10
        # The mine, the batches and the two insert events.
        assert manager.revision == 1 + 3 + 2
        assert manager.verify_against_remine().equivalent


class TestCli:
    def test_main_writes_kit(self, tmp_path, capsys):
        code = main([str(tmp_path / "kit"), "--tuples", "40",
                     "--batches", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kit written to" in out
        assert "workload: dev-scale" in out
        assert (tmp_path / "kit" / "updates_02.txt").exists()
