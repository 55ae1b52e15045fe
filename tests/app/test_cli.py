"""End-to-end tests for the menu CLI (paper Figure 5 flow)."""

from pathlib import Path

import pytest

from repro.app.cli import CommandLoop, main
from repro.core.engine import CorrelationEngine
from repro.core.events import AddAnnotations
from repro.io import dataset_format, updates_format
from repro.io.rules_format import parse_rules
from repro.synth.generator import generate_annotation_batch
from repro.synth.workloads import dev_scale
from tests.app.test_session import (  # reuse the fixture corpus
    ANNOTATED_TUPLES,
    DATASET,
    GENERALIZATIONS,
    UNANNOTATED_TUPLES,
    UPDATES,
)


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
        paths[name] = str(path)
    return paths


def drive(files, answers, **loop_kwargs):
    """Drive the loop with scripted answers; returns the loop, its
    exit code and the printed lines."""
    answers = iter(answers)
    output = []
    loop = CommandLoop(lambda prompt: next(answers, "0"),
                       output.append, **loop_kwargs)
    code = loop.run(files["data.txt"])
    return loop, code, output


def run_cli(files, answers, **loop_kwargs):
    """Drive the loop with scripted answers; returns printed lines."""
    _, code, output = drive(files, answers, **loop_kwargs)
    return code, output


class TestMenuFlow:
    def test_mine_d2a_and_exit(self, files):
        code, output = run_cli(files, ["1", "0.25", "0.6", "0"])
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "Loaded 8 tuples" in text
        assert "data-to-annotation rule(s)" in text
        assert "==>" in text

    def test_mine_a2a(self, files):
        code, output = run_cli(files, ["2", "0.25", "0.6", "0"])
        text = "\n".join(str(line) for line in output)
        assert "annotation-to-annotation rule(s)" in text

    def test_full_update_cycle(self, files, tmp_path):
        rules_out = str(tmp_path / "rules_out.txt")
        loop, code, output = drive(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],
            "5", files["annotated.txt"],
            "6", files["unannotated.txt"],
            "8", rules_out,
            "9",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "add-annotations" in text
        assert "add-annotated-tuples" in text
        assert "add-unannotated-tuples" in text
        assert "Wrote" in text
        assert "mined: True" in text
        # The menu journey lands on the rules a re-mine of the final
        # database finds, and the Figure 7 file holds every one of them.
        manager = loop.session.manager
        assert manager.verify_against_remine().equivalent
        parsed = list(parse_rules(rules_out))
        assert len(parsed) == len(manager.rules) > 0
        assert all(entry.confidence >= 0.6 - 1e-4 for entry in parsed)

    def test_generalizations_option(self, files):
        code, output = run_cli(files, [
            "3", files["gen.txt"],
            "1", "0.25", "0.6",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "generalization rule(s)" in text

    def test_recommendations_option(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "7", "5",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "recommendation" in text.lower()

    def test_errors_are_reported_not_fatal(self, files):
        code, output = run_cli(files, [
            "4", "does/not/exist.txt",   # update before mining
            "1", "not-a-number", "0.6",  # bad threshold
            "42",                         # unknown option
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "Error:" in text
        assert "Unknown option" in text

    def test_exhausted_script_exits_cleanly(self, files):
        code, _ = run_cli(files, ["1", "0.25", "0.6"])
        assert code == 0


class TestExtendedMenu:
    def test_compressed_rules_option(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "10",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "data-to-annotation" in text

    def test_candidates_option(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "11",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "candidate rules" in text or "margin band" in text

    def test_options_10_to_12_require_mining(self, files):
        code, output = run_cli(files, ["10", "11", "12", "0"])
        text = "\n".join(str(line) for line in output)
        assert text.count("Error: no rules mined yet") == 3

    def test_explain_rule_option(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "14", "1",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "lift" in text
        assert "supports tid=" in text

    def test_explain_rule_bad_number(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "14", "999",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "out of range" in text

    def test_save_and_load_snapshot(self, files, tmp_path):
        state = str(tmp_path / "state.json")
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "12", state,
            "13", state,
            "9",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "Saved session state" in text
        assert "Restored 8 tuples" in text
        assert "mined: True" in text


class TestBatchedUpdates:
    def run_batched(self, files, answers, auto_flush_every):
        answers = iter(answers)
        output = []
        loop = CommandLoop(lambda prompt: next(answers, "0"),
                           output.append,
                           auto_flush_every=auto_flush_every)
        code = loop.run(files["data.txt"])
        return code, output

    def test_updates_queue_until_threshold_then_flush_inline(self, files):
        code, output = self.run_batched(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],      # queued (depth 1)
            "5", files["annotated.txt"],    # depth 2: coalesced flush
            "0",
        ], auto_flush_every=2)
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "Queued (1 pending" in text
        assert "batch of 2 event(s)" in text

    def test_flush_menu_action_drains_the_queue(self, files):
        code, output = self.run_batched(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],
            "16",                            # explicit flush
            "16",                            # nothing left
            "0",
        ], auto_flush_every=10)
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "batch of 1 event(s)" in text
        assert "No updates queued." in text

    def test_poison_update_keeps_valid_prefix_and_tail(self, files,
                                                       tmp_path):
        """A queued update referencing an unknown tuple is isolated:
        the valid updates before it apply, the tail stays queued."""
        poison = tmp_path / "poison.txt"
        poison.write_text("9999: Annot_9\n")
        code, output = self.run_batched(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],      # valid, queued
            "4", str(poison),               # poison, queued
            "4", files["updates.txt"],      # valid, queued
            "16",                            # flush: poison isolated
            "9",
            "0",
        ], auto_flush_every=10)
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "failed on update 2 of 3" in text
        assert "1 applied, 1 re-queued" in text
        assert "pending_updates: 1" in text

    def test_status_reports_queue_depth(self, files):
        code, output = self.run_batched(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],
            "9",
            "0",
        ], auto_flush_every=5)
        text = "\n".join(str(line) for line in output)
        assert "pending_updates: 1" in text
        assert "auto_flush_every: 5" in text


class TestGeneratedFiles:
    """The whole journey over files the generator and the format
    writers produce: a dataset, two δ batches, and a Case 1 and a
    Case 2 tuple file."""

    def test_menu_journey_lands_on_the_library_replay(self, tmp_path):
        relation = dev_scale(n_tuples=120, seed=3).relation
        extra = dev_scale(n_tuples=8, seed=4).relation
        paths = {name: str(tmp_path / name) for name in [
            "data.txt", "updates_01.txt", "updates_02.txt",
            "annotated.txt", "unannotated.txt"]}
        dataset_format.write_dataset(relation, paths["data.txt"])
        dataset_format.write_dataset(extra, paths["annotated.txt"])
        Path(paths["unannotated.txt"]).write_text("".join(
            dataset_format.format_row(row.values, ()) + "\n"
            for row in extra))
        batches = [generate_annotation_batch(relation, size=10, seed=seed)
                   for seed in (1, 2)]
        for number, batch in enumerate(batches, start=1):
            updates_format.write_updates(AddAnnotations.build(batch),
                                         paths[f"updates_0{number}.txt"])

        loop, code, output = drive(paths, [
            "1", "0.3", "0.7",
            "4", paths["updates_01.txt"],
            "4", paths["updates_02.txt"],
            "5", paths["annotated.txt"],
            "6", paths["unannotated.txt"],
            "0",
        ])
        assert code == 0
        assert not any("Error" in str(line) for line in output)

        library = CorrelationEngine(
            dataset_format.read_dataset(paths["data.txt"]),
            min_support=0.3, min_confidence=0.7)
        library.mine()
        for batch in batches:
            library.add_annotations(batch)
        rows = [(row.values, sorted(row.annotation_ids)) for row in extra]
        library.insert_annotated(rows)
        library.insert_unannotated([values for values, _ in rows])
        manager = loop.session.manager
        assert manager.db_size == library.db_size == 120 + 8 + 8
        assert manager.signature() == library.signature()
        assert manager.verify_against_remine().equivalent


class TestMainEntryPoint:
    def test_main_with_commands_file(self, files, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("1\n0.25\n0.6\n0\n")
        code = main([files["data.txt"], "--commands", str(script)])
        captured = capsys.readouterr()
        assert code == 0
        assert "==>" in captured.out

    def test_main_accepts_auto_flush_every(self, files, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("1\n0.25\n0.6\n"
                          f"4\n{files['updates.txt']}\n16\n0\n")
        code = main([files["data.txt"], "--commands", str(script),
                     "--auto-flush-every", "8"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Queued (1 pending" in captured.out
        assert "batch of 1 event(s)" in captured.out

    def test_main_bad_auto_flush_fails_gracefully(self, files, tmp_path,
                                                  capsys):
        script = tmp_path / "ops.txt"
        script.write_text("0\n")
        code = main([files["data.txt"], "--commands", str(script),
                     "--auto-flush-every", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "auto_flush_every" in captured.err

    def test_main_missing_dataset_fails_gracefully(self, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("0\n")
        code = main(["/no/such/dataset.txt", "--commands", str(script)])
        captured = capsys.readouterr()
        assert code == 1
        assert "fatal:" in captured.err

    def test_main_accepts_shards(self, files, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("1\n0.25\n0.6\n9\n0\n")
        code = main([files["data.txt"], "--commands", str(script),
                     "--shards", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "==>" in captured.out
        assert "shards: 3" in captured.out  # status (option 9)

    def test_main_rejects_bad_shards(self, files, tmp_path, capsys):
        script = tmp_path / "ops.txt"
        script.write_text("0\n")
        with pytest.raises(SystemExit):
            main([files["data.txt"], "--commands", str(script),
                  "--shards", "0"])
        assert "--shards must be >= 1" in capsys.readouterr().err


class TestShardedMenuFlow:
    """The full menu drives a sharded manager like a monolithic one."""

    def test_mine_update_recommend_explain_sharded(self, files, tmp_path):
        rules_out = str(tmp_path / "rules_out.txt")
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],
            "7", "5",
            "14", "1",
            "15",
            "8", rules_out,
            "0",
        ], shards=2)
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "data-to-annotation rule(s)" in text
        assert "add-annotations" in text
        assert "lift" in text  # explain served through the shard views
        # The written rule file matches a monolithic session's output.
        _, mono_output = run_cli(files, [
            "1", "0.25", "0.6",
            "4", files["updates.txt"],
            "8", rules_out + ".mono",
            "0",
        ])
        sharded_rules = sorted(open(rules_out).read().splitlines())
        mono_rules = sorted(open(rules_out + ".mono").read().splitlines())
        assert sharded_rules == mono_rules

    def test_snapshot_round_trip_sharded(self, files, tmp_path):
        snap = str(tmp_path / "state.json")
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "12", snap,
            "13", snap,
            "9",
            "0",
        ], shards=3)
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert f"Saved session state to {snap}" in text
        assert "Restored 8 tuples" in text


class TestQueryCommands:
    def test_top_rules_paged(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "17", "confidence", "2", "1",
            "17", "confidence", "2", "2",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert code == 0
        assert "Rules 1..2 of" in text
        assert "Rules 3..4 of" in text
        assert "[confidence" in text

    def test_top_rules_defaults_and_bad_metric(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "17", "", "", "",
            "17", "coolness", "5", "1",
            "17", "canonical", "5", "1",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "best confidence first" in text
        assert "Error: unknown ordering metric 'coolness'" in text
        # "canonical" is a query ordering but not a rule statistic —
        # the menu must reject it instead of crashing on display.
        assert "Error: unknown ordering metric 'canonical'" in text

    def test_top_rules_empty_page(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "17", "lift", "10", "99",
            "17", "lift", "2", "1",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "No rules on page 99" in text
        assert "[lift" in text  # rows annotate the sorted metric

    def test_rules_predicting_an_annotation(self, files):
        code, output = run_cli(files, [
            "1", "0.25", "0.6",
            "18", "Annot_1",
            "18", "Nope",
            "0",
        ])
        text = "\n".join(str(line) for line in output)
        assert "rule(s) predict 'Annot_1'" in text
        assert "==> Annot_1" in text
        assert "No rules predict 'Nope'" in text

    def test_query_commands_need_mined_rules(self, files):
        code, output = run_cli(files, ["17", "0"])
        text = "\n".join(str(line) for line in output)
        assert "Error: no rules mined yet" in text
