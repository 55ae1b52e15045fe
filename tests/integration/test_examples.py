"""The shipped examples must run clean end to end.

Each example's ``main()`` is imported and executed with stdout captured;
a broken example is a broken quickstart for every new user, so these run
in the regular suite (the one slow example is downscaled via its module
globals rather than skipped).
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Incremental == full re-mine: True" in out
        assert "==>" in out

    def test_biocuration(self, capsys):
        load_example("biocuration").main()
        out = capsys.readouterr().out
        assert "Incremental state still exact: True" in out
        assert "Invalidation" in out

    def test_file_workflow(self, capsys):
        load_example("file_workflow").main()
        out = capsys.readouterr().out
        assert "Incremental state exact: True" in out
        assert "Wrote" in out

    def test_file_workflow_removes_its_workspace(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        load_example("file_workflow").main()
        assert "Incremental state exact: True" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_serving_quickstart(self, capsys):
        load_example("serving_quickstart").main()
        out = capsys.readouterr().out
        assert "incremental == re-mine: True" in out
        assert "server drained" in out

    @pytest.mark.slow
    def test_incremental_maintenance(self, capsys, monkeypatch):
        module = load_example("incremental_maintenance")
        # Downscale: the example defaults to the full 8000-tuple
        # Figure 16 workload; 1200 tuples keep the shape and the speed.
        from repro.synth import workloads

        monkeypatch.setattr(
            module, "paper_scale",
            lambda: workloads.paper_scale(n_tuples=1200))
        module.main()
        out = capsys.readouterr().out
        assert "identical=True" in out
        assert "reproduced" in out
