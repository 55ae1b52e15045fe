"""The ``repro serve`` argument parser."""

import pytest

from repro.core.config import EngineConfig
from repro.server.cli import _engine_config, build_parser


def test_default_engine_from_flags():
    args = build_parser().parse_args(["--min-support", "0.3",
                                      "--shards", "2"])
    assert _engine_config(args) == EngineConfig(
        min_support=0.3, min_confidence=0.6, shards=2)


def test_removed_max_log_events_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--max-log-events", "10"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --max-log-events" in \
        capsys.readouterr().err


def test_removed_executor_workers_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["--executor-workers", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --executor-workers" in \
        capsys.readouterr().err
