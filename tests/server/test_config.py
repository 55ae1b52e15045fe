"""ServerConfig validation and derived knobs."""

import pytest

from repro.errors import ServerError
from repro.server.config import ServerConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.port == 8765
        assert config.max_pending_events == 10_000

    def test_bad_port_rejected(self):
        with pytest.raises(ServerError):
            ServerConfig(port=-1)

    def test_bad_queue_bound_rejected(self):
        with pytest.raises(ServerError):
            ServerConfig(max_pending_events=0)

    def test_bad_watermark_rejected(self):
        with pytest.raises(ServerError):
            ServerConfig(flush_watermark=1.5)

    def test_executor_workers_is_gone(self):
        # Blocking work runs on the connection's thread; there is no
        # pool to size.
        with pytest.raises(TypeError, match="executor_workers"):
            ServerConfig(executor_workers=4)

    def test_bad_retry_window_rejected(self):
        with pytest.raises(ServerError):
            ServerConfig(retry_after_floor=5.0, retry_after_cap=1.0)


class TestDerived:
    def test_flush_trigger_depth(self):
        config = ServerConfig(max_pending_events=100, flush_watermark=0.5)
        assert config.flush_trigger_depth == 50

    def test_trigger_is_at_least_one(self):
        config = ServerConfig(max_pending_events=10,
                              flush_watermark=0.01)
        assert config.flush_trigger_depth == 1

    def test_none_watermark_disables_background_flushing(self):
        assert ServerConfig(flush_watermark=None).flush_trigger_depth \
            is None

    def test_replace(self):
        config = ServerConfig().replace(port=0)
        assert config.port == 0
        assert config.host == ServerConfig().host
