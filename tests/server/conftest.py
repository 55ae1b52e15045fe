"""Shared serving-tier fixtures: a real server on a real socket.

The server accepts on its own threads; the tests drive it with
blocking ``http.client`` calls from the test thread — which doubles as
proof that the wire format interoperates with stdlib clients.
"""

import http.client
import json

import pytest

from repro.core.config import EngineConfig
from repro.server import CorrelationServer, ServerConfig

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)

#: Four-row corpus shared by most tests (same shape as the app-layer
#: reference rows: two columns, annotation tokens A/B/...).
ROWS = [
    [["a", "x"], ["A1"]],
    [["a", "y"], ["A1"]],
    [["b", "x"], ["A2"]],
    [["a", "x"], ["A1", "A2"]],
]


class ServerThread:
    """A live CorrelationServer on an ephemeral port."""

    def __init__(self, config: ServerConfig) -> None:
        self.server = CorrelationServer(config)

    def start(self) -> "ServerThread":
        self.server.start()
        return self

    def stop(self) -> None:
        """Graceful drain (idempotent)."""
        self.server.shutdown()

    @property
    def port(self) -> int:
        return self.server.port

    def request(self, method: str, path: str, body=None, *,
                conn: http.client.HTTPConnection | None = None):
        """One HTTP call; returns ``(status, parsed-json, headers)``."""
        owned = conn is None
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            return (response.status,
                    json.loads(data) if data else None,
                    dict(response.getheaders()))
        finally:
            if owned:
                conn.close()

    def connection(self) -> http.client.HTTPConnection:
        """A keep-alive connection the caller owns."""
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)


def make_server(**overrides) -> ServerThread:
    """A started server; background flushing off unless asked for."""
    settings = dict(host="127.0.0.1", port=0, default_engine=ENGINE,
                    flush_watermark=None, drain_timeout=30.0)
    settings.update(overrides)
    return ServerThread(ServerConfig(**settings)).start()


@pytest.fixture
def served():
    server = make_server()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture
def served_tenant(served):
    """A server with tenant ``demo`` created and mined over ROWS."""
    status, body, _ = served.request(
        "POST", "/v1/tenants",
        {"name": "demo", "columns": ["c1", "c2"], "rows": ROWS})
    assert status == 201, body
    return served
