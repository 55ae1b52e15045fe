"""End-to-end serving tests over a real socket.

The server accepts on its own threads (see ``conftest.ServerThread``)
and the tests speak plain stdlib HTTP to it — the same wire surface the
quickstart example and the CI smoke job use.
"""

import json
import re
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.server import CorrelationServer, ServerConfig
from repro.server import http as server_http
from tests.conftest import make_relation
from tests.server.conftest import ENGINE, ROWS, ServerThread, make_server

ADD = {"type": "add_annotations", "additions": [[0, "A9"]]}


def batch(n, tid=1):
    return {"events": [{"type": "add_annotations",
                        "additions": [[tid, f"B{i}"]]}
                       for i in range(n)]}


class TestOperational:
    def test_healthz(self, served):
        status, body, _ = served.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == 0

    def test_unknown_route_404(self, served):
        status, body, _ = served.request("GET", "/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_rebalance_is_not_a_route(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/rebalance", {"shards": 2})
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_405(self, served):
        status, body, _ = served.request("PUT", "/healthz")
        assert status == 405

    def test_oversized_body_413(self):
        server = make_server(max_request_bytes=1024)
        try:
            status, body, _ = server.request(
                "POST", "/v1/tenants",
                {"name": "big", "rows": [[["x" * 40], ["A"]]] * 50})
            assert status == 413
        finally:
            server.stop()

    def test_413_reaches_a_client_still_sending_its_body(self):
        """The server reads and drops the refused body instead of
        closing on it, so the kernel does not reset the connection and
        the 413 arrives, every time."""
        server = make_server(max_request_bytes=1024)
        body = b"x" * (4 << 20)
        head = (b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        try:
            for _ in range(5):
                with socket.create_connection(
                        ("127.0.0.1", server.port), timeout=30) as sock:
                    sock.sendall(head)
                    for start in range(0, len(body), 65536):
                        sock.sendall(body[start:start + 65536])
                    status_line = sock.makefile("rb").readline()
                assert status_line.startswith(b"HTTP/1.1 413 "), status_line
        finally:
            server.stop()

    def test_malformed_json_400(self, served):
        conn = served.connection()
        try:
            conn.request("POST", "/v1/tenants", body="{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_keep_alive_serves_multiple_requests(self, served):
        conn = served.connection()
        try:
            for _ in range(3):
                status, body, _ = served.request("GET", "/healthz",
                                                 conn=conn)
                assert status == 200
        finally:
            conn.close()

    def test_metrics_endpoint(self, served_tenant):
        served_tenant.request("GET", "/v1/demo/rules")
        status, body, _ = served_tenant.request("GET", "/metrics")
        assert status == 200
        metrics = body["metrics"]
        assert metrics["service_snapshot_misses"]["value"] >= 1
        assert "http_requests" in metrics
        assert "queue_depth" in metrics
        assert metrics["tenants"]["value"] == 1
        latency = metrics["http_request_seconds"]["series"]
        assert any(key.startswith("route=") for key in latency)
        assert 0.0 <= body["derived"]["snapshot_hit_rate"] <= 1.0


def read_until_closed(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection (a
    reset counts as a close)."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks)


def exchange_raw(stream: bytes) -> tuple[bytes, list]:
    """Send ``stream`` on one connection to a fresh server; returns the
    reply and whatever escaped a server thread."""
    unhandled = []
    previous_hook = threading.excepthook
    threading.excepthook = unhandled.append
    server = CorrelationServer(ServerConfig(
        host="127.0.0.1", port=0, default_engine=ENGINE))
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(stream)
            reply = read_until_closed(sock)
    finally:
        server.shutdown()
        threading.excepthook = previous_hook
    return reply, unhandled


class TestMalformedRequests:
    """Lines past the reader's limit and negative lengths are answered
    and the connection closed; nothing escapes a server thread."""

    LONG = b"a" * 70_000

    @pytest.mark.parametrize("stream, status", [
        (b"GET /" + LONG + b" HTTP/1.1\r\n\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + LONG + b"\r\n\r\n", 431),
        (b"POST /v1/tenants HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         400),
        (b"POST /v1/tenants HTTP/1.1\r\nContent-Length: 5x\r\n\r\n",
         400),
    ], ids=["request-line", "header-line", "negative-length",
            "non-integer-length"])
    def test_answered_with_4xx_and_closed(self, stream, status):
        reply, unhandled = exchange_raw(stream)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:200]
        assert b"Connection: close" in reply
        assert unhandled == []


_STATUS_LINE = re.compile(rb"^HTTP/1\.1 (\d{3}) ")

#: Pieces of requests for the byte-stream fuzz: real and broken request
#: lines, headers with good and bad values, and short bodies.
_REQUESTS = st.builds(
    lambda method, target, version, headers, body: (
        method + b" " + target + b" " + version + b"\r\n"
        + b"".join(name + b": " + value + b"\r\n"
                   for name, value in headers)
        + b"\r\n" + body),
    st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT", b"get", b""]),
    st.sampled_from([b"/healthz", b"/metrics", b"/v1/tenants",
                     b"/v1/ghost/events", b"/v1/ghost/rules?limit=x",
                     b"*", b""]),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b""]),
    st.lists(st.tuples(
        st.sampled_from([b"Content-Length", b"Connection",
                         b"Transfer-Encoding", b"X-Any"]),
        st.sampled_from([b"0", b"7", b"-1", b"5x", b"close", b"chunked",
                         b"99999999999"])), max_size=4),
    st.binary(max_size=48))
_STREAMS = st.one_of(st.binary(max_size=256),
                     st.lists(_REQUESTS, min_size=1,
                              max_size=3).map(b"".join))


def reply_statuses(reply: bytes) -> list[int]:
    """The status of every response in ``reply``, in order."""
    statuses = []
    while reply:
        head, separator, rest = reply.partition(b"\r\n\r\n")
        assert separator, reply[:200]
        match = _STATUS_LINE.match(head)
        assert match, head[:200]
        statuses.append(int(match.group(1)))
        length = re.search(rb"\r\nContent-Length: (\d+)", head)
        reply = rest[int(length.group(1)):]
    return statuses


class TestConnections:
    def test_a_connection_past_the_cap_gets_503_and_is_closed(
            self, monkeypatch):
        monkeypatch.setattr(server_http, "MAX_CONNECTIONS", 2)
        server = make_server()
        first, second = server.connection(), server.connection()
        try:
            for conn in (first, second):
                assert server.request("GET", "/healthz", conn=conn)[0] \
                    == 200
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as third:
                reply = read_until_closed(third)
            assert reply.startswith(b"HTTP/1.1 503 "), reply[:200]
            assert b"\r\nRetry-After: 1\r\n" in reply
            assert b"\r\nConnection: close\r\n" in reply
            _, body, _ = server.request("GET", "/metrics", conn=first)
            assert body["metrics"]["connections_rejected"]["value"] == 1
            assert body["metrics"]["connections"]["value"] == 2
            second.close()
            # The freed slot serves the next connection.
            deadline = time.monotonic() + 10
            while server.request("GET", "/healthz")[0] != 200:
                assert time.monotonic() < deadline, "slot never freed"
                time.sleep(0.01)
        finally:
            first.close()
            second.close()
            server.stop()

    def test_the_503_reaches_a_client_past_the_cap_still_sending(
            self, monkeypatch):
        """The refused connection's input is read and dropped after
        the 503, so the close is not a reset and the answer arrives
        even while the client is still sending a large body."""
        monkeypatch.setattr(server_http, "MAX_CONNECTIONS", 1)
        server = make_server()
        holder = server.connection()
        body = b"x" * (8 << 20)
        head = (b"POST /v1/tenants HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        try:
            assert server.request("GET", "/healthz", conn=holder)[0] \
                == 200
            for _ in range(3):
                with socket.create_connection(
                        ("127.0.0.1", server.port), timeout=30) as sock:
                    sock.sendall(head)
                    for start in range(0, len(body), 65536):
                        sock.sendall(body[start:start + 65536])
                    status_line = sock.makefile("rb").readline()
                assert status_line.startswith(b"HTTP/1.1 503 "), \
                    status_line
        finally:
            holder.close()
            server.stop()

    def test_a_half_sent_request_does_not_hold_the_drain(self):
        """Shutdown ends a read in progress instead of waiting out the
        drain budget for a request that was never dispatched."""
        server = make_server()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /v1/tenants HTTP/1.1\r\n"
                         b"Content-Length: 100\r\n\r\n{\"name\"")
            time.sleep(0.1)  # the server is now reading the body
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 5
            assert read_until_closed(sock) == b""

    def test_eof_inside_the_headers_is_not_dispatched(self, served):
        with socket.create_connection(("127.0.0.1", served.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert read_until_closed(sock) == b""
        status, body, _ = served.request("GET", "/metrics")
        requests = body["metrics"].get("http_requests", {"series": {}})
        assert not any(key.startswith("route=healthz,")
                       for key in requests["series"])

    def test_a_trickling_client_is_closed_after_the_read_deadline(
            self, monkeypatch):
        monkeypatch.setattr(server_http, "REQUEST_READ_SECONDS", 0.5)
        server = make_server()
        try:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                started = time.monotonic()
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                sock.settimeout(0.05)
                reply = None
                while reply is None and time.monotonic() - started < 10:
                    try:
                        sock.sendall(b"X")  # one header byte at a time
                        reply = sock.recv(1024)
                    except TimeoutError:
                        continue
                    except OSError:  # reset: closed with unread input
                        reply = b""
                elapsed = time.monotonic() - started
            assert reply == b"", reply
            assert 0.5 <= elapsed < 5, elapsed
        finally:
            server.stop()

    def test_arbitrary_byte_streams_never_get_a_500_or_hang(self):
        """Whatever bytes arrive, each answer is a 2xx (a well-formed
        request), a 4xx, or the 501 for a chunked body, and the server
        closes the connection once the client stops sending.  One
        connection at a time."""
        unhandled = []
        previous_hook = threading.excepthook
        threading.excepthook = unhandled.append
        server = make_server()

        @seed(31)
        @settings(max_examples=25, deadline=None, database=None)
        @given(stream=_STREAMS)
        def check(stream):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as sock:
                try:
                    sock.sendall(stream)
                    sock.shutdown(socket.SHUT_WR)
                except OSError:  # the server closed first
                    pass
                reply = read_until_closed(sock)  # a hang times out
            for status in reply_statuses(reply):
                assert status < 300 or 400 <= status < 500 \
                    or status == 501, (stream, reply[:300])

        try:
            check()
        finally:
            server.stop()
            threading.excepthook = previous_hook
        assert unhandled == []


class TestTenantLifecycle:
    def test_a_session_created_before_start_is_served(self):
        """The service's sessions are the server's tenants: a session
        created on ``server.service`` needs no registration step."""
        served = ServerThread(ServerConfig(
            host="127.0.0.1", port=0, default_engine=ENGINE,
            flush_watermark=None))
        served.server.service.create("pre", make_relation())
        served.start()
        try:
            status, body, _ = served.request("GET", "/v1/tenants")
            assert status == 200
            assert [t["tenant"] for t in body["tenants"]] == ["pre"]
            status, body, _ = served.request("GET", "/v1/pre")
            assert status == 200 and body["db_size"] == 8
            status, body, _ = served.request("GET", "/v1/pre/rules")
            assert status == 200 and body["total"] > 0
            status, body, _ = served.request("POST", "/v1/pre/events",
                                             ADD)
            assert status == 202
            status, body, _ = served.request("POST", "/v1/pre/flush")
            assert status == 200 and body["events_applied"] == 1
            _, health, _ = served.request("GET", "/healthz")
            assert health["tenants"] == 1
        finally:
            served.stop()

    def test_unknown_tenant_404_names_no_other_tenant(self, served):
        for name in ("alpha", "beta"):
            status, _, _ = served.request(
                "POST", "/v1/tenants", {"name": name, "rows": ROWS})
            assert status == 201
        for method, path, body in (("GET", "/v1/ghost", None),
                                   ("GET", "/v1/ghost/rules", None),
                                   ("POST", "/v1/ghost/events", ADD),
                                   ("POST", "/v1/ghost/flush", None),
                                   ("DELETE", "/v1/ghost", None)):
            status, answer, _ = served.request(method, path, body)
            assert status == 404, path
            assert answer == {"error": "unknown tenant 'ghost'"}, path

    def test_create_list_status_drop(self, served):
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "demo", "columns": ["c1", "c2"], "rows": ROWS})
        assert status == 201
        assert body["tenant"]["rules"] > 0
        assert body["tenant"]["revision"] == 1

        status, body, _ = served.request("GET", "/v1/tenants")
        assert status == 200
        assert [t["tenant"] for t in body["tenants"]] == ["demo"]

        status, body, _ = served.request("GET", "/v1/demo")
        assert status == 200 and body["db_size"] == 4

        status, body, _ = served.request("DELETE", "/v1/demo")
        assert status == 200
        status, body, _ = served.request("GET", "/v1/demo")
        assert status == 404

    def test_duplicate_create_409(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/tenants", {"name": "demo", "rows": ROWS})
        assert status == 409
        assert "already exists" in body["error"]

    def test_create_with_config_override(self, served):
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "strict", "rows": ROWS,
             "config": {"min_confidence": 0.95}})
        assert status == 201
        assert body["tenant"]["config"]["min_confidence"] == 0.95

    def test_bad_config_field_400(self, served):
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "x", "rows": ROWS, "config": {"min_sup": 0.1}})
        assert status == 400
        assert "min_sup" in body["error"]

    def test_removed_shard_executor_field_400(self, served):
        """Sharded tenants have one executor; a body that still picks
        one is an unknown field, not a silently ignored choice."""
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "x", "rows": ROWS,
             "config": {"shards": 2, "shard_executor": "thread"}})
        assert status == 400
        assert "shard_executor" in body["error"]
        status, _, _ = served.request("GET", "/v1/x")
        assert status == 404

    @pytest.mark.parametrize("field", ["backend", "counter"])
    def test_removed_mining_option_fields_400(self, served, field):
        """The engine has one mining path; a body that still selects a
        backend or counter is an unknown field."""
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "x", "rows": ROWS, "config": {field: "auto"}})
        assert status == 400
        assert field in body["error"]

    @pytest.mark.parametrize("config,field", [
        ({"max_log_events": 2.5}, "max_log_events"),
        ({"max_log_events": 100}, "max_log_events"),
        ({"shard_workers": 2}, "shard_workers"),
        ({"shards": 2, "shard_workers": 1.5}, "shard_workers"),
    ])
    def test_removed_log_and_pool_fields_400(self, served, config, field):
        """The engine keeps no event log and mines shards in a loop; a
        body that still sets either option names an unknown field."""
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "x", "rows": ROWS, "config": config})
        assert status == 400
        assert "unknown engine config field" in body["error"]
        assert field in body["error"]
        status, _, _ = served.request("GET", "/v1/x")
        assert status == 404

    def test_removed_track_candidates_field_400(self, served):
        """Near-miss rules are the engine's own state, not an option; a
        body that still switches them off names an unknown field."""
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "x", "rows": ROWS,
             "config": {"track_candidates": False}})
        assert status == 400
        assert "unknown engine config field" in body["error"]
        assert "track_candidates" in body["error"]
        status, _, _ = served.request("GET", "/v1/x")
        assert status == 404

    def test_status_reports_every_engine_field(self, served):
        """Tenant status echoes every JSON-able EngineConfig field the
        body set, including the boolean."""
        status, _, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "flags", "rows": ROWS, "config": {"validate": True}})
        assert status == 201
        status, body, _ = served.request("GET", "/v1/flags")
        assert status == 200
        config = body["config"]
        assert config["validate"] is True
        assert sorted(config) == sorted([
            "min_support", "min_confidence", "margin", "max_length",
            "validate", "shards"])

    @pytest.mark.parametrize("config,field", [
        ({"max_length": 2.5}, "max_length"),
        ({"max_length": True}, "max_length"),
        ({"validate": 1}, "validate"),
    ])
    def test_badly_typed_config_400(self, served, config, field):
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "typed", "rows": ROWS, "config": config})
        assert status == 400
        assert field in body["error"]
        status, _, _ = served.request("GET", "/v1/typed")
        assert status == 404

    def test_reserved_name_400(self, served):
        status, body, _ = served.request(
            "POST", "/v1/tenants", {"name": "tenants", "rows": ROWS})
        assert status == 400

    def test_drop_with_pending_needs_force(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/events", ADD)
        assert status == 202
        status, body, _ = served_tenant.request("DELETE", "/v1/demo")
        assert status == 409
        assert "queued event" in body["error"]
        assert "force=true" in body["hint"]
        status, body, _ = served_tenant.request(
            "DELETE", "/v1/demo?force=true")
        assert status == 200 and body["forced"] is True


class TestReads:
    def test_rules_listing_paged(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules?limit=2")
        assert status == 200
        assert body["count"] <= 2 and body["total"] >= body["count"]
        assert body["revision"] == 1
        first = body["rules"][0]
        assert {"kind", "lhs", "rhs", "support", "confidence",
                "lift", "rendered"} <= set(first)
        # Second page never repeats the first.
        status, second, _ = served_tenant.request(
            "GET", "/v1/demo/rules?limit=2&offset=2")
        assert [r["rendered"] for r in second["rules"]] != \
            [r["rendered"] for r in body["rules"]]

    def test_rules_top(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=3&by=lift")
        assert status == 200 and body["count"] <= 3
        lifts = [rule["lift"] for rule in body["rules"]]
        assert lifts == sorted(lifts, reverse=True)

    def test_rules_for_item(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/for-item?token=A1")
        assert status == 200 and body["total"] > 0
        for rule in body["rules"]:
            assert "A1" in rule["lhs"] or rule["rhs"] == "A1"
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/for-item?token=A1&role=rhs")
        assert all(rule["rhs"] == "A1" for rule in body["rules"])

    def test_rules_for_unknown_token_is_empty(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/for-item?token=never-seen")
        assert status == 200 and body["total"] == 0

    def test_query_with_floors_and_explain(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/query?min_confidence=0.9"
                   "&order_by=support&explain=true")
        assert status == 200
        assert all(rule["confidence"] >= 0.9 for rule in body["rules"])
        assert "index=" in body["explain"]

    @pytest.mark.parametrize("floors", [
        {"min_support": 0.5, "min_confidence": 0.9},
        {"min_support": 0.5, "min_lift": 1.5},
    ])
    def test_query_applies_every_floor(self, served_tenant, floors):
        """Floors combine: the served answer equals the in-process
        CatalogQuery with every floor applied, not just the last."""
        params = "&".join(f"{name}={value}"
                          for name, value in floors.items())
        status, body, _ = served_tenant.request(
            "GET", f"/v1/demo/query?{params}&limit=100")
        assert status == 200
        query = (served_tenant.server.service.snapshot("demo")
                 .catalog.query())
        for name, value in floors.items():
            query = getattr(query, name)(value)
        expected = sorted(
            (rule.support, rule.confidence, rule.lift, rule.union_count)
            for rule in query.all())
        served = sorted(
            (rule["support"], rule["confidence"], rule["lift"],
             rule["union_count"])
            for rule in body["rules"])
        assert expected
        assert body["total"] == len(expected)
        assert served == expected

    def test_query_bad_metric_400(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/query?order_by=coverage")
        assert status == 400

    def test_unmined_tenant_reads_409(self, served):
        status, _, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "lazy", "rows": ROWS, "mine": False})
        assert status == 201
        status, body, _ = served.request("GET", "/v1/lazy/rules")
        assert status == 409
        assert "mine" in body["error"]


class TestWrites:
    def test_event_flush_read_cycle(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/events", ADD)
        assert status == 202
        assert body["queue_depth"] == 1
        # The read path still serves revision 1 until the flush lands.
        _, before, _ = served_tenant.request("GET", "/v1/demo/rules")
        assert before["revision"] == 1

        status, body, _ = served_tenant.request("POST", "/v1/demo/flush")
        assert status == 200
        assert body["events_applied"] == 1
        assert body["revision"] == 2

        _, after, _ = served_tenant.request("GET", "/v1/demo/rules")
        assert after["revision"] == 2

    def test_batch_events(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/events:batch", batch(5))
        assert status == 202 and body["queued"] == 5
        status, body, _ = served_tenant.request("POST", "/v1/demo/flush")
        assert body["events_applied"] == 5

    def test_bad_event_400(self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/events", {"type": "upsert"})
        assert status == 400
        assert "unknown event type" in body["error"]

    def test_mine_bumps_revision(self, served_tenant):
        status, body, _ = served_tenant.request("POST", "/v1/demo/mine")
        assert status == 200 and body["revision"] == 2

    def test_verify_after_updates(self, served_tenant):
        served_tenant.request("POST", "/v1/demo/events:batch", batch(3))
        served_tenant.request("POST", "/v1/demo/flush")
        status, body, _ = served_tenant.request("GET", "/v1/demo/verify")
        assert status == 200
        assert body["equivalent"] is True


class TestBackpressure:
    def test_queue_saturation_yields_429(self):
        server = make_server(max_pending_events=5)
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "rows": ROWS})
            status, body, _ = server.request(
                "POST", "/v1/demo/events:batch", batch(5))
            assert status == 202
            status, body, headers = server.request(
                "POST", "/v1/demo/events", ADD)
            assert status == 429
            assert "queue full" in body["error"]
            assert body["queue_depth"] == 5 and body["limit"] == 5
            # The wire header is integer seconds, rounded up from the
            # float hint in the body.
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after"] > 0
            # Rejection is visible in the metrics.
            _, metrics, _ = server.request("GET", "/metrics")
            series = metrics["metrics"]["admission_rejected"]["series"]
            assert series["reason=queue_full,tenant=demo"]["value"] == 1
        finally:
            server.stop()

    def test_racing_writers_never_overshoot_the_queue_bound(self):
        """Four connections post at once: the admission check and the
        submit are one step, so exactly the bound's worth is queued."""
        server = make_server(max_pending_events=5)
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "rows": ROWS})
            statuses: list[int] = []
            go = threading.Event()

            def writer():
                conn = server.connection()
                try:
                    go.wait()
                    for _ in range(3):
                        statuses.append(server.request(
                            "POST", "/v1/demo/events", ADD,
                            conn=conn)[0])
                finally:
                    conn.close()

            writers = [threading.Thread(target=writer) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads as often as it can
            try:
                for thread in writers:
                    thread.start()
                go.set()
                for thread in writers:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in writers)
            assert sorted(statuses) == [202] * 5 + [429] * 7
            assert server.server.service.pending("demo") == 5
        finally:
            server.stop()

    def test_retry_after_honored_write_succeeds_after_drain(self):
        """The 429 contract: back off, let the background flush drain
        the queue, and the retried write is admitted."""
        server = make_server(max_pending_events=6, flush_watermark=0.5)
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "rows": ROWS})
            # Cross the watermark (trigger depth 3) to saturation.
            status, body, _ = server.request(
                "POST", "/v1/demo/events:batch", batch(6))
            assert status == 202 and body["flush_scheduled"]
            deadline = time.monotonic() + 30
            final = None
            while time.monotonic() < deadline:
                status, final, _ = server.request(
                    "POST", "/v1/demo/events", ADD)
                if status == 202:
                    break
                assert status == 429
                time.sleep(min(final["retry_after"], 0.5))
            assert status == 202, f"write never admitted: {final}"
        finally:
            server.stop()

    def test_flush_saturation_yields_429(self):
        server = make_server(max_inflight_flushes=1)
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "rows": ROWS})
            # Hold the only flush lane directly, then ask over HTTP.
            assert server.server.admission.admit_flush("demo")
            try:
                status, body, headers = server.request(
                    "POST", "/v1/demo/flush")
                assert status == 429
                assert "in flight" in body["error"]
                assert int(headers["Retry-After"]) >= 1
            finally:
                server.server.admission.release_flush()
            status, _, _ = server.request("POST", "/v1/demo/flush")
            assert status == 200
        finally:
            server.stop()


class TestConsistency:
    def test_no_torn_revisions_under_racing_flushes(self):
        """Reads racing a stream of write+flush cycles must always see
        an internally consistent (revision, db_size) pair — one that
        some published snapshot actually had."""
        server = make_server()
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "columns": ["c1", "c2"],
                            "rows": ROWS})
            valid: dict[int, int] = {1: 4}  # revision -> db_size
            stop = threading.Event()
            torn: list = []

            def reader():
                conn = server.connection()
                try:
                    while not stop.is_set():
                        _, body, _ = server.request(
                            "GET", "/v1/demo/rules?limit=1", conn=conn)
                        pair = (body["revision"], body["db_size"])
                        if valid.get(pair[0]) != pair[1]:
                            torn.append(pair)
                            return
                finally:
                    conn.close()

            def writer():
                for round_number in range(8):
                    status, _, _ = server.request(
                        "POST", "/v1/demo/events",
                        {"type": "add_annotated_tuples",
                         "rows": [[["w", str(round_number)], ["A1"]]]})
                    assert status == 202
                    status, flushed, _ = server.request(
                        "POST", "/v1/demo/flush")
                    assert status == 200
                    assert valid[flushed["revision"]] == \
                        flushed["db_size"]

            # Every state the writer will create, known up front (so
            # readers can check pairs they observe *before* the flush
            # response returns): round k adds one tuple, so revision
            # 1+k pairs with db_size 4+k — any other combination is a
            # torn read.
            for k in range(1, 9):
                valid[1 + k] = 4 + k
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            writer()
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not torn, f"torn read observed: {torn}"
        finally:
            server.stop()

    def test_graceful_drain_flushes_everything(self):
        """Queued-but-unflushed (202-acknowledged) events survive a
        graceful stop: the drain flushes every tenant, sharded ones
        included."""
        server = make_server()
        server.request("POST", "/v1/tenants",
                       {"name": "alpha", "columns": ["c1", "c2"],
                        "rows": ROWS})
        server.request("POST", "/v1/tenants",
                       {"name": "beta", "columns": ["c1", "c2"],
                        "rows": ROWS})
        status, _, _ = server.request(
            "POST", "/v1/tenants",
            {"name": "gamma", "columns": ["c1", "c2"], "rows": ROWS,
             "config": {"shards": 2}})
        assert status == 201
        for name in ("alpha", "beta", "gamma"):
            status, _, _ = server.request(
                f"POST", f"/v1/{name}/events:batch", batch(4))
            assert status == 202
        service = server.server.service
        assert service.pending("alpha") == 4
        server.stop()  # graceful drain
        for name in ("alpha", "beta", "gamma"):
            assert service.pending(name) == 0
            snapshot = service.snapshot(name)
            assert snapshot.revision == 2  # the drain flush landed
            assert service.verify(name).equivalent

    def test_draining_server_rejects_writes_with_503(self):
        server = make_server()
        try:
            server.request("POST", "/v1/tenants",
                           {"name": "demo", "rows": ROWS})
            server.server._draining = True
            status, body, _ = server.request(
                "POST", "/v1/demo/events", ADD)
            assert status == 503
            assert "draining" in body["error"]
            # Reads still work while draining.
            status, _, _ = server.request("GET", "/v1/demo/rules")
            assert status == 200
        finally:
            server.server._draining = False
            server.stop()
