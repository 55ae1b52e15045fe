"""The threaded HTTP/1.1 JSON serving tier in front of the service facade.

Stdlib only: one accept thread hands each connection to its own
thread, which reads requests with a small hand-rolled HTTP/1.1 reader
(request line, headers, ``Content-Length`` bodies, keep-alive),
dispatches them and writes the replies.  No event loop and no executor:
a handler is a plain function that runs on its connection's thread.
The interesting part is the concurrency contract, not the protocol
plumbing:

* **reads never block on writes.**  Every read endpoint serves from
  the session's published, frozen
  :class:`~repro.app.service.RuleSnapshot` (``service.snapshot()``,
  replaced by the service at every commit) and renders item ids
  through the vocabulary that snapshot carries, so it touches no
  session lock — a flush holding the session lock stalls other
  flushes, never a read;
* **writes are admitted, not buffered.**  ``POST .../events`` checks
  the per-tenant queue bound first and answers ``429`` with a
  ``Retry-After`` hint (sized from the tenant's recent flush latency)
  when the queue is full; queue memory is bounded by config, not by
  client enthusiasm;
* **blocking engine work is bounded.**  Flush, mine, create and verify
  run on the requesting connection's thread, gated by a global
  in-flight bound — saturating that bound is also a ``429``;
* **connections are bounded.**  At most :data:`MAX_CONNECTIONS` are
  served at once; one past the cap is answered ``503`` with
  ``Retry-After`` and closed.  A connection waits at most ``keep_alive_timeout`` for a
  request's first byte and :data:`REQUEST_READ_SECONDS` for the rest
  of it;
* **shutdown drains.**  ``shutdown()`` stops accepting, ends every
  read (idle keep-alive waits and half-read requests alike), lets
  dispatched requests finish, completes
  scheduled background flushes, then flushes every tenant's remaining
  queue and syncs the journals — queued-but-unflushed writes survive a
  graceful stop.

Every endpoint is observable: per-endpoint request counters and
latency histograms, admission and connection rejection counters, flush
latency, queue depths and snapshot hit rates all land in one
:class:`~repro.server.metrics.MetricsRegistry` served by
``GET /metrics``.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import threading
import time
from collections.abc import Callable
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.app.estimate import ESTIMATE_METRICS
from repro.app.service import CorrelationService, RuleSnapshot
from repro.core.catalog import SIGNIFICANCE_METRICS
from repro.core.events import event_from_json
from repro.core.rules import RuleKind
from repro.errors import ReproError, ServerError, SessionError
from repro.server.admission import AdmissionController, retry_after_header
from repro.server.config import ServerConfig
from repro.server.metrics import MetricsRegistry, ServiceInstrumentation
from repro.server.tenants import (
    create_tenant,
    estimated_rule_to_json,
    load_create_body,
    parse_metric,
    parse_rule_kind,
    resolve_item,
    rule_to_json,
    tenant_status,
)

_REQUEST_LINE = re.compile(rb"^([A-Z]+) (\S+) HTTP/1\.[01]$")

#: Default page size for rule listings; ``limit`` caps at MAX_PAGE.
DEFAULT_PAGE = 50
MAX_PAGE = 1000

#: Longest request or header line (bytes, newline included); a longer
#: one is answered 431.
MAX_LINE_BYTES = 64 * 1024

#: After answering a request it cannot parse, the server half-closes
#: the connection and reads (and drops) what the client is still
#: sending for at most this long: closing with unread input makes the
#: kernel reset the connection, and the client loses the answer.
DISCARD_SECONDS = 2.0

#: Once a request's first byte has arrived, its request line, headers
#: and body must all arrive within this many seconds or the connection
#: is closed: a client trickling bytes holds its thread no longer.
REQUEST_READ_SECONDS = 30.0

#: Connections served at once, each on its own thread; one past the
#: cap is answered 503 with ``Retry-After`` and closed.
MAX_CONNECTIONS = 64


class HttpError(Exception):
    """An error with a definite HTTP mapping, raised by handlers."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None,
                 extra: dict[str, Any] | None = None, *,
                 unread: int | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra or {}
        #: Body bytes the client declared and the server left unread
        #: (``None`` when the parse failed before the body's length
        #: was known).
        self.unread = unread


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str,
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        split = urlsplit(target)
        self.path = split.path
        self.query = parse_qs(split.query, keep_blank_values=True)
        self.headers = headers
        self.body = body

    def json(self, loads: Callable[[bytes], Any] = json.loads) -> Any:
        if not self.body:
            return {}
        try:
            return loads(self.body)
        except ValueError as error:
            raise HttpError(400, f"request body is not valid JSON: "
                                 f"{error}") from None

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[-1] if values else default

    def int_param(self, name: str, default: int, *,
                  minimum: int = 0, maximum: int | None = None) -> int:
        raw = self.param(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be an "
                                 f"integer, got {raw!r}") from None
        if value < minimum or (maximum is not None and value > maximum):
            bound = f">= {minimum}" if maximum is None \
                else f"in [{minimum}, {maximum}]"
            raise HttpError(400, f"query parameter {name!r} must be "
                                 f"{bound}, got {value}")
        return value

    def float_param(self, name: str) -> float | None:
        raw = self.param(name)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be a "
                                 f"number, got {raw!r}") from None

    def flag_param(self, name: str) -> bool:
        raw = self.param(name)
        return raw is not None and raw.lower() in ("", "1", "true", "yes")


#: (method, compiled path pattern, route id, handler attribute).
_ROUTES: list[tuple[str, re.Pattern, str, str]] = []


def _route(method: str, pattern: str, route_id: str):
    def decorate(handler):
        _ROUTES.append((method, re.compile(pattern), route_id,
                        handler.__name__))
        return handler
    return decorate


def _checked_create_body(request: Request
                         ) -> tuple[str, list[str] | None, bool, dict]:
    """Decode a ``POST /v1/tenants`` body and check its fields, in this
    order: a JSON object, a string ``name``, no unknown field, string
    ``columns``, boolean ``mine``.  Returns ``(name, columns, mine,
    body)``; its rows are checked as the create reads them."""
    body = request.json(load_create_body)
    if not isinstance(body, dict):
        raise HttpError(400, "tenant create body must be a JSON object")
    name = body.get("name")
    if not isinstance(name, str):
        raise HttpError(400, "tenant create body needs a string 'name'")
    unknown = sorted(set(body) - {"name", "columns", "rows", "config",
                                  "mine"})
    if unknown:
        raise HttpError(400, f"unknown tenant create field(s): "
                             f"{', '.join(unknown)}")
    columns = body.get("columns")
    if columns is not None and (
            not isinstance(columns, list)
            or not all(isinstance(c, str) for c in columns)):
        raise HttpError(400, "'columns' must be a list of strings")
    mine = body.get("mine", True)
    if not isinstance(mine, bool):
        raise HttpError(400, "'mine' must be a boolean")
    return name, columns, mine, body


class _Connection:
    """One accepted socket, the bytes read from it but not yet parsed,
    and whether a request read from it is being dispatched."""

    __slots__ = ("sock", "buffer", "dispatching")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.dispatching = False

    def _fill(self, deadline: float, size: int = 65536) -> bool:
        """Receive up to ``size`` more bytes by ``deadline``; ``False``
        at EOF.  Past the deadline, raises :class:`TimeoutError`."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request read deadline passed")
        self.sock.settimeout(remaining)
        chunk = self.sock.recv(size)
        self.buffer += chunk
        return bool(chunk)

    def wait_for_request(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the next request's first
        byte; ``False`` at EOF."""
        return bool(self.buffer) or self._fill(time.monotonic() + timeout)

    def readline(self, deadline: float) -> bytes:
        """One line, newline included; ``b""`` at EOF before its first
        byte.  A line over :data:`MAX_LINE_BYTES` is a 431, and EOF
        inside a line a :class:`ConnectionError`."""
        scanned = 0
        while (end := self.buffer.find(b"\n", scanned)) < 0:
            if len(self.buffer) >= MAX_LINE_BYTES:
                break
            scanned = len(self.buffer)
            if not self._fill(deadline):
                if self.buffer:
                    raise ConnectionError("connection closed mid-line")
                return b""
        if not 0 <= end < MAX_LINE_BYTES:
            raise HttpError(431, "request line or header line exceeds "
                                 "the line length limit")
        line = bytes(self.buffer[:end + 1])
        del self.buffer[:end + 1]
        return line

    def read_exactly(self, size: int, deadline: float) -> bytes:
        while len(self.buffer) < size:
            if not self._fill(deadline, size - len(self.buffer)):
                raise ConnectionError("connection closed mid-body")
        with memoryview(self.buffer) as view:  # one copy of the body
            body = bytes(view[:size])
        del self.buffer[:size]
        return body

    def discard(self, limit: int | None) -> None:
        """Read and drop up to ``limit`` more bytes (no limit when
        ``None``), stopping early at EOF or after
        :data:`DISCARD_SECONDS`."""
        remaining = None if limit is None else limit - len(self.buffer)
        self.buffer.clear()
        deadline = time.monotonic() + DISCARD_SECONDS
        try:
            while remaining is None or remaining > 0:
                if not self._fill(deadline):
                    return
                if remaining is not None:
                    remaining -= len(self.buffer)
                self.buffer.clear()
        except OSError:  # the deadline passed, or the client is gone
            pass

    def send(self, data: bytes, timeout: float) -> None:
        self.sock.settimeout(timeout)
        self.sock.sendall(data)

    def shutdown(self, how: int) -> None:
        try:
            self.sock.shutdown(how)
        except OSError:  # already disconnected
            pass


class CorrelationServer:
    """One serving process: tenants, endpoints, admission, metrics.

    The tenants are the sessions of :attr:`service`: a session created
    on it directly (``--preload``, journal recovery, an embedding
    program) is served like one created over HTTP.

    :meth:`start` returns once the socket is listening, with a
    background thread accepting connections; :meth:`shutdown` (from any
    other thread) drains and stops it."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.metrics = MetricsRegistry()
        self.instrumentation = ServiceInstrumentation(self.metrics)
        self.service = CorrelationService(
            config=self.config.default_engine,
            instrumentation=self.instrumentation,
            journal_dir=self.config.journal_dir,
            journal_fsync=self.config.journal_fsync,
            journal_snapshot_every=self.config.journal_snapshot_every)
        self.admission = AdmissionController(self.config, self.metrics)
        self._listener: socket.socket | None = None
        self._port: int | None = None
        #: Closing the send end wakes the accept thread to stop it.
        self._wake_recv: socket.socket | None = None
        self._wake_send: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Guards the connection table, each connection's dispatching
        #: flag, the scheduled-flush set and the draining and stopped
        #: flags; notified whenever a dispatch or a scheduled flush ends.
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._connections: set[_Connection] = set()
        #: Tenants with a background flush scheduled or running
        #: (coalesces triggers; the admission bound caps concurrency).
        self._flush_scheduled: set[str] = set()
        #: Makes an event admission check and its submits one step.
        self._submit_lock = threading.Lock()
        self._draining = False
        #: Set once the drain has waited out dispatched requests: no
        #: request is dispatched after it, and shutdown() is a no-op.
        self._stopped = False
        self._started_at = time.monotonic()

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        if self._port is None:
            raise ServerError("server is not started")
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> None:
        """Recover journaled tenants, bind the socket and start the
        accept thread."""
        if self._listener is not None:
            raise ServerError("server already started")
        # Recover journaled tenants before the socket opens: a client
        # that can connect must see the recovered catalogs, never a
        # window where a durable tenant 404s.
        self._recover_journaled_tenants()
        host, port = self.config.host, self.config.port
        family = socket.getaddrinfo(host, port,
                                    type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        self._port = self._listener.getsockname()[1]
        self._wake_recv, self._wake_send = socket.socketpair()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True)
        self._accept_thread.start()
        self._started_at = time.monotonic()

    def _recover_journaled_tenants(self) -> None:
        if self.config.journal_dir is None:
            return
        results = self.service.restore_sessions()
        for name, result in results.items():
            self.metrics.counter("journal_recovered_tenants").inc()
            self.metrics.gauge("journal_replayed_records",
                               tenant=name).set(result.replay.records)
            self.metrics.gauge("journal_truncated_bytes",
                               tenant=name).set(result.truncated_bytes)
            self._publish_journal_gauges(name)

    def _publish_journal_gauges(self, name: str) -> None:
        """Mirror the tenant's durability position into gauges (any
        thread; the status read takes only the session registry lock)."""
        try:
            status = self.service.journal_status(name)
        except SessionError:
            return  # dropped mid-flight
        if status is None:
            return
        self.metrics.gauge("journal_last_seq", tenant=name).set(
            status["last_seq"])
        self.metrics.gauge("journal_lag", tenant=name).set(
            status["lag"])

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, end every read, finish
        dispatched requests and scheduled flushes, flush every remaining
        queue, sync the journals, stop."""
        if self._stopped:
            return
        with self._lock:
            self._draining = True  # new writes get 503 from here on
        deadline = time.monotonic() + self.config.drain_timeout

        # 1. stop accepting; the accept thread closes the listener.
        if self._accept_thread is not None:
            self._wake_send.close()
            self._accept_thread.join()

        # 2. end every read: an idle keep-alive wait or a half-read
        # request sees EOF and its connection closes.  Then let the
        # dispatched requests and scheduled background flushes run to
        # completion; no request is dispatched after them.
        with self._lock:
            for connection in self._connections:
                if not connection.dispatching:
                    connection.shutdown(socket.SHUT_RD)
            self._changed.wait_for(
                lambda: not self._flush_scheduled and not any(
                    c.dispatching for c in self._connections),
                timeout=max(0.0, deadline - time.monotonic()))
            self._stopped = True

        # 3. flush whatever is still queued, tenant by tenant — a
        # graceful stop must not discard acknowledged (202) writes.
        # Admission is bypassed: drain always proceeds.
        for name in self.service.sessions():
            try:
                if self.service.pending(name):
                    self._flush_blocking(name)
            except Exception:
                self.metrics.counter("drain_flush_errors",
                                     tenant=name).inc()

        # 4. sync every journal, after the final flushes.
        self.service.close()

        # 5. cut off connections that outlived the drain budget.
        with self._lock:
            for connection in self._connections:
                connection.shutdown(socket.SHUT_RDWR)

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_recv, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake_recv
                          for key, _ in selector.select()):
                try:
                    sock, _ = self._listener.accept()
                except (BlockingIOError, InterruptedError,
                        ConnectionAbortedError):
                    continue
                except OSError:  # out of descriptors: back off briefly
                    time.sleep(0.05)
                    continue
                self._admit_connection(sock)
        self._listener.close()
        self._wake_recv.close()

    def _admit_connection(self, sock: socket.socket) -> None:
        connection = _Connection(sock)
        with self._lock:
            admitted = len(self._connections) < MAX_CONNECTIONS
            if admitted:
                self._connections.add(connection)
        if not admitted:
            self._refuse_connection(connection)
            return
        threading.Thread(target=self._serve_connection, args=(connection,),
                         name="repro-connection", daemon=True).start()

    def _refuse_connection(self, connection: _Connection) -> None:
        """Answer a connection past the cap ``503`` and close it, on
        the accept thread: the answer is one small write, and what the
        client is still sending is dropped for at most
        :data:`DISCARD_SECONDS` so the close is not a reset."""
        self.metrics.counter("connections_rejected").inc()
        reply = _response_bytes(
            503, {"error": f"connection limit {MAX_CONNECTIONS} reached"},
            {"Retry-After": "1"}, keep_alive=False)
        try:
            connection.send(reply, 1.0)
            connection.shutdown(socket.SHUT_WR)
            connection.discard(None)
        except OSError:  # the client is gone
            pass
        finally:
            connection.sock.close()

    def _serve_connection(self, connection: _Connection) -> None:
        try:
            while connection.wait_for_request(
                    self.config.keep_alive_timeout):
                if not self._serve_request(connection) or self._draining:
                    break
        except OSError:  # idle or read timeout, reset, or shut down
            pass
        finally:
            with self._lock:
                self._connections.discard(connection)
            connection.sock.close()

    def _serve_request(self, connection: _Connection) -> bool:
        """Read, dispatch and answer one request.  Returns whether to
        keep the connection alive."""
        try:
            request = self._read_request(
                connection, time.monotonic() + REQUEST_READ_SECONDS)
        except HttpError as error:
            # Protocol-level parse failure (bad request line, oversize
            # line or body, chunked encoding): answer, then close — the
            # stream position is unrecoverable — after dropping what
            # the client is still sending.
            self.metrics.counter("http_requests", route="unparsed",
                                 status=str(error.status)).inc()
            connection.send(_response_bytes(
                error.status, {"error": error.message, **error.extra},
                dict(error.headers), keep_alive=False),
                self.config.keep_alive_timeout)
            connection.sock.shutdown(socket.SHUT_WR)
            connection.discard(error.unread)
            return False
        if request is None:
            return False  # clean EOF between requests
        with self._lock:
            if self._stopped:
                return False  # read after the drain stopped dispatching
            connection.dispatching = True
        try:
            status, payload, headers = self._dispatch(request)
            keep_alive = (request.headers.get("connection", "").lower()
                          != "close" and not self._draining)
            connection.send(_response_bytes(status, payload, headers,
                                            keep_alive=keep_alive),
                            self.config.keep_alive_timeout)
        finally:
            with self._lock:
                connection.dispatching = False
                self._changed.notify_all()
        return keep_alive

    def _read_request(self, connection: _Connection,
                      deadline: float) -> Request | None:
        line = connection.readline(deadline)
        if not line:
            return None
        match = _REQUEST_LINE.match(line.rstrip(b"\r\n"))
        if not match:
            raise HttpError(400, f"malformed request line: "
                                 f"{line[:80]!r}")
        method = match.group(1).decode("ascii")
        target = match.group(2).decode("ascii", "replace")
        headers: dict[str, str] = {}
        while True:
            raw = connection.readline(deadline)
            if not raw:
                raise ConnectionError("connection closed mid-headers")
            if raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise HttpError(501, "chunked request bodies are not "
                                 "supported; send Content-Length")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                size = -1
            if size < 0:
                raise HttpError(400, f"bad Content-Length {length!r}")
            if size > self.config.max_request_bytes:
                raise HttpError(
                    413, f"request body of {size} bytes exceeds the "
                         f"{self.config.max_request_bytes} byte limit",
                    unread=size)
            if size:
                body = connection.read_exactly(size, deadline)
        return Request(method, target, headers, body)

    def _dispatch(self, request: Request
                  ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Route and run; returns ``(status, payload, headers)``."""
        route_id = "unmatched"
        status = 500
        payload: dict[str, Any]
        headers: dict[str, str] = {}
        started = time.perf_counter()
        try:
            route_id, handler, path_args = self._match(request)
            status, payload = handler(request, **path_args)
        except HttpError as error:
            status = error.status
            payload = {"error": error.message, **error.extra}
            headers.update(error.headers)
        except ServerError as error:
            # Protocol-level faults from the codecs / registry that
            # reached dispatch unmapped: the client sent them.
            status, payload = 400, {"error": str(error)}
        except SessionError as error:
            status, payload = _session_error_response(error)
        except ReproError as error:
            status, payload = 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — the server must answer
            status = 500
            payload = {"error": f"internal error: "
                                f"{type(error).__name__}: {error}"}
        self.metrics.counter("http_requests", route=route_id,
                             status=str(status)).inc()
        self.metrics.histogram("http_request_seconds",
                               route=route_id).observe(
            time.perf_counter() - started)
        return status, payload, headers

    def _match(self, request: Request
               ) -> tuple[str, Callable, dict[str, str]]:
        path_matched = False
        for method, pattern, route_id, handler_name in _ROUTES:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method == request.method:
                return (route_id, getattr(self, handler_name),
                        match.groupdict())
        if path_matched:
            raise HttpError(405, f"method {request.method} not allowed "
                                 f"for {request.path}")
        raise HttpError(404, f"no route for {request.path}")

    # -- blocking-work plumbing ------------------------------------------------

    def _flush_blocking(self, name: str) -> Any:
        """Apply the queue (the service publishes the new snapshot) and
        feed the admission EWMA."""
        started = time.perf_counter()
        report = self.service.flush(name)
        self.admission.record_flush_seconds(
            name, time.perf_counter() - started)
        self.metrics.gauge("queue_depth", tenant=name).set(
            self.service.pending(name))
        self._publish_journal_gauges(name)
        return report

    def _maybe_schedule_flush(self, name: str, *, force: bool = False) -> bool:
        """Start one coalescing background flush thread once the
        tenant's queue crosses the watermark.  The ``_flush_scheduled``
        set coalesces triggers and the admission bound caps global
        concurrency.  ``force=True`` (the estimate read path's
        exact-behind refresh) skips the watermark — any non-empty queue
        schedules — but still respects draining, coalescing and
        admission."""
        trigger = self.config.flush_trigger_depth
        if trigger is None and not force:
            return False
        with self._lock:
            if self._draining:
                return False
            if name in self._flush_scheduled:
                return True
            pending = self.service.pending(name)
            if pending == 0 or (not force and pending < trigger):
                return False
            if not self.admission.admit_flush(name):
                # The flush lanes are saturated; the queue keeps
                # filling until either a lane frees (a later submit
                # reschedules) or admission starts bouncing writes —
                # which is the contract.
                return False
            self._flush_scheduled.add(name)
        threading.Thread(target=self._background_flush, args=(name,),
                         name="repro-flush", daemon=True).start()
        return True

    def _background_flush(self, name: str) -> None:
        try:
            self._flush_blocking(name)
        except Exception:
            self.metrics.counter("background_flush_errors",
                                 tenant=name).inc()
        finally:
            self.admission.release_flush()
            with self._lock:
                self._flush_scheduled.discard(name)
                self._changed.notify_all()
        # Writes kept landing while we flushed; re-check the watermark.
        try:
            self._maybe_schedule_flush(name)
        except SessionError:
            pass  # tenant dropped mid-flight

    # -- shared handler helpers ------------------------------------------------

    def _tenant(self, name: str) -> None:
        """404 unless ``name`` is a hosted session."""
        if name not in self.service:
            raise HttpError(404, f"unknown tenant {name!r}")

    def _snapshot_view(self, name: str) -> RuleSnapshot:
        """The tenant's published snapshot; 409 until it is mined."""
        self._tenant(name)
        snapshot = self.service.snapshot(name)
        if snapshot.catalog is None:
            raise HttpError(409, f"tenant {name!r} has no mined rules "
                                 f"yet — POST /v1/{name}/mine first")
        return snapshot

    def _reject_writes_while_draining(self) -> None:
        if self._draining:
            raise HttpError(503, "server is draining; no new writes")

    def _admit_flush_slot(self, tenant: str) -> None:
        decision = self.admission.admit_flush(tenant)
        if not decision:
            raise HttpError(
                429, decision.reason,
                headers={"Retry-After":
                         retry_after_header(decision.retry_after)},
                extra={"retry_after": decision.retry_after})

    @staticmethod
    def _page_params(request: Request) -> tuple[int, int]:
        offset = request.int_param("offset", 0, minimum=0)
        limit = request.int_param("limit", DEFAULT_PAGE, minimum=1,
                                  maximum=MAX_PAGE)
        return offset, limit

    @staticmethod
    def _kind_param(request: Request) -> RuleKind | None:
        raw = request.param("kind")
        if raw is None:
            return None
        try:
            return parse_rule_kind(raw)
        except ServerError as error:
            raise HttpError(400, str(error)) from None

    @staticmethod
    def _metric_param(request: Request, name: str = "by",
                      default: str = "confidence") -> str:
        raw = request.param(name, default)
        try:
            return parse_metric(raw)
        except ServerError as error:
            raise HttpError(400, str(error)) from None

    @staticmethod
    def _estimate_metric_param(request: Request, name: str = "by") -> str:
        metric = request.param(name, "confidence")
        if metric not in ESTIMATE_METRICS:
            raise HttpError(
                400, f"estimate mode ranks by one of "
                     f"{', '.join(ESTIMATE_METRICS)}, got {metric!r}; "
                     f"significance metrics need exact mode")
        return metric

    @staticmethod
    def _confidence_level_param(request: Request) -> float | None:
        level = request.float_param("confidence_level")
        if level is not None and not 0.0 < level < 1.0:
            raise HttpError(400, f"confidence_level must be strictly "
                                 f"between 0 and 1, got {level}")
        return level

    def _take_estimate(self, request: Request, tenant: str, *,
                       n: int | None, metric: str,
                       kind: RuleKind | None):
        """Run the estimate read and kick the exact-behind refresh
        when anything is pending.  Returns
        ``(estimate, scheduled)``."""
        self._snapshot_view(tenant)  # 404/409 before any estimate work
        level = self._confidence_level_param(request)
        estimate = self.service.estimate(
            tenant, n=n, by=metric, kind=kind, confidence_level=level)
        scheduled = False
        if estimate.pending_events and not self._draining:
            try:
                scheduled = self._maybe_schedule_flush(tenant, force=True)
            except SessionError:
                pass  # tenant dropped mid-flight
        return estimate, scheduled

    @staticmethod
    def _estimate_payload(tenant: str, estimate) -> dict[str, Any]:
        return {
            "tenant": tenant,
            "revision": estimate.revision,
            "estimated": True,
            "db_size": estimate.db_size,
            "pending_events": estimate.pending_events,
            "overlay_rows": estimate.overlay_rows,
            "deferred_events": estimate.deferred_events,
            "z": estimate.z,
            "confidence_level": estimate.confidence_level,
            "count": len(estimate.rules),
            "rules": [estimated_rule_to_json(estimated,
                                             estimate.vocabulary)
                      for estimated in estimate.rules],
        }

    # -- operational endpoints -------------------------------------------------

    @_route("GET", r"^/healthz$", "healthz")
    def _handle_healthz(self, request: Request) -> tuple[int, dict]:
        return 200, {
            "status": "draining" if self._draining else "ok",
            "tenants": len(self.service.sessions()),
            "inflight_flushes": self.admission.inflight_flushes,
            "uptime_seconds": time.monotonic() - self._started_at,
        }

    @_route("GET", r"^/metrics$", "metrics")
    def _handle_metrics(self, request: Request) -> tuple[int, dict]:
        # Queue depths are sampled at scrape time so the gauge is live
        # even for tenants that have never crossed a flush trigger.
        names = self.service.sessions()
        for name in names:
            try:
                self.metrics.gauge("queue_depth", tenant=name).set(
                    self.service.pending(name))
            except SessionError:
                continue  # dropped between sessions() and pending()
            self._publish_journal_gauges(name)
        self.metrics.gauge("tenants").set(len(names))
        self.metrics.gauge("connections").set(len(self._connections))
        return 200, {
            "metrics": self.metrics.render(),
            "derived": {
                "snapshot_hit_rate":
                    self.instrumentation.snapshot_hit_rate(),
            },
        }

    # -- tenant lifecycle endpoints --------------------------------------------

    @_route("POST", r"^/v1/tenants$", "tenant_create")
    def _handle_tenant_create(self, request: Request) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        name, columns, mine, body = _checked_create_body(request)
        self._reject_writes_while_draining()  # it may have begun since
        # Tenant creation mines, which is blocking engine work: it
        # takes a flush lane.
        self._admit_flush_slot(name)
        try:
            create_tenant(
                self.service, name, columns=columns,
                rows=body.get("rows"), config=body.get("config"),
                mine=mine, default_engine=self.config.default_engine)
        finally:
            self.admission.release_flush()
        return 201, {"tenant": tenant_status(self.service, name)}

    @_route("GET", r"^/v1/tenants$", "tenant_list")
    def _handle_tenant_list(self, request: Request) -> tuple[int, dict]:
        return 200, {"tenants": [tenant_status(self.service, name)
                                 for name in self.service.sessions()]}

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)$", "tenant_status")
    def _handle_tenant_status(self, request: Request, *,
                              tenant: str) -> tuple[int, dict]:
        self._tenant(tenant)
        return 200, tenant_status(self.service, tenant)

    @_route("DELETE", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)$", "tenant_drop")
    def _handle_tenant_drop(self, request: Request, *,
                            tenant: str) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        self._tenant(tenant)
        force = request.flag_param("force")
        try:
            self.service.drop(tenant, force=force)
        except SessionError as error:
            if "queued event" in str(error):
                # Pending writes refuse a silent drop; the caller must
                # either flush first or opt into discarding them.
                raise HttpError(409, str(error),
                                extra={"hint": "retry with ?force=true "
                                               "to discard queued "
                                               "events"}) from None
            raise
        self.admission.forget(tenant)
        return 200, {"dropped": tenant, "forced": force}

    # -- read endpoints (lock-free: served from the published snapshot) --------

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/rules$", "rules")
    def _handle_rules(self, request: Request, *,
                      tenant: str) -> tuple[int, dict]:
        snapshot = self._snapshot_view(tenant)
        kind = self._kind_param(request)
        metric = self._metric_param(request)
        offset, limit = self._page_params(request)
        query = snapshot.catalog.query()
        if kind is not None:
            query = query.of_kind(kind)
        total = query.count()
        rules = query.order_by(metric).page(offset, limit).all()
        return 200, {
            "tenant": tenant,
            "revision": snapshot.revision,
            "db_size": snapshot.db_size,
            "order_by": metric,
            "total": total,
            "offset": offset,
            "count": len(rules),
            "rules": [rule_to_json(rule, snapshot.vocabulary)
                      for rule in rules],
        }

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/rules/top$",
            "rules_top")
    def _handle_rules_top(self, request: Request, *,
                          tenant: str) -> tuple[int, dict]:
        snapshot = self._snapshot_view(tenant)
        n = request.int_param("n", 10, minimum=1, maximum=MAX_PAGE)
        kind = self._kind_param(request)
        if request.flag_param("estimate"):
            metric = self._estimate_metric_param(request)
            estimate, scheduled = self._take_estimate(
                request, tenant, n=n, metric=metric, kind=kind)
            payload = self._estimate_payload(tenant, estimate)
            payload["metric"] = metric
            payload["flush_scheduled"] = scheduled
            return 200, payload
        metric = self._metric_param(request)
        query = snapshot.catalog.query()
        if kind is not None:
            query = query.of_kind(kind)
        rules = query.top(n, by=metric)
        # A significance-ordered listing shows the numbers it sorted
        # by; base-metric listings stay byte-identical to before.
        significance = (snapshot.catalog
                        if metric in SIGNIFICANCE_METRICS else None)
        return 200, {
            "tenant": tenant,
            "revision": snapshot.revision,
            "db_size": snapshot.db_size,
            "metric": metric,
            "count": len(rules),
            "rules": [rule_to_json(rule, snapshot.vocabulary, significance)
                      for rule in rules],
        }

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/rules/for-item$",
            "rules_for_item")
    def _handle_rules_for_item(self, request: Request, *,
                               tenant: str) -> tuple[int, dict]:
        snapshot = self._snapshot_view(tenant)
        token = request.param("token")
        if token is None:
            raise HttpError(400, "query parameter 'token' is required")
        role = request.param("role", "any")
        if role not in ("any", "rhs"):
            raise HttpError(400, f"role must be 'any' or 'rhs', "
                                 f"got {role!r}")
        offset, limit = self._page_params(request)
        item = resolve_item(snapshot.vocabulary, token)
        rules: tuple = ()
        total = 0
        if item is not None:
            query = snapshot.catalog.query()
            query = (query.with_rhs(item) if role == "rhs"
                     else query.mentioning(item))
            total = query.count()
            rules = (query.order_by("confidence")
                     .page(offset, limit).all())
        return 200, {
            "tenant": tenant,
            "revision": snapshot.revision,
            "db_size": snapshot.db_size,
            "token": token,
            "role": role,
            "total": total,
            "offset": offset,
            "count": len(rules),
            "rules": [rule_to_json(rule, snapshot.vocabulary)
                      for rule in rules],
        }

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/query$", "query")
    def _handle_query(self, request: Request, *,
                      tenant: str) -> tuple[int, dict]:
        snapshot = self._snapshot_view(tenant)
        kind = self._kind_param(request)
        if request.flag_param("estimate"):
            return self._handle_query_estimate(request, tenant,
                                                     kind=kind)
        query = snapshot.catalog.query()
        if kind is not None:
            query = query.of_kind(kind)
        for floor_name in ("min_support", "min_confidence", "min_lift"):
            value = request.float_param(floor_name)
            if value is not None:
                query = getattr(query, floor_name)(value)
        significance_touched = False
        chi_floor = request.float_param("min_chi_square")
        if chi_floor is not None:
            query = query.min_chi_square(chi_floor)
            significance_touched = True
        p_ceiling = request.float_param("max_p_value")
        if p_ceiling is not None:
            query = query.max_p_value(p_ceiling)
            significance_touched = True
        for token_param, role in (("mentioning", "any"), ("rhs", "rhs")):
            token = request.param(token_param)
            if token is None:
                continue
            item = resolve_item(snapshot.vocabulary, token)
            if item is None:
                # A token the vocabulary never interned matches nothing.
                query = query.where(lambda rule: False,
                                    label=f"unknown token {token!r}")
            elif role == "rhs":
                query = query.with_rhs(item)
            else:
                query = query.mentioning(item)
        metric = self._metric_param(request, "order_by")
        offset, limit = self._page_params(request)
        query = query.order_by(metric)
        total = query.count()
        paged = query.page(offset, limit)
        rules = paged.all()
        significance = (snapshot.catalog
                        if significance_touched
                        or metric in SIGNIFICANCE_METRICS else None)
        payload = {
            "tenant": tenant,
            "revision": snapshot.revision,
            "db_size": snapshot.db_size,
            "order_by": metric,
            "total": total,
            "offset": offset,
            "count": len(rules),
            "rules": [rule_to_json(rule, snapshot.vocabulary, significance)
                      for rule in rules],
        }
        if request.flag_param("explain"):
            payload["explain"] = paged.explain().describe()
        return 200, payload

    def _handle_query_estimate(self, request: Request, tenant: str,
                               *, kind: RuleKind | None
                               ) -> tuple[int, dict]:
        """The ``estimate=true`` leg of ``/query``: floors filter the
        *estimated* metrics, ordering is an estimate metric, and every
        returned value carries its bound.  Significance floors are an
        exact-tier feature — combining them with estimate mode is a
        client error, not a silent downgrade."""
        if (request.float_param("min_chi_square") is not None
                or request.float_param("max_p_value") is not None):
            raise HttpError(
                400, "min_chi_square / max_p_value need exact mode — "
                     "significance is computed from exact contingency "
                     "tables, not estimates")
        for unsupported in ("mentioning", "rhs"):
            if request.param(unsupported) is not None:
                raise HttpError(
                    400, f"query parameter {unsupported!r} is not "
                         f"supported with estimate=true")
        metric = self._estimate_metric_param(request, "order_by")
        offset, limit = self._page_params(request)
        floors = [(name, request.float_param(name))
                  for name in ("min_support", "min_confidence",
                               "min_lift")]
        estimate, scheduled = self._take_estimate(
            request, tenant, n=None, metric=metric, kind=kind)
        matched = [
            estimated for estimated in estimate.rules
            if all(value is None
                   or estimated.metric(name.removeprefix("min_")) >= value
                   for name, value in floors)
        ]
        payload = self._estimate_payload(tenant, estimate)
        payload["rules"] = [
            estimated_rule_to_json(estimated, estimate.vocabulary)
            for estimated in matched[offset:offset + limit]]
        payload.update({
            "order_by": metric,
            "total": len(matched),
            "offset": offset,
            "count": len(payload["rules"]),
            "flush_scheduled": scheduled,
        })
        return 200, payload

    @_route("GET", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/verify$", "verify")
    def _handle_verify(self, request: Request, *,
                       tenant: str) -> tuple[int, dict]:
        self._tenant(tenant)
        # A verify is a full re-mine — blocking engine work on a flush
        # lane, same as mine, even though it mutates nothing.
        self._admit_flush_slot(tenant)
        try:
            result = self.service.verify(tenant)
        finally:
            self.admission.release_flush()
        return 200, {
            "tenant": tenant,
            "equivalent": result.equivalent,
            "detail": result.explain(),
        }

    # -- write endpoints -------------------------------------------------------

    def _submit_events(self, tenant: str, events: list) -> tuple[int, dict]:
        self._tenant(tenant)
        depth = 0
        # Check and queue as one step, so writers racing on other
        # connections cannot overshoot the bound together.
        with self._submit_lock:
            decision = self.admission.admit_events(
                tenant, pending=self.service.pending(tenant),
                incoming=len(events))
            if decision:
                for event in events:
                    depth = self.service.submit(tenant, event)
        if not decision:
            raise HttpError(
                429, decision.reason,
                headers={"Retry-After":
                         retry_after_header(decision.retry_after)},
                extra={"retry_after": decision.retry_after,
                       "queue_depth": decision.queue_depth,
                       "limit": decision.limit})
        self.metrics.gauge("queue_depth", tenant=tenant).set(depth)
        scheduled = self._maybe_schedule_flush(tenant)
        return 202, {
            "tenant": tenant,
            "queued": len(events),
            "queue_depth": depth,
            "flush_scheduled": scheduled,
        }

    @_route("POST", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/events$", "events")
    def _handle_events(self, request: Request, *,
                       tenant: str) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        try:
            event = event_from_json(request.json(), ServerError)
        except ServerError as error:
            raise HttpError(400, str(error)) from None
        return self._submit_events(tenant, [event])

    @_route("POST", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/events:batch$",
            "events_batch")
    def _handle_events_batch(self, request: Request, *,
                             tenant: str) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
                body.get("events"), list):
            raise HttpError(400, "batch body must be "
                                 "{\"events\": [event, ...]}")
        raw_events = body["events"]
        if not raw_events:
            raise HttpError(400, "batch body must contain at least one "
                                 "event")
        try:
            events = [event_from_json(raw, ServerError)
                      for raw in raw_events]
        except ServerError as error:
            raise HttpError(400, str(error)) from None
        return self._submit_events(tenant, events)

    @_route("POST", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/flush$", "flush")
    def _handle_flush(self, request: Request, *,
                      tenant: str) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        self._tenant(tenant)
        self._admit_flush_slot(tenant)
        try:
            report = self._flush_blocking(tenant)
        finally:
            self.admission.release_flush()
        snapshot = self.service.snapshot(tenant)
        return 200, {
            "tenant": tenant,
            "events_applied": report.events,
            "duration_seconds": report.duration_seconds,
            "db_size": report.db_size,
            "rules_added": len(report.rules_added),
            "rules_dropped": len(report.rules_dropped),
            "revision": snapshot.revision,
            "rules": len(snapshot),
        }

    @_route("POST", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/mine$", "mine")
    def _handle_mine(self, request: Request, *,
                     tenant: str) -> tuple[int, dict]:
        self._reject_writes_while_draining()
        self._tenant(tenant)
        self._admit_flush_slot(tenant)
        try:
            report = self.service.mine(tenant)
        finally:
            self.admission.release_flush()
        snapshot = self.service.snapshot(tenant)
        return 200, {
            "tenant": tenant,
            "duration_seconds": report.duration_seconds,
            "db_size": snapshot.db_size,
            "revision": snapshot.revision,
            "rules": len(snapshot),
        }

    # -- durability endpoints --------------------------------------------------

    @_route("POST", r"^/v1/(?P<tenant>[A-Za-z0-9._-]+)/checkpoint$",
            "checkpoint")
    def _handle_checkpoint(self, request: Request, *,
                           tenant: str) -> tuple[int, dict]:
        self._tenant(tenant)
        status = self.service.journal_status(tenant)
        if status is None:
            raise HttpError(409, f"tenant {tenant!r} has no journal — "
                                 f"the server was started without "
                                 f"--journal-dir")
        result = self.service.checkpoint(tenant)
        self._publish_journal_gauges(tenant)
        return 200, {"tenant": tenant, "journal": result}


def _response_bytes(status: int, payload: dict[str, Any],
                    headers: dict[str, str], *, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    headers.setdefault("Content-Type", "application/json")
    headers["Content-Length"] = str(len(body))
    headers["Connection"] = "keep-alive" if keep_alive else "close"
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _session_error_response(error: SessionError) -> tuple[int, dict]:
    message = str(error)
    return (404 if "unknown session" in message else 409), {"error": message}


_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable",
}
