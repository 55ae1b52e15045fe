"""Served workloads: ``python -m repro serve`` in its own process, over HTTP.

The load comes from this process alone: at most two threads, each with
one keep-alive connection, because the box has two CPUs and the server
needs them.  Load is open loop: every request has a due time fixed
before the run, and its latency counts from that due time, so a stall
is also charged to the requests it delays.  ``gen.late_frac`` reports
how often the generator itself fell behind.

A run sets the server up ``setups`` times (``setup_s`` is spawn to the
first successful read, tenant creation and mining included; ``mine_s``
is each ``POST /v1/{tenant}/mine``), keeps the last one, warms it up,
measures the window, and checks every answer.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.core.journal import event_to_json
from repro.core.rules import RuleKind
from repro.mining.itemsets import Item, ItemKind

from benchmarks.suite.common import (
    ROOT,
    Result,
    child_env,
    peak_rss_mb,
    share,
)
from benchmarks.suite.stats import highest_tail, median
from benchmarks.suite.streams import (
    Row,
    StationaryStream,
    make_inputs,
    relation_from_rows,
)
from benchmarks.suite.workloads import WARMUP_SHARE, Scale, Workload

#: A request sent this long after its due time counts as late.
LATE_SECONDS = 0.001

#: serve-ingest writes: events per ``events:batch`` POST, and POSTs per
#: ``POST /flush``.
EVENTS_PER_POST = 8
POSTS_PER_FLUSH = 2

#: serve-read's tenants hold two different relations.
TENANT_DATA_SEEDS = (11, 12)

#: Server route ids of the exact-read endpoints.
READ_ROUTES = ("rules", "rules_top", "query", "rules_for_item")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``python -m repro serve`` child on a private port."""

    def __init__(self, workdir: Path, args: list[str]) -> None:
        self.port = _free_port()
        self.log = workdir / f"server-{self.port}.log"
        with open(self.log, "wb") as log:
            self.spawned_at = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", str(self.port), *args],
                cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT)

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Poll ``/healthz`` until it answers 200; returns the seconds
        since the spawn."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}: "
                    f"{self.log.read_text(errors='replace')}")
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.spawned_at
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def rss_peak_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=60)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to SIGKILL."""
        if self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()


class Client:
    """One keep-alive connection speaking the server's JSON API."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def expect(self, status: int, method: str, path: str,
               body: bytes | None = None) -> dict:
        got, data = self.call(method, path, body)
        if got != status:
            raise RuntimeError(f"{method} {path} answered {got}, expected "
                               f"{status}: {data[:300]!r}")
        return json.loads(data)

    def reconnect(self) -> None:
        self._connection.close()
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=120)

    def close(self) -> None:
        self._connection.close()


# -- open-loop load ----------------------------------------------------------

@dataclass(frozen=True)
class Request:
    #: Due time (``perf_counter`` seconds), or ``None``: due as soon as
    #: the previous request on the connection completes.
    due: float | None
    #: The server's route id (its ``http_request_seconds`` label).
    route: str
    #: What the request is to the workload: read, estimate, ingest or
    #: commit.
    kind: str
    method: str
    path: str
    body: bytes | None = None


@dataclass
class Sample:
    request: Request
    due: float
    sent: float
    done: float
    status: int
    digest: int

    @property
    def latency(self) -> float:
        """From due time to response (the open-loop latency)."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """From send to response."""
        return self.done - self.sent


def drive(port: int, requests: Iterable[Request], samples: list[Sample],
          first_bodies: dict[str, bytes]) -> None:
    """Send ``requests`` in order on one connection, each at its due
    time.  Keeps the first 200 body per path and a digest of every
    body; a request that raises is recorded with status 0."""
    client = Client(port)
    try:
        for request in requests:
            if request.due is not None:
                wait = request.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, data = client.call(request.method, request.path,
                                           request.body)
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
                client.reconnect()
            done = time.perf_counter()
            if status == 200:
                first_bodies.setdefault(request.path, data)
            samples.append(Sample(
                request=request,
                due=sent if request.due is None else request.due,
                sent=sent, done=done, status=status, digest=hash(data)))
    finally:
        client.close()


def run_load(port: int, lanes: list[list[Request]]
             ) -> tuple[list[Sample], dict[str, bytes]]:
    """One thread per lane (at most two); returns every sample and the
    first body seen per path."""
    if len(lanes) > 2:
        raise ValueError("the load generator uses at most two connections")
    samples: list[list[Sample]] = [[] for _ in lanes]
    bodies: list[dict[str, bytes]] = [{} for _ in lanes]
    errors: list[BaseException] = []

    def lane(index: int) -> None:
        try:
            drive(port, lanes[index], samples[index], bodies[index])
        except BaseException as error:  # re-raised after the join
            errors.append(error)

    threads = [threading.Thread(target=lane, args=(index,))
               for index in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    first_bodies: dict[str, bytes] = {}
    for lane_bodies in bodies:
        for path, data in lane_bodies.items():
            first_bodies.setdefault(path, data)
    return [sample for lane_samples in samples
            for sample in lane_samples], first_bodies


def _schedule(start: float, rate: float, until: float) -> list[float]:
    return [start + index / rate
            for index in range(int((until - start) * rate))]


def _of_kind(samples: list[Sample], kind: str, since: float) -> list[float]:
    """Open-loop latencies of one kind of request due at or after
    ``since``."""
    return [sample.latency for sample in samples
            if sample.request.kind == kind and sample.due >= since]


def _late_frac(samples: list[Sample]) -> float:
    scheduled = [sample for sample in samples
                 if sample.request.due is not None]
    late = sum(sample.sent - sample.due > LATE_SECONDS
               for sample in scheduled)
    return share(late, len(scheduled))


def _report_tail(result: Result, name: str, latencies: list[float]) -> None:
    tail = highest_tail(latencies)
    if tail is not None:
        result.detail[f"{name}_ms_p{tail[0]:g}"] = (tail[1] * 1000.0, "ms")


# -- /metrics deltas -----------------------------------------------------------

class MetricsDelta:
    """Difference of two ``GET /metrics`` documents (``before`` may be
    ``None``: everything since the server started)."""

    def __init__(self, before: dict | None, after: dict) -> None:
        self._before = before["metrics"] if before is not None else {}
        self._after = after["metrics"]

    @staticmethod
    def _entry(metrics: dict, name: str, labels: str | None) -> dict:
        entry = metrics.get(name, {})
        if labels is not None:
            entry = entry.get("series", {}).get(labels, {})
        return entry

    def histogram(self, name: str, labels: str | None = None
                  ) -> tuple[int, float]:
        """``(count, sum)`` of the observations made in between."""
        after = self._entry(self._after, name, labels)
        before = self._entry(self._before, name, labels)
        return (after.get("count", 0) - before.get("count", 0),
                after.get("sum", 0.0) - before.get("sum", 0.0))

    def total(self, name: str) -> float:
        """Change of a counter or gauge, summed over its label series."""
        def value(metrics: dict) -> float:
            entry = metrics.get(name, {})
            if "series" in entry:
                return sum(series["value"]
                           for series in entry["series"].values())
            return entry.get("value", 0)
        return value(self._after) - value(self._before)


def _report_server_layers(result: Result, setup: MetricsDelta,
                          load: MetricsDelta,
                          samples: list[Sample]) -> None:
    """Per-layer shares: the server's own counters against the client's
    timings of the same requests.  ``setup`` spans the final set-up
    (its mines), ``load`` the warm-up and the measured window."""
    metrics = result.metrics
    client: dict[str, float] = {}
    for sample in samples:
        route = sample.request.route
        client[route] = client.get(route, 0.0) + sample.service
    handler_total = client_total = 0.0
    overruns = []
    for route, seconds in client.items():
        _, handler = load.histogram("http_request_seconds", f"route={route}")
        metrics[f"server.handler_share.{route}"] = share(handler, seconds)
        if handler > seconds:
            overruns.append(route)
        if route in READ_ROUTES:
            handler_total += handler
            client_total += seconds
    metrics["server.outside_handler_share"] = (
        1.0 - handler_total / client_total if client_total else 0.0)
    result.check("handler time within client latency", not overruns,
                 ", ".join(overruns))

    metrics["admission.rejected"] = load.total("admission_rejected")

    _, flush_wall = load.histogram("service_flush_seconds")
    flush_phases = {phase: load.histogram("service_phase_seconds",
                                          f"phase={phase}")[1]
                    for phase in ("apply", "refresh")}
    appended = load.histogram("service_journal_append_seconds")[1]
    metrics["service.phase.apply_share"] = share(flush_phases["apply"],
                                                 flush_wall)
    metrics["service.phase.refresh_share"] = share(flush_phases["refresh"],
                                                   flush_wall)
    metrics["journal.append_share"] = share(appended, flush_wall)
    estimates, estimate_wall = load.histogram("service_estimate_seconds")
    client_estimates = [sample.service for sample in samples
                        if sample.request.kind == "estimate"]
    if estimates and client_estimates:
        metrics["service.estimate_share"] = (
            (estimate_wall / estimates)
            / (sum(client_estimates) / len(client_estimates)))

    _, mine_wall = setup.histogram("http_request_seconds", "route=mine")
    mine_phases = {phase: setup.histogram("service_phase_seconds",
                                          f"phase={phase}")[1]
                   for phase in ("encode", "mine", "refresh")}
    for phase, seconds in mine_phases.items():
        metrics[f"engine.mine.{phase}_share"] = share(seconds, mine_wall)
    mine_sum = sum(mine_phases.values())
    flush_sum = sum(flush_phases.values()) + appended
    result.check("phases sum within the wall of their call",
                 mine_sum <= mine_wall and flush_sum <= flush_wall,
                 f"mine {mine_sum:.4f}/{mine_wall:.4f} s, "
                 f"flush {flush_sum:.4f}/{flush_wall:.4f} s")


# -- set-up --------------------------------------------------------------------

def _tenant_body(name: str, rows: list[Row], scale: Scale) -> bytes:
    return json.dumps({
        "name": name,
        "rows": [[list(values), list(annotations)]
                 for values, annotations in rows],
        "config": {"min_support": scale.min_support,
                   "min_confidence": scale.min_confidence},
        "mine": False,
    }).encode()


def _set_up(workdir: Path, args: list[str], tenants: dict[str, bytes],
            first_read: str, mines: list[float]) -> tuple[ServerProcess,
                                                          float]:
    """Spawn a server, create and mine every tenant, read once.
    Returns the server and the seconds from spawn to that read."""
    server = ServerProcess(workdir, args)
    try:
        server.wait_healthy()
        client = Client(server.port)
        try:
            for name, body in tenants.items():
                client.expect(201, "POST", "/v1/tenants", body)
                started = time.perf_counter()
                client.expect(200, "POST", f"/v1/{name}/mine")
                mines.append(time.perf_counter() - started)
            client.expect(200, "GET", first_read)
            ready = time.perf_counter()
        finally:
            client.close()
    except BaseException:
        server.kill()
        raise
    return server, ready - server.spawned_at


def _set_up_repeatedly(scale: Scale, workdir: Path, args: list[str],
                       tenants: dict[str, bytes], first_read: str,
                       reset=None) -> tuple[ServerProcess, list[float],
                                            list[float]]:
    """``scale.setups`` set-ups; every server but the last is killed
    (and ``reset`` run after each kill)."""
    setups: list[float] = []
    mines: list[float] = []
    server = None
    for _ in range(scale.setups):
        if server is not None:
            server.kill()
            if reset is not None:
                reset()
        server, seconds = _set_up(workdir, args, tenants, first_read,
                                  mines)
        setups.append(seconds)
    return server, setups, mines


def _rule_identities(rules: list[dict]) -> list[tuple]:
    return [(rule["kind"], tuple(sorted(rule["lhs"])), rule["rhs"],
             rule["union_count"], rule["lhs_count"]) for rule in rules]


# -- serve-read ----------------------------------------------------------------

#: The read mix: route id, path (``{t}`` is the tenant), the metric the
#: answer is ordered by, and its length limit.
READS = (
    ("rules", "/v1/{t}/rules?limit=20", "confidence", 20),
    ("rules_top", "/v1/{t}/rules/top?n=10&by=lift", "lift", 10),
    ("rules_top", "/v1/{t}/rules/top?n=10&by=p_value", "p_value", 10),
    ("query", "/v1/{t}/query?kind=data-to-annotation&min_confidence=0.7"
              "&order_by=support&limit=20", "support", 20),
    ("rules_for_item", "/v1/{t}/rules/for-item?token=Annot_1&role=rhs"
                       "&limit=20", "confidence", 20),
)


def _oracle(rows: list[Row], scale: Scale, tenant: str
            ) -> dict[str, tuple[int, list[tuple[tuple, tuple]]]]:
    """Every read path's full, unwindowed answer, computed in this
    process by the library from the rows the tenant was created from:
    ``path -> (limit, [(tie class, rule identity), ...])``.

    Rules equal on every ordering metric are ordered by item id, and
    item ids follow the set-iteration order of annotation strings,
    which differs between processes; so the check compares tie
    classes position by position, not the order within a class.
    """
    engine = repro.engine(relation_from_rows(rows),
                          min_support=scale.min_support,
                          min_confidence=scale.min_confidence)
    engine.mine()
    vocabulary = engine.vocabulary
    catalog = engine.catalog()
    annotation = vocabulary.id_of(Item(ItemKind.ANNOTATION, "Annot_1"))
    query = catalog.query()
    filtered = (query, query, query,
                query.of_kind(RuleKind.DATA_TO_ANNOTATION).min_confidence(0.7),
                query.with_rhs(annotation))
    answers = {}
    for (_route, path, metric, limit), base in zip(READS, filtered):
        secondary = "support" if metric == "confidence" else "confidence"
        answers[path.format(t=tenant)] = (limit, [
            ((catalog.metric_value(rule, metric),
              getattr(rule, secondary), rule.kind.value),
             (rule.kind.value,
              tuple(sorted(vocabulary.item(item).token
                           for item in rule.lhs)),
              vocabulary.item(rule.rhs).token,
              rule.union_count, rule.lhs_count))
            for rule in base.order_by(metric).all()])
    return answers


def _answers_match(served: list[tuple], limit: int,
                   expected: list[tuple[tuple, tuple]]) -> bool:
    if len(served) != min(limit, len(expected)) \
            or len(set(served)) != len(served):
        return False
    classes: dict[tuple, set[tuple]] = {}
    for tie_class, identity in expected:
        classes.setdefault(tie_class, set()).add(identity)
    return all(identity in classes[expected[position][0]]
               for position, identity in enumerate(served))


def run_serve_read(workload: Workload, *, seed: int, seconds: float,
                   trace: bool, smoke: bool, workdir: Path) -> Result:
    scale = workload.scale(smoke)
    result = Result(workload.name, traced=trace)
    tenants = ("alpha", "beta")
    rows = {tenant: make_inputs(workload.generate, scale.n_tuples, seed,
                                data_seed=data_seed).rows
            for tenant, data_seed in zip(tenants, TENANT_DATA_SEEDS)}
    bodies = {tenant: _tenant_body(tenant, rows[tenant], scale)
              for tenant in tenants}
    expected: dict[str, tuple[int, list]] = {}
    for tenant in tenants:
        expected.update(_oracle(rows[tenant], scale, tenant))
    mix = [(route, path.format(t=tenant))
           for tenant in tenants for route, path, _, _ in READS]
    rng = random.Random(seed)

    server, setups, mines = _set_up_repeatedly(
        scale, workdir, [], bodies, mix[1][1])
    try:
        client = Client(server.port)
        before = client.expect(200, "GET", "/metrics") if trace else None
        client.close()
        start = time.perf_counter() + 0.05
        window_start = start + seconds * WARMUP_SHARE
        requests = []
        for due in _schedule(start, scale.read_rate, window_start + seconds):
            route, path = rng.choice(mix)
            requests.append(Request(due, route, "read", "GET", path))
        samples, first_bodies = run_load(server.port,
                                         [requests[0::2], requests[1::2]])
        rss = server.rss_peak_mb()
        if trace:
            traced = time.perf_counter()
            client = Client(server.port)
            after = client.expect(200, "GET", "/metrics")
            verify_started = time.perf_counter()
            verification = client.expect(200, "GET", "/v1/alpha/verify")
            remine_s = time.perf_counter() - verify_started
            rules = client.expect(200, "GET", "/v1/alpha")["rules"]
            client.close()
    finally:
        server.stop()

    result.attempted = len(samples)
    result.failed = sum(sample.status != 200 for sample in samples)
    result.check("every response is 200", result.failed == 0,
                 f"{result.failed} of {len(samples)} failed")
    digests = {path: hash(data) for path, data in first_bodies.items()}
    result.check("repeated reads return identical bodies",
                 all(sample.digest == digests[sample.request.path]
                     for sample in samples if sample.status == 200))
    wrong = [path for path, data in first_bodies.items()
             if not _answers_match(
                 _rule_identities(json.loads(data)["rules"]),
                 *expected[path])]
    result.check("answers match the in-process oracle", not wrong,
                 ", ".join(wrong))

    measured = _of_kind(samples, "read", window_start)
    if trace:
        _report_server_layers(result, MetricsDelta(None, before),
                              MetricsDelta(before, after), samples)
        result.check("server verify equivalent",
                     verification["equivalent"], verification["detail"])
        result.metrics["baseline.remine_s"] = remine_s
        result.metrics["engine.rules"] = rules
        result.metrics["gen.late_frac"] = _late_frac(samples)
        # The tracer only reads /metrics outside the load; its cost is
        # charged against the load's wall time all the same.
        result.metrics["trace.overhead_frac"] = share(
            verify_started - traced, traced - start)
    result.record("setup_s", median(setups))
    result.record("mine_s", median(mines))
    result.record("op_ms_p50", median(measured) * 1000.0)
    result.record("rss_peak_mb", rss)
    result.detail["reads"] = (len(measured), "count")
    _report_tail(result, "read", measured)
    return result


# -- serve-ingest --------------------------------------------------------------

def _disk_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def run_serve_ingest(workload: Workload, *, seed: int, seconds: float,
                     trace: bool, smoke: bool, workdir: Path) -> Result:
    scale = workload.scale(smoke)
    result = Result(workload.name, traced=trace)
    tenant = "ingest"
    inputs = make_inputs(workload.generate, scale.n_tuples, seed)
    journal = workdir / "journal"
    args = ["--journal-dir", str(journal)]
    exact = f"/v1/{tenant}/rules/top?n=10&by=lift"
    estimate = f"{exact}&estimate=true"
    listing = f"/v1/{tenant}/rules?limit=1000"

    server, setups, mines = _set_up_repeatedly(
        scale, workdir, args,
        {tenant: _tenant_body(tenant, inputs.rows, scale)}, exact,
        reset=lambda: shutil.rmtree(journal))
    restarted = None
    try:
        client = Client(server.port)
        before = client.expect(200, "GET", "/metrics") if trace else None
        snapshots_before = len(
            client.expect(200, "GET", f"/v1/{tenant}")["journal"]
            ["snapshots"])
        client.close()
        bytes_before = _disk_bytes(journal)

        stream = StationaryStream(inputs.rows, inputs.insert_pool,
                                  seed=inputs.stream_seed)
        start = time.perf_counter() + 0.05
        window_start = start + seconds * WARMUP_SHARE
        window_end = window_start + seconds
        writes: list[Request] = []
        for index, due in enumerate(_schedule(start, scale.write_rate,
                                              window_end)):
            events = [event_to_json(event)
                      for event in stream.batch(EVENTS_PER_POST)]
            writes.append(Request(
                due, "events_batch", "ingest", "POST",
                f"/v1/{tenant}/events:batch",
                json.dumps({"events": events}).encode()))
            if index % POSTS_PER_FLUSH == POSTS_PER_FLUSH - 1:
                # The estimate follows the commit while nothing is
                # pending: an estimate read that sees pending events
                # schedules a background flush, which would make every
                # commit drain a different, timing-dependent remainder.
                writes += [Request(None, "flush", "commit", "POST",
                                   f"/v1/{tenant}/flush"),
                           Request(None, "rules_top", "estimate", "GET",
                                   estimate)]
        reads = [Request(due, "rules_top", "read", "GET", exact)
                 for due in _schedule(start, scale.read_rate, window_end)]
        samples, _ = run_load(server.port, [writes, reads])

        client = Client(server.port)
        if trace:
            traced = time.perf_counter()
            after = client.expect(200, "GET", "/metrics")
            traced = time.perf_counter() - traced
        client.expect(200, "POST", f"/v1/{tenant}/flush")
        captured = client.expect(200, "GET", listing)
        status = client.expect(200, "GET", f"/v1/{tenant}")
        rss = server.rss_peak_mb()
        client.close()
        bytes_after = _disk_bytes(journal)

        server.kill()
        restarted = ServerProcess(workdir, args)
        restart_s = restarted.wait_healthy()
        client = Client(restarted.port)
        recovered = client.expect(200, "GET", listing)
        verify_started = time.perf_counter()
        verification = client.expect(200, "GET", f"/v1/{tenant}/verify")
        remine_s = time.perf_counter() - verify_started
        if trace:
            replayed = MetricsDelta(None, client.expect(
                200, "GET", "/metrics")).total("journal_replayed_records")
        client.close()
    finally:
        server.kill()
        if restarted is not None:
            restarted.stop()

    expected_status = {"ingest": 202, "commit": 200, "read": 200,
                       "estimate": 200}
    result.attempted = len(samples)
    result.failed = sum(sample.status != expected_status[sample.request.kind]
                        for sample in samples)
    result.check("every write accepted and every read answered",
                 result.failed == 0,
                 f"{result.failed} of {len(samples)} failed")
    result.check("recovered rules equal the rules before SIGKILL",
                 sorted(_rule_identities(recovered["rules"]))
                 == sorted(_rule_identities(captured["rules"]))
                 and recovered["db_size"] == captured["db_size"],
                 f"{len(captured['rules'])} rules at revision "
                 f"{captured['revision']}")
    result.check("verify after recovery equivalent",
                 verification["equivalent"], verification["detail"])
    result.check_stationary(scale.n_tuples, captured["db_size"],
                            len(captured["rules"]))

    commits = _of_kind(samples, "commit", window_start)
    if trace:
        load = MetricsDelta(before, after)
        _report_server_layers(result, MetricsDelta(None, before), load,
                              samples)
        metrics = result.metrics
        flushes, flush_wall = load.histogram("service_flush_seconds")
        events = EVENTS_PER_POST * sum(
            sample.request.kind == "ingest" for sample in samples)
        metrics.update({
            "engine.flush.speedup_vs_remine": share(
                remine_s, flush_wall / flushes if flushes else 0.0),
            "baseline.remine_s": remine_s,
            "engine.rules": len(captured["rules"]),
            "catalog.builds_per_op": share(
                load.total("service_snapshot_misses"),
                sum(sample.request.kind == "commit" for sample in samples)),
            "journal.bytes_per_event": share(bytes_after - bytes_before,
                                             events),
            "journal.snapshots": (len(status["journal"]["snapshots"])
                                  - snapshots_before),
            "journal.replayed_records": replayed,
            "gen.late_frac": _late_frac(samples),
            "trace.overhead_frac": share(traced, window_end - start),
        })
    result.record("setup_s", median(setups))
    result.record("mine_s", median(mines))
    result.record("op_ms_p50", median(commits) * 1000.0)
    result.record("rss_peak_mb", rss)
    result.record("restart_s", restart_s)
    for kind in ("read", "estimate", "ingest", "commit"):
        latencies = _of_kind(samples, kind, window_start)
        if kind != "commit":  # the commit median is op_ms_p50
            result.detail[f"{kind}_ms_p50"] = (median(latencies) * 1000.0,
                                               "ms")
        result.detail[f"{kind}s"] = (len(latencies), "count")
        _report_tail(result, kind, latencies)
    return result
