"""E12 — the serving tier under concurrency: reads racing writes.

The serving claim of the stack is that the read path never queues
behind the write path: read endpoints answer from the tenant's cached
frozen snapshot, while flushes run on their own threads behind an
admission bound.  This experiment measures that claim from the *client side* of
a real socket:

1. **read-only baseline** — concurrent reader threads replay a mixed
   endpoint log (rules, top-k, for-item, query) and we take client
   p50/p99;
2. **mixed load** — the same readers race writer threads that stream
   annotation events through the watermark-triggered background
   flushes.  Acceptance: mixed-load read p99 stays under 10x the
   read-only p99 (reads degrade, but never collapse behind flushes);
3. **saturation** — a tenant with a tiny queue bound is hammered past
   it.  Acceptance: the overflow answers are 429s (bounded memory,
   honest backpressure), not buffering or failure;
4. **drain** — the server shuts down with queued events everywhere and
   every tenant must pass incremental-vs-remine ``verify()`` after the
   drain flush.

Every scenario appends a machine-readable row to
``benchmarks/out/BENCH_serving.json`` (p50/p99 in milliseconds) next
to the human-readable record.

CI smoke shrinks the scale: ``REPRO_SERVE_TUPLES``,
``REPRO_SERVE_READERS``, ``REPRO_SERVE_REQUESTS``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time

import pytest

from repro.core.config import EngineConfig
from repro.server import CorrelationServer, ServerConfig
from repro.synth import workloads
from benchmarks._harness import OUT_DIR, fmt_ms, record

N_TUPLES = int(os.environ.get("REPRO_SERVE_TUPLES", "800"))
N_READERS = int(os.environ.get("REPRO_SERVE_READERS", "4"))
N_WRITERS = int(os.environ.get("REPRO_SERVE_WRITERS", "2"))
#: Read requests per reader thread, per scenario.
N_REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "150"))
FULL_SCALE = N_TUPLES >= 800 and N_REQUESTS >= 150
#: Acceptance: mixed-load read p99 < this multiple of read-only p99.
DEGRADATION_CEILING = 10.0

JSON_PATH = os.path.join(OUT_DIR, "BENCH_serving.json")

READ_PATHS = (
    "/v1/{t}/rules?limit=10",
    "/v1/{t}/rules/top?n=5&by=lift",
    "/v1/{t}/query?min_confidence=0.5&order_by=support&limit=10",
)


class _Client:
    """One keep-alive connection with per-request latency capture."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body)
        started = time.perf_counter()
        self._conn.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        data = response.read()
        self.latencies.append(time.perf_counter() - started)
        self.statuses[response.status] = \
            self.statuses.get(response.status, 0) + 1
        return response.status, (json.loads(data) if data else None)

    def close(self) -> None:
        self._conn.close()


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _append_json_row(row: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    rows = []
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as handle:
            rows = json.load(handle)
    rows.append(row)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")


@pytest.fixture(scope="module", autouse=True)
def fresh_json_output():
    if os.path.exists(JSON_PATH):
        os.remove(JSON_PATH)


@pytest.fixture(scope="module")
def serving_workload():
    return workloads.dense_correlations(n_tuples=N_TUPLES, seed=47)


class ServerHarness:
    """The benchmark's threaded server + preloaded tenants."""

    TENANTS = ("alpha", "beta")

    def __init__(self, workload, **overrides) -> None:
        engine_config = EngineConfig(
            min_support=workload.min_support,
            min_confidence=workload.min_confidence)
        settings = dict(host="127.0.0.1", port=0,
                        default_engine=engine_config,
                        flush_watermark=0.5,
                        max_pending_events=2_000,
                        drain_timeout=120.0)
        settings.update(overrides)
        self.server = CorrelationServer(ServerConfig(**settings))
        for name in self.TENANTS:
            self.server.service.create(name, workload.relation.copy(),
                                       engine_config)
        self.server.start()

    def stop(self) -> None:
        self.server.shutdown()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self) -> _Client:
        return _Client(self.port)


def _read_loop(harness, tenant: str, requests: int,
               rng: random.Random) -> _Client:
    client = harness.client()
    for _ in range(requests):
        path = rng.choice(READ_PATHS).format(t=tenant)
        status, body = client.request("GET", path)
        assert status == 200, body
    return client


def _write_loop(harness, tenant: str, stop: threading.Event,
                rng: random.Random, tid_range: int) -> _Client:
    client = harness.client()
    while not stop.is_set():
        additions = [[rng.randrange(tid_range),
                      f"Bench{rng.randrange(50)}"]
                     for _ in range(20)]
        status, body = client.request(
            "POST", f"/v1/{tenant}/events:batch",
            {"events": [{"type": "add_annotations",
                         "additions": additions}]})
        if status == 429:
            time.sleep(min(body["retry_after"], 0.5))
        else:
            assert status == 202, body
    return client


def _run_readers(harness) -> list[float]:
    """N_READERS threads × N_REQUESTS reads; pooled latencies."""
    clients: list[_Client] = []
    errors: list[Exception] = []

    def work(index: int) -> None:
        try:
            clients.append(_read_loop(
                harness, ServerHarness.TENANTS[index % 2],
                N_REQUESTS, random.Random(1000 + index)))
        except Exception as error:  # surfaced after join
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(N_READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    samples = [sample for client in clients
               for sample in client.latencies]
    for client in clients:
        client.close()
    return samples


def test_read_latency_under_mixed_load(serving_workload):
    harness = ServerHarness(serving_workload)
    try:
        # Scenario 1: read-only baseline.
        baseline = _run_readers(harness)
        base_p50, base_p99 = (_quantile(baseline, 0.50),
                              _quantile(baseline, 0.99))

        # Scenario 2: identical read workload racing writer threads
        # (whose flushes ride the background watermark path).
        stop = threading.Event()
        writer_clients: list[_Client] = []
        writer_errors: list[Exception] = []

        def write(index: int) -> None:
            try:
                writer_clients.append(_write_loop(
                    harness, ServerHarness.TENANTS[index % 2], stop,
                    random.Random(2000 + index),
                    tid_range=N_TUPLES))
            except Exception as error:
                writer_errors.append(error)

        writers = [threading.Thread(target=write, args=(i,))
                   for i in range(N_WRITERS)]
        for thread in writers:
            thread.start()
        try:
            mixed = _run_readers(harness)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=120)
        assert not writer_errors, writer_errors[0]
        accepted = sum(client.statuses.get(202, 0)
                       for client in writer_clients)
        rejected = sum(client.statuses.get(429, 0)
                       for client in writer_clients)
        for client in writer_clients:
            client.close()
        mixed_p50, mixed_p99 = (_quantile(mixed, 0.50),
                                _quantile(mixed, 0.99))

        degradation = mixed_p99 / base_p99 if base_p99 else 0.0
        record("E12_serving_concurrency", [
            f"tenants=2 tuples/tenant={N_TUPLES} readers={N_READERS} "
            f"writers={N_WRITERS} reads/reader={N_REQUESTS}",
            f"read-only  p50={fmt_ms(base_p50)}  p99={fmt_ms(base_p99)} "
            f"({len(baseline)} requests)",
            f"mixed-load p50={fmt_ms(mixed_p50)}  p99={fmt_ms(mixed_p99)} "
            f"({len(mixed)} requests, writes: {accepted} accepted / "
            f"{rejected} backpressured)",
            f"p99 degradation under writes: {degradation:.2f}x "
            f"(ceiling {DEGRADATION_CEILING:.0f}x)",
        ])
        _append_json_row({
            "scenario": "read_only", "p50_ms": base_p50 * 1000,
            "p99_ms": base_p99 * 1000, "requests": len(baseline)})
        _append_json_row({
            "scenario": "mixed_load", "p50_ms": mixed_p50 * 1000,
            "p99_ms": mixed_p99 * 1000, "requests": len(mixed),
            "writes_accepted": accepted,
            "writes_backpressured": rejected,
            "p99_degradation_x": degradation})
        if FULL_SCALE:
            assert degradation < DEGRADATION_CEILING, (
                f"read p99 degraded {degradation:.1f}x under mixed "
                f"load (ceiling {DEGRADATION_CEILING}x) — reads are "
                f"queueing behind flushes")
    finally:
        harness.stop()


def test_saturation_yields_429s_not_unbounded_queues(serving_workload):
    # Background flushing off: this scenario pins the *bound* — offered
    # load beyond max_pending_events must bounce with 429, never
    # accumulate.  (The mixed-load scenario covers the drain race.)
    harness = ServerHarness(serving_workload, max_pending_events=100,
                            flush_watermark=None)
    try:
        client = harness.client()
        rng = random.Random(7)
        rejected = 0
        deepest = 0
        for _ in range(200):  # 200 batches × 10 events = 2000 >> 100
            additions = [[rng.randrange(N_TUPLES),
                          f"Sat{rng.randrange(20)}"]
                         for _ in range(10)]
            status, body = client.request(
                "POST", "/v1/alpha/events:batch",
                {"events": [{"type": "add_annotations",
                             "additions": additions}]})
            if status == 429:
                rejected += 1
                assert body["queue_depth"] <= body["limit"] == 100
                deepest = max(deepest, body["queue_depth"])
            else:
                assert status == 202
                deepest = max(deepest, body["queue_depth"])
        client.close()
        assert rejected > 0, "queue never saturated — bound not enforced"
        assert deepest <= 100, f"queue overshot its bound: {deepest}"
        record("E12_serving_saturation", [
            f"bound=100 events offered=2000 "
            f"rejected_batches={rejected} max_observed_depth={deepest}",
        ])
        _append_json_row({
            "scenario": "saturation", "queue_bound": 100,
            "events_offered": 2000, "batches_rejected": rejected,
            "max_observed_depth": deepest})
    finally:
        harness.stop()


def test_graceful_drain_leaves_every_tenant_verified(serving_workload):
    harness = ServerHarness(serving_workload, flush_watermark=None)
    service = harness.server.service  # stays usable past shutdown
    try:
        client = harness.client()
        rng = random.Random(13)
        for tenant in ServerHarness.TENANTS:
            additions = [[rng.randrange(N_TUPLES),
                          f"Drain{rng.randrange(10)}"]
                         for _ in range(25)]
            status, _ = client.request(
                "POST", f"/v1/{tenant}/events:batch",
                {"events": [{"type": "add_annotations",
                             "additions": additions}]})
            assert status == 202
        client.close()
        assert all(service.pending(t) for t in ServerHarness.TENANTS)
    finally:
        harness.stop()  # graceful drain
    lines = []
    for tenant in ServerHarness.TENANTS:
        assert service.pending(tenant) == 0, \
            f"drain left {tenant} with queued events"
        result = service.verify(tenant)
        assert result.equivalent, \
            f"post-drain verify failed for {tenant}: {result.explain()}"
        lines.append(f"{tenant}: pending=0 verify={result.explain()}")
    record("E12_serving_drain", lines)
    _append_json_row({"scenario": "drain",
                      "tenants_verified": len(ServerHarness.TENANTS)})
