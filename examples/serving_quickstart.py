"""Serving quickstart: the correlation engine behind an HTTP API.

Starts a :class:`repro.CorrelationServer` on an ephemeral port (it
accepts on its own threads, so this file works as both a script and a
test), then drives the whole tenant lifecycle with nothing but
``urllib``:

1. create a tenant from inline rows (mines immediately);
2. read rules — listing, top-k by lift, a filtered query;
3. stream annotation events, watch the queue, flush;
4. confirm the served revision advanced and verify against a re-mine;
5. peek at ``/metrics``, then drain the server.

Run with:  python examples/serving_quickstart.py
"""

import json
import urllib.request

from repro import CorrelationServer, EngineConfig, ServerConfig

ROWS = [
    # (data values, annotations) — Figure 4 style, opaque value ids.
    [["28", "85", "17"], ["Annot_4", "Annot_5"]],
    [["28", "85", "17"], ["Annot_1", "Annot_4"]],
    [["28", "85", "3"], ["Annot_1"]],
    [["28", "85", "3"], ["Annot_1", "Annot_4"]],
    [["41", "12", "17"], ["Annot_5"]],
    [["41", "12", "3"], []],
    [["28", "85", "9"], ["Annot_1"]],
    [["41", "85", "9"], []],
]


def call(port, method, path, body=None):
    """One JSON request with stdlib urllib; returns the parsed body."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def main() -> None:
    config = ServerConfig(
        port=0,  # ephemeral — server.port reports the real one
        default_engine=EngineConfig(min_support=0.25,
                                    min_confidence=0.6),
        flush_watermark=None)  # this example flushes explicitly
    server = CorrelationServer(config)
    server.start()
    port = server.port

    # 1. Create a tenant: schema columns, rows, immediate mine.
    created = call(port, "POST", "/v1/tenants",
                   {"name": "quickstart", "columns": ["c1", "c2", "c3"],
                    "rows": ROWS})
    tenant = created["tenant"]
    print(f"tenant {tenant['tenant']}: {tenant['rules']} rules over "
          f"{tenant['db_size']} tuples (revision {tenant['revision']})")

    # 2. Read the rules three ways.
    top = call(port, "GET", "/v1/quickstart/rules/top?n=3&by=lift")
    print("top rules by lift:")
    for rule in top["rules"]:
        print(f"  {rule['rendered']}")
    confident = call(port, "GET",
                     "/v1/quickstart/query?min_confidence=0.9"
                     "&order_by=support")
    print(f"rules with confidence >= 0.9: {confident['total']}")
    about = call(port, "GET",
                 "/v1/quickstart/rules/for-item?token=Annot_1")
    print(f"rules mentioning Annot_1: {about['total']}")

    # 3. Stream updates: queued (202) until a flush applies them.
    queued = call(port, "POST", "/v1/quickstart/events:batch",
                  {"events": [
                      {"type": "add_annotations",
                       "additions": [[4, "Annot_1"], [5, "Annot_1"]]},
                      {"type": "add_annotated_tuples",
                       "rows": [[["28", "85", "17"], ["Annot_1"]]]},
                  ]})
    print(f"queued {queued['queued']} events "
          f"(queue depth {queued['queue_depth']})")
    flushed = call(port, "POST", "/v1/quickstart/flush")
    print(f"flush applied {flushed['events_applied']} events -> "
          f"revision {flushed['revision']}, {flushed['rules']} rules")

    # 4. The read path serves the new revision; verify it is exact.
    listing = call(port, "GET", "/v1/quickstart/rules?limit=1")
    verify = call(port, "GET", "/v1/quickstart/verify")
    print(f"served revision now {listing['revision']}; "
          f"incremental == re-mine: {verify['equivalent']}")

    # 5. Operational surface.
    metrics = call(port, "GET", "/metrics")
    flushes = metrics["metrics"]["service_flush_batches"]["value"]
    print(f"metrics: {flushes} flush batch(es), snapshot hit rate "
          f"{metrics['derived']['snapshot_hit_rate']:.2f}")

    server.shutdown()
    print("server drained")


if __name__ == "__main__":
    main()
