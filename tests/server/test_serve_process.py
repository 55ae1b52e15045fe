"""The shipped server process: ``python -m repro serve`` end to end.

Spawns the real entry point with a journal, drives one tenant through
create, mine, events, flush, an estimate read and a checkpoint over
HTTP, then stops it with SIGTERM and expects a clean drain.  The
process must not map OpenSSL: the server speaks plain HTTP on threads
and loads neither asyncio nor :mod:`ssl` (and with it
``libssl``/``libcrypto``).  A SIGTERM while a client holds an idle
keep-alive connection still exits cleanly.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys

import repro
from tests.server.conftest import ROWS

SRC = os.path.dirname(os.path.dirname(repro.__file__))

LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def spawn_server(journal_dir: str) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--min-support", "0.25", "--min-confidence", "0.6",
         "--journal-dir", journal_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    for line in process.stderr:
        match = LISTENING.search(line)
        if match:
            return process, int(match.group(1))
    process.kill()
    process.wait(30)
    raise AssertionError("the server exited before it was listening")


def call(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            method, path, body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def mapped_libraries(pid: int) -> set[str]:
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        return {os.path.basename(line.split()[-1]) for line in maps
                if len(line.split()) >= 6}


def test_a_served_journey_then_a_clean_sigterm_drain(tmp_path):
    process, port = spawn_server(str(tmp_path / "journal"))
    try:
        status, body = call(port, "POST", "/v1/tenants",
                            {"name": "t", "columns": ["c1", "c2"],
                             "rows": ROWS, "mine": False})
        assert status == 201, body
        status, body = call(port, "POST", "/v1/t/mine")
        assert status == 200 and body["rules"] > 0, body
        status, body = call(port, "POST", "/v1/t/events",
                            {"type": "add_annotations",
                             "additions": [[2, "A1"]]})
        assert status == 202, body
        status, body = call(port, "POST", "/v1/t/flush")
        assert status == 200 and body["events_applied"] == 1, body
        status, body = call(port, "GET", "/v1/t/rules/top?n=3&estimate=1")
        assert status == 200 and body["estimated"] is True, body
        status, body = call(port, "POST", "/v1/t/checkpoint")
        assert status == 200, body
        assert body["journal"]["lag"] == 0, body
        if os.path.exists(f"/proc/{process.pid}/maps"):
            libraries = mapped_libraries(process.pid)
            assert not any(name.startswith(("libssl", "libcrypto"))
                           for name in libraries), sorted(libraries)
    finally:
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(60)
        log = process.stderr.read()
        process.stderr.close()
    assert returncode == 0, log
    assert "drained; bye" in log


def test_sigterm_with_an_idle_keep_alive_connection_exits_cleanly(tmp_path):
    process, port = spawn_server(str(tmp_path / "journal"))
    idle = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        idle.request("GET", "/healthz")
        response = idle.getresponse()
        assert response.status == 200
        response.read()  # the connection stays open, idle
    finally:
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(60)
        log = process.stderr.read()
        process.stderr.close()
        idle.close()
    assert returncode == 0, log
    assert "drained; bye" in log
    assert "Traceback" not in log, log
