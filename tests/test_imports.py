"""What ``import repro`` loads, and the names it exports.

CI installs only the test tools (pytest, pytest-benchmark, hypothesis),
so the package itself and its server entry point must load from the
standard library alone.  ``import repro`` loads only the core that
``repro.engine`` needs; every other public name is imported on first
access and must then be the very object its defining module holds.
Each check runs in a fresh interpreter and looks only at the modules
its imports add, so whatever the interpreter's site hooks preload does
not count.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

PROBE = """\
import json, sys
before = set(sys.modules)
import repro
import repro.server.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""

SERVE_PROBE = """\
import json, sys
before = set(sys.modules)
import repro.server.cli
print(json.dumps(sorted(name for name in set(sys.modules) - before
                        if name == "repro" or name.startswith("repro."))))
"""

#: Most ``repro`` modules (the package itself included) a serve start
#: may load: every one adds to the time before the first request.
MAX_SERVE_MODULES = 44

#: What a server that keeps no journal must not load: it serves on
#: threads (no event loop, executor or their logging), speaks plain
#: HTTP (no ``ssl``), computes no estimate bound at start (no
#: ``statistics``) and imports the journal only for a ``journal_dir``.
SERVE_NEVER_LOADS = ("asyncio", "concurrent.futures", "logging", "ssl",
                     "statistics", "repro.core.journal")

SERVE_LEAN_PROBE = """\
import json, sys
before = set(sys.modules)
import repro.server.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: ``python -m repro serve --help`` run in-process: the serve branch of
#: ``repro/__main__`` loads the server without ``ssl``.
SERVE_MAIN_PROBE = """\
import contextlib, io, json, runpy, sys
sys.argv = ["repro", "serve", "--help"]
with contextlib.redirect_stdout(io.StringIO()) as help_text:
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
print(json.dumps({
    "code": code,
    "help": "TLS belongs in a proxy" in help_text.getvalue(),
    "loaded": sorted(name for name in ("asyncio", "repro.server.http",
                                       "ssl", "_ssl")
                     if sys.modules.get(name) is not None),
}))
"""


#: Modules outside the engine's core that ``repro.engine`` must not load.
NOT_CORE = ("asyncio", "repro.server", "repro.app", "repro.shard",
            "repro.core.journal", "repro.exploitation",
            "repro.generalization")

CORE_PROBE = """\
import json, sys
before = set(sys.modules)
import repro
repro.engine
print(json.dumps(sorted(set(sys.modules) - before)))
"""

SERVICE_PROBE = """\
import json, sys, tempfile
import repro
journal_dir = tempfile.TemporaryDirectory()
from repro.core.events import AddAnnotations
relation = repro.AnnotatedRelation()
for values, annotations in [(["a", "x"], ["A"]), (["a", "y"], ["A"]),
                            (["b", "x"], []), (["a", "x"], ["A", "B"])]:
    relation.insert(values, annotations)
service = repro.CorrelationService(
    config=repro.EngineConfig(min_support=0.25, min_confidence=0.6),
    journal_dir=journal_dir.name)
service.create("s", relation)
service.submit("s", AddAnnotations.build([(2, "A")]))
service.flush("s")
service.estimate("s")
service.checkpoint("s")
service.close()
journal_dir.cleanup()
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro.shard"))))
"""

RESOLVE_PROBE = """\
import json, sys, types
import repro
wrong = []
for name in repro.__all__:
    value = getattr(repro, name)
    if isinstance(value, types.ModuleType):
        defined = sys.modules.get(value.__name__)
    else:
        defined = getattr(sys.modules[value.__module__], value.__name__)
    if defined is not value:
        wrong.append(name)
print(json.dumps({
    "wrong": wrong,
    "modules": [repro.persistence.__name__],
    "evaluate_rule": repro.evaluate_rule.__module__ + "."
                     + repro.evaluate_rule.__name__,
}))
"""

STAR_PROBE = """\
import json
import repro
listed = dir(repro)
namespace = {}
exec("from repro import *", namespace)
print(json.dumps({"all": repro.__all__, "dir": listed,
                  "bound": sorted(namespace)}))
"""


def run_probe(probe: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60, check=True)
    return json.loads(completed.stdout)


def test_package_and_server_import_only_the_standard_library():
    added = run_probe(PROBE)
    assert "repro" in added
    foreign = sorted(set(added) - set(sys.stdlib_module_names) - {"repro"})
    assert foreign == [], f"non-stdlib modules imported: {foreign}"


def test_the_serve_entry_point_loads_a_bounded_set_of_modules():
    loaded = run_probe(SERVE_PROBE)
    assert "repro.server.http" in loaded
    assert len(loaded) <= MAX_SERVE_MODULES, loaded


def test_the_serve_entry_point_keeps_ssl_out():
    result = run_probe(SERVE_MAIN_PROBE)
    assert result == {"code": 0, "help": True,
                      "loaded": ["repro.server.http"]}


def test_a_server_without_a_journal_loads_no_loop_tls_or_journal():
    added = set(run_probe(SERVE_LEAN_PROBE))
    assert "repro.server.http" in added
    assert sorted(name for name in SERVE_NEVER_LOADS if name in added) \
        == []


def test_the_engine_loads_without_the_serving_and_exploitation_tiers():
    added = set(run_probe(CORE_PROBE))
    assert "repro.core.engine" in added
    assert sorted(name for name in NOT_CORE if name in added) == []


def test_a_monolithic_service_never_loads_the_shard_package():
    assert run_probe(SERVICE_PROBE) == []


def test_every_export_is_its_defining_modules_object():
    resolved = run_probe(RESOLVE_PROBE)
    assert resolved["wrong"] == []
    assert resolved["modules"] == ["repro.core.persistence"]
    assert resolved["evaluate_rule"] == "repro.mining.interest.evaluate"


def test_star_import_binds_every_export_and_dir_lists_them():
    names = run_probe(STAR_PROBE)
    assert len(names["all"]) == len(set(names["all"]))
    assert set(names["all"]) <= set(names["bound"])
    assert set(names["all"]) <= set(names["dir"])


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        repro.no_such_export
    assert not hasattr(repro, "no_such_export")
    with pytest.raises(ImportError):
        from repro import no_such_export  # noqa: F401
