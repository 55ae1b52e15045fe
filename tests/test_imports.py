"""``import repro`` needs nothing beyond the standard library.

CI installs only the test tools (pytest, pytest-benchmark, hypothesis),
so the package itself and its server entry point must load from the
standard library alone.  The check runs in a fresh interpreter and
looks only at the modules the imports add, so whatever the
interpreter's site hooks preload does not count.
"""

import json
import os
import subprocess
import sys

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


def test_package_and_server_import_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=60, check=True)
    added = json.loads(completed.stdout)
    assert "repro" in added
    foreign = sorted(set(added) - set(sys.stdlib_module_names) - {"repro"})
    assert foreign == [], f"non-stdlib modules imported: {foreign}"
