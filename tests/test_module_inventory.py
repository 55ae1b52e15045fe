"""Every module of the package earns its place.

A module under ``src/repro`` stays only if code uses it: another module
of the package or a benchmark imports it.  The ``_LAZY`` table of
``repro/__init__.py`` names modules in strings, which export a name and
use nothing, so it does not count.  A module that no code imports and
that is still kept is listed in :data:`KEEP` with the reason.  Packages
and ``__main__`` entry points are reached by their path, not by an
import, and are left out.  The scan reads the source with :mod:`ast`
and imports none of it; each module is its own case, so a failure
names the module.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SRC = PACKAGE.parent
BENCHMARKS = SRC.parent / "benchmarks"

#: Modules no code imports, kept on purpose: module -> reason.
KEEP = {
    "repro.core.audit": (
        "the independent recount oracle: test_soak and test_sharded_engine "
        "recount every redundant structure against the relation with it"),
}


def module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


MODULES = sorted(module_name(path) for path in PACKAGE.rglob("*.py")
                 if path.name not in ("__init__.py", "__main__.py"))


def imported_names(path: Path) -> set[str]:
    """Every dotted name an ``import`` statement of ``path`` may load:
    ``from a.b import c`` yields ``a.b`` and ``a.b.c``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return names


@cache
def importers() -> dict[str, list[str]]:
    """Module -> the files of ``src/`` and ``benchmarks/`` importing it
    (a module importing itself does not count)."""
    found: dict[str, list[str]] = {module: [] for module in MODULES}
    for path in sorted([*SRC.rglob("*.py"), *BENCHMARKS.rglob("*.py")]):
        importer = module_name(path) if path.is_relative_to(SRC) else None
        for name in imported_names(path) - {importer}:
            if name in found:
                found[name].append(str(path.relative_to(SRC.parent)))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_has_an_importer_or_a_reason_to_stay(module):
    users = importers()[module]
    if module in KEEP:
        assert users == [], f"{module} is imported; drop it from KEEP"
    else:
        assert users, (f"nothing in src/ or benchmarks/ imports {module}: "
                       f"delete it or give KEEP a reason")


def test_every_kept_module_exists_with_a_reason():
    assert sorted(set(KEEP) - set(MODULES)) == []
    assert all(reason for reason in KEEP.values())
