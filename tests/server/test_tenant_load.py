"""Loading a tenant's rows: one pass, the old checks, shared strings.

``TenantRegistry.create`` streams the checked rows of a create body
straight into ``AnnotatedRelation.insert_many``.  The relation must
equal the one the earlier two-pass load built (a checked list of every
row, then one ``insert`` per row), the caller's rows must be left as
they were, a malformed row must still fail the whole create with the
same message, and every row must share one interned string per
annotation id.
"""

import json
import sys

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.errors import SchemaError, ServerError
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.server.tenants import TenantRegistry
from repro.synth.workloads import paper_scale

from tests.server.conftest import ROWS

ENGINE = EngineConfig(min_support=0.25, min_confidence=0.6)


def decoded_rows(n_tuples: int) -> list:
    """``paper_scale(n_tuples)`` as a create body's ``rows``, decoded
    from JSON text the way the server receives it."""
    rows = [[list(row.values), sorted(row.annotation_ids)]
            for row in paper_scale(n_tuples).relation]
    return json.loads(json.dumps(rows))


def two_pass_load(rows: list,
                  columns: list[str] | None) -> AnnotatedRelation:
    """The earlier load: a checked list of every row, then one insert
    per row."""
    relation = AnnotatedRelation(Schema(columns) if columns else None)
    checked = [([str(value) for value in values],
                [str(annotation) for annotation in annotations])
               for values, annotations in rows]
    for values, annotations in checked:
        relation.insert(values, annotations)
    return relation


def picture(relation: AnnotatedRelation) -> dict:
    return {
        "rows": [(row.tid, row.values, list(row.annotations))
                 for row in relation],
        "version": relation.version,
        "live_count": relation.live_count,
        "registry": [annotation.annotation_id
                     for annotation in relation.registry],
    }


def hosted_relation(registry: TenantRegistry,
                    name: str) -> AnnotatedRelation:
    return registry.service._session(name).engine.relation


@pytest.fixture
def registry():
    return TenantRegistry(CorrelationService(), default_engine=ENGINE)


@pytest.mark.parametrize("columns", [None, [f"c{i}" for i in range(6)]])
def test_one_pass_load_equals_the_two_pass_load(registry, columns):
    rows = decoded_rows(2000)
    untouched = json.loads(json.dumps(rows))
    registry.create("paper", columns=columns, rows=rows, mine=False)
    loaded = hosted_relation(registry, "paper")
    assert picture(loaded) == picture(two_pass_load(untouched, columns))
    assert loaded.live_count == 2000
    assert rows == untouched


def test_every_row_shares_one_interned_string_per_annotation(registry):
    registry.create("paper", rows=decoded_rows(2000))
    shared: dict[str, str] = {}
    for row in hosted_relation(registry, "paper"):
        for key in row.annotations:
            assert key is sys.intern(key)
            assert shared.setdefault(key, key) is key
    assert len(shared) > 1


@pytest.mark.parametrize("columns,row,error", [
    (["c1", "c2"], [["b", "x"], "A2"],
     "each row must be [[value, ...], [annotation, ...]], "
     "got [['b', 'x'], 'A2']"),
    (["c1", "c2"], [["b"], ["A2"]], "row has 1 values, schema expects 2"),
    (None, [[], ["A2"]], "a tuple needs at least one data value"),
])
def test_a_malformed_row_fails_the_create(registry, columns, row, error):
    """Row 2 of 4 is malformed: the create fails with that row's
    message after rows 0 and 1 loaded, and registers nothing."""
    with pytest.raises((ServerError, SchemaError)) as raised:
        registry.create("bad", columns=columns,
                        rows=ROWS[:2] + [row] + ROWS[3:])
    assert str(raised.value) == error
    assert registry.names() == ()
    assert registry.service.sessions() == ()


def test_malformed_row_over_http_registers_nothing(served):
    rows = ROWS[:2] + [["b", ["A2"]]] + ROWS[3:]
    status, body, _ = served.request("POST", "/v1/tenants",
                                     {"name": "bad", "rows": rows})
    assert status == 400
    assert body["error"] == ("each row must be [[value, ...], "
                             "[annotation, ...]], got ['b', ['A2']]")
    status, _, _ = served.request("GET", "/v1/bad")
    assert status == 404
    _, listing, _ = served.request("GET", "/v1/tenants")
    assert listing["tenants"] == []


@pytest.mark.parametrize("rows", [{}, 0, "", False])
def test_falsy_non_list_rows_answer_400(served, rows):
    status, body, _ = served.request(
        "POST", "/v1/tenants", {"name": "falsy", "rows": rows})
    assert status == 400
    assert body["error"].startswith("rows must be a list")
    status, _, _ = served.request("GET", "/v1/falsy")
    assert status == 404
    _, listing, _ = served.request("GET", "/v1/tenants")
    assert listing["tenants"] == []


@pytest.mark.parametrize("body", [{"name": "empty"},
                                  {"name": "empty", "rows": None}])
def test_absent_or_null_rows_create_an_empty_tenant(served, body):
    status, created, _ = served.request("POST", "/v1/tenants", body)
    assert status == 201
    assert created["tenant"]["db_size"] == 0
