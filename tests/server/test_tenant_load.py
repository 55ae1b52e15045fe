"""Loading a tenant's rows: one pass, the old checks, shared strings.

``create_tenant`` streams the checked rows of a create body
straight into ``AnnotatedRelation.insert_many``.  The relation must
equal the one the earlier two-pass load built (a checked list of every
row, then one ``insert`` per row), the caller's rows must be left as
they were, a malformed row must still fail the whole create with the
same message, and every row must share one interned string per
annotation id.

Over HTTP the create body is decoded a row at a time
(``load_create_body``).  Whatever the field order, layout or escaping
of the body, the tenant must equal the one built from the whole
decoded body; a duplicated ``rows`` key resolves last-wins; and a
malformed row, a non-JSON or a truncated body each answer the 400 they
answered when the body was decoded whole, registering nothing.  The
body is decoded off the event loop: other connections are answered
while it is.
"""

import http.client
import json
import sys
import threading

import pytest

from repro.app.service import CorrelationService
from repro.core.config import EngineConfig
from repro.errors import SchemaError, ServerError
from repro.relation.relation import AnnotatedRelation
from repro.relation.schema import Schema
from repro.server import http as server_http
from repro.server.tenants import create_tenant, load_create_body
from repro.synth.workloads import paper_scale

from tests.server.conftest import ROWS, make_server

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


def hosted_relation(service: CorrelationService,
                    name: str) -> AnnotatedRelation:
    return service._session(name).engine.relation


@pytest.fixture
def service():
    return CorrelationService()


def create(service: CorrelationService, name: str, **fields) -> None:
    """Create a tenant the way ``POST /v1/tenants`` does."""
    create_tenant(service, name, default_engine=ENGINE, **fields)


@pytest.mark.parametrize("columns", [None, [f"c{i}" for i in range(6)]])
def test_one_pass_load_equals_the_two_pass_load(service, columns):
    rows = decoded_rows(2000)
    untouched = json.loads(json.dumps(rows))
    create(service, "paper", columns=columns, rows=rows, mine=False)
    loaded = hosted_relation(service, "paper")
    assert picture(loaded) == picture(two_pass_load(untouched, columns))
    assert loaded.live_count == 2000
    assert rows == untouched


def test_every_row_shares_one_interned_string_per_annotation(service):
    create(service, "paper", rows=decoded_rows(2000))
    shared: dict[str, str] = {}
    for row in hosted_relation(service, "paper"):
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
def test_a_malformed_row_fails_the_create(service, columns, row, error):
    """Row 2 of 4 is malformed: the create fails with that row's
    message after rows 0 and 1 loaded, and registers nothing."""
    with pytest.raises((ServerError, SchemaError)) as raised:
        create(service, "bad", columns=columns,
               rows=ROWS[:2] + [row] + ROWS[3:])
    assert str(raised.value) == error
    assert service.sessions() == ()


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


# -- the streamed create body ----------------------------------------------------

#: Values and annotation ids JSON has to escape, or that are not ASCII.
AWKWARD_ROWS = [
    [["é", 'quote"d'], ["Annot_ü"]],
    [["tab\there", "back\\slash"], ["Annot_ü", "Annot_😀"]],
    [["é", "line\nbreak"], []],
    [["\u0000nul", "é"], ["Annot_ü"]],
]


def body_text(fields: list[tuple[str, object]], **layout) -> str:
    """A create body with its fields in the given order."""
    return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(value, **layout)}"
                           for key, value in fields) + "}"


def post_raw(served, body: str | bytes) -> tuple[int, dict]:
    connection = served.connection()
    try:
        connection.request(
            "POST", "/v1/tenants",
            body=body.encode("utf-8") if isinstance(body, str) else body,
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def assert_nothing_registered(served) -> None:
    _, listing, _ = served.request("GET", "/v1/tenants")
    assert listing["tenants"] == []
    assert served.server.service.sessions() == ()


def streamed_load(text: str) -> AnnotatedRelation:
    """The tenant the server builds from a create body's text."""
    service = CorrelationService()
    body = load_create_body(text.encode("utf-8"))
    create(service, body["name"], columns=body.get("columns"),
           rows=body.get("rows"), mine=False)
    return hosted_relation(service, body["name"])


def decoded_load(text: str) -> AnnotatedRelation:
    """The tenant built from the whole decoded body, as before."""
    service = CorrelationService()
    body = json.loads(text)
    create(service, body["name"], columns=body.get("columns"),
           rows=body.get("rows"), mine=False)
    return hosted_relation(service, body["name"])


COLUMNS = [f"c{i}" for i in range(6)]


@pytest.mark.parametrize("text", [
    body_text([("name", "t"), ("rows", "ROWS"), ("columns", COLUMNS)]),
    body_text([("rows", "ROWS"), ("name", "t"), ("columns", COLUMNS)]),
    body_text([("columns", COLUMNS), ("rows", "ROWS"), ("name", "t")]),
    body_text([("rows", "ROWS"), ("columns", COLUMNS), ("name", "t")],
              indent=2),
    body_text([("name", "t"), ("rows", "ROWS")], separators=(",", ":")),
], ids=["name-rows-columns", "rows-first", "columns-first", "indented",
        "compact-schemaless"])
def test_a_streamed_create_equals_the_decoded_create(text):
    text = text.replace('"ROWS"', json.dumps(decoded_rows(300)))
    expected = picture(decoded_load(text))
    assert picture(streamed_load(text)) == expected
    columns = json.loads(text).get("columns")
    assert expected == picture(two_pass_load(json.loads(text)["rows"],
                                             columns))


@pytest.mark.parametrize("layout", [{}, {"ensure_ascii": False},
                                    {"indent": "\t"}])
def test_escaped_and_non_ascii_strings_load_unchanged(layout):
    text = body_text([("rows", AWKWARD_ROWS), ("name", "t"),
                      ("columns", ["c1", "c2"])], **layout)
    loaded = streamed_load(text)
    assert picture(loaded) == picture(decoded_load(text))
    assert loaded.tuple(1).values == ("tab\there", "back\\slash")
    assert list(loaded.tuple(1).annotations) == ["Annot_ü", "Annot_😀"]


def test_a_duplicated_rows_key_resolves_last_wins():
    text = body_text([("name", "t"), ("rows", [["z"], ["Z"]]),
                      ("rows", ROWS)])
    assert picture(streamed_load(text)) == picture(two_pass_load(ROWS, None))
    assert picture(streamed_load(text)) == picture(decoded_load(text))


def test_a_malformed_rows_key_overridden_by_a_later_one_is_ignored(served):
    text = body_text([("name", "dup"), ("rows", [["b", ["A2"]]]),
                      ("columns", ["c1", "c2"]), ("rows", ROWS)])
    status, created = post_raw(served, text)
    assert status == 201, created
    assert created["tenant"]["db_size"] == len(ROWS)


def test_an_indented_body_with_rows_first_serves_the_same_rules(served):
    status, _ = post_raw(served, body_text(
        [("name", "compact"), ("columns", ["c1", "c2"]), ("rows", ROWS)],
        separators=(",", ":")))
    assert status == 201
    status, _ = post_raw(served, body_text(
        [("rows", ROWS), ("name", "indented"), ("columns", ["c1", "c2"])],
        indent=4))
    assert status == 201
    _, compact, _ = served.request("GET", "/v1/compact/rules")
    _, indented, _ = served.request("GET", "/v1/indented/rules")
    assert compact["rules"] == indented["rules"] and compact["rules"]


ROW_MESSAGE = "each row must be [[value, ...], [annotation, ...]], got "


@pytest.mark.parametrize("columns,row,error", [
    (None, ["b", ["A2"]], ROW_MESSAGE + "['b', ['A2']]"),
    (None, [["b"]], ROW_MESSAGE + "[['b']]"),
    (None, [["b"], ["A2"], []], ROW_MESSAGE + "[['b'], ['A2'], []]"),
    (None, [["b"], "A2"], ROW_MESSAGE + "[['b'], 'A2']"),
    (None, [{"b": 1}, ["A2"]], ROW_MESSAGE + "[{'b': 1}, ['A2']]"),
    (None, None, ROW_MESSAGE + "None"),
    (None, 7, ROW_MESSAGE + "7"),
    (None, "row", ROW_MESSAGE + "'row'"),
    (None, {"values": ["b"]}, ROW_MESSAGE + "{'values': ['b']}"),
    (["c1", "c2"], [["b"], ["A2"]], "row has 1 values, schema expects 2"),
    (None, [[], ["A2"]], "a tuple needs at least one data value"),
    (None, [["b"], [""]], "annotation id must be a non-empty string, "
                          "got ''"),
])
def test_every_malformed_row_answers_its_400_and_registers_nothing(
        served, columns, row, error):
    body = {"name": "bad", "rows": ROWS[:2] + [row] + ROWS[3:]}
    if columns is not None:
        body["columns"] = columns
    for text in (json.dumps(body), json.dumps(body, indent=2)):
        status, answer = post_raw(served, text)
        assert (status, answer["error"]) == (400, error)
        assert_nothing_registered(served)


def test_the_other_fields_are_checked_before_a_malformed_row(served):
    rows = ROWS[:2] + [["b", ["A2"]]]
    for body, error in [
            ({"name": 5, "rows": rows},
             "tenant create body needs a string 'name'"),
            ({"name": "x", "rows": rows, "extra": 1},
             "unknown tenant create field(s): extra"),
            ({"name": "x", "rows": rows, "mine": "yes"},
             "'mine' must be a boolean"),
            ({"name": "bad name", "rows": rows},
             "tenant name must match [A-Za-z0-9._-]{1,64}, "
             "got 'bad name'")]:
        status, answer = post_raw(served, json.dumps(body))
        assert (status, answer["error"]) == (400, error)
    assert_nothing_registered(served)


def not_valid_json(body: str | bytes) -> str:
    with pytest.raises(ValueError) as raised:
        json.loads(body.encode("utf-8") if isinstance(body, str) else body)
    return f"request body is not valid JSON: {raised.value}"


def test_non_json_bodies_answer_json_loads_400(served):
    for body in ["{not json", "[1, 2", '{"name": "x", "rows": [1,]}',
                 '{"name": "x"} trailing', '{"rows": [["a"], ["A"]] "x": 1}',
                 b'{"name": "\xff"}']:
        status, answer = post_raw(served, body)
        assert (status, answer["error"]) == (400, not_valid_json(body))
    assert_nothing_registered(served)


def test_truncated_bodies_answer_json_loads_400(served):
    text = body_text([("name", "cut"), ("rows", ROWS),
                      ("columns", ["c1", "c2"])], indent=1)
    for cut in range(1, len(text) - 1, 7):
        status, answer = post_raw(served, text[:cut])
        assert (status, answer["error"]) == (400,
                                             not_valid_json(text[:cut]))
    assert_nothing_registered(served)


def test_a_read_is_answered_while_a_large_create_body_decodes(monkeypatch):
    decoding, release = threading.Event(), threading.Event()

    def held_decode(body):
        decoding.set()
        release.wait(30)
        return load_create_body(body)

    monkeypatch.setattr(server_http, "load_create_body", held_decode)
    server = make_server()
    created = []
    creator = threading.Thread(target=lambda: created.append(
        server.request("POST", "/v1/tenants",
                       {"name": "big", "rows": ROWS * 2000})))
    try:
        creator.start()
        assert decoding.wait(10)
        reader = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=5)
        try:
            # A decode on the event loop would hold this read until
            # the decode ends, and the read would time out first.
            status, body, _ = server.request("GET", "/healthz",
                                             conn=reader)
        finally:
            reader.close()
            release.set()
        assert status == 200 and body["status"] == "ok"
        creator.join(60)
        assert created[0][0] == 201
        assert created[0][1]["tenant"]["db_size"] == 4 * 2000
    finally:
        release.set()
        creator.join(60)
        server.stop()
