"""The streaming snapshot reader restores what the whole document does.

:func:`~repro.core.persistence.read` decodes ``tuples`` a row at a time
into interned tuples; :func:`~repro.core.persistence.restore` still
takes the plain decoded document.  Both must rebuild the same relation
(values, annotations, labels, tombstones, version, registry), the same
rules, and a restored engine that writes the same snapshot text, for
every layout a writer ever used.
"""

import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings

from repro.core import persistence
from repro.errors import FormatError
from repro.relation.relation import AnnotatedRelation

from tests.core.test_snapshot_writer import engines, streamed


def picture(relation: AnnotatedRelation) -> dict:
    return {
        "rows": [(row.tid, row.values, row.annotations,
                  row.cell_anchors, row.labels, row.alive)
                 for row in relation.tid_slice(0, relation.tid_range)],
        "version": relation.version,
        "live_count": relation.live_count,
        "registry": list(relation.registry),
        "schema": relation.schema,
    }


def read_text(text: str) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "snapshot.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return persistence.read(path)


@given(engine=engines())
@settings(max_examples=80, deadline=None)
def test_a_read_snapshot_restores_what_the_decoded_document_does(engine):
    for text in (streamed(engine),
                 json.dumps(persistence.snapshot(engine), indent=1)):
        from_document = persistence.restore(json.loads(text))
        from_file = persistence.restore(read_text(text))
        assert picture(from_file.relation) == picture(from_document.relation)
        assert from_file.signature() == from_document.signature() \
            == engine.signature()
        assert streamed(from_file) == streamed(from_document)


def test_read_rows_share_interned_strings(tmp_path):
    text = json.dumps({"tuples": [
        {"values": ["".join(["v", "1"])], "annotations": ["A", "B"],
         "labels": ["".join(["L", "1"])]},
        None,
        {"values": ["v1"], "annotations": [], "labels": []}]})
    path = tmp_path / "snapshot.json"
    path.write_text(text, encoding="utf-8")
    first, tombstone, second = persistence.read(path)["tuples"]
    assert tombstone is None
    assert first[0][0] is second[0][0] is sys.intern("v1")
    assert first[2] == ("L1",) and first[2][0] is sys.intern("L1")
    assert second[2] == ()


def test_the_version_check_comes_before_a_malformed_row(tmp_path):
    document = {"format_version": 99, "tuples": [{"annotations": []}]}
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for restore in (lambda: persistence.restore(document),
                    lambda: persistence.load(path)):
        with pytest.raises(FormatError, match="unsupported snapshot "
                                              "format_version 99"):
            restore()


def test_a_malformed_row_fails_the_load_as_it_fails_a_restore(tmp_path):
    document = {"format_version": 4, "tuples": [{"annotations": []}]}
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(KeyError, match="values"):
        persistence.restore(document)
    with pytest.raises(KeyError, match="values"):
        persistence.load(path)


@pytest.mark.parametrize("text", ['{"format_version": 4, "tuples": [',
                                  '{"format_version": 4} {}', "[]x"])
def test_invalid_json_fails_the_load_with_json_loads_error(tmp_path, text):
    path = tmp_path / "snapshot.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        json.loads(text)
    with pytest.raises(ValueError) as raised:
        persistence.load(path)
    assert str(raised.value) == str(expected.value)
