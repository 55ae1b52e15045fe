"""``loads_streaming`` decodes what ``json.loads`` decodes, the same way.

The walk must give every key the value :func:`json.loads` gives it,
keep its key order and last-wins duplicates, and hand each element of
the named array to ``convert`` in order.  On text that is not valid
JSON it must fail with :func:`json.loads`'s own error, message and
all, and a conversion error must surface only when the converted array
is iterated, after the elements converted before it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.io.json_stream import ConvertedArray, loads_streaming

json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12)
documents = st.dictionaries(
    st.sampled_from(["rows", "name", "config", "r", "rowsx"])
    | st.text(max_size=4),
    json_values, max_size=5)
FORMATS = [
    {},
    {"separators": (",", ":")},
    {"indent": 2},
    {"indent": "\t", "ensure_ascii": False},
    {"sort_keys": True, "ensure_ascii": False},
]


def plain(decoded):
    """``decoded`` with its ConvertedArray replaced by its items."""
    if not isinstance(decoded, dict):
        return decoded
    return {key: (value.items if isinstance(value, ConvertedArray)
                  else value)
            for key, value in decoded.items()}


def json_error(document) -> str:
    with pytest.raises(ValueError) as raised:
        json.loads(document)
    return f"{type(raised.value).__name__}: {raised.value}"


def walk_error(document) -> str:
    with pytest.raises(ValueError) as raised:
        loads_streaming(document, "rows", lambda element: element)
    return f"{type(raised.value).__name__}: {raised.value}"


@given(document=documents, layout=st.sampled_from(FORMATS))
@settings(max_examples=150, deadline=None)
def test_every_key_decodes_as_json_loads_decodes_it(document, layout):
    text = json.dumps(document, **layout)
    expected = json.loads(text)
    for source in (text, text.encode("utf-8")):
        walked = loads_streaming(source, "rows", lambda element: element)
        assert plain(walked) == expected
        assert list(walked) == list(expected)
        assert isinstance(walked.get("rows"), ConvertedArray) == \
            isinstance(expected.get("rows"), list)


@given(rows=st.lists(json_values, max_size=6))
@settings(max_examples=60, deadline=None)
def test_each_element_is_converted_once_in_order(rows):
    seen = []

    def convert(element):
        seen.append(element)
        return ("converted", len(seen))

    walked = loads_streaming(json.dumps({"a": 1, "rows": rows, "b": []}),
                             "rows", convert)
    assert seen == rows
    assert list(walked["rows"]) == [("converted", index + 1)
                                    for index in range(len(rows))]
    assert walked["a"] == 1 and walked["b"] == []


def test_a_duplicated_key_resolves_last_wins_in_first_position():
    text = '{"rows": [1, 2], "name": "a", "rows": [3], "name": "b"}'
    walked = loads_streaming(text, "rows", lambda element: element * 10)
    assert list(walked) == list(json.loads(text)) == ["rows", "name"]
    assert walked["rows"].items == [30] and walked["name"] == "b"


def test_a_non_array_value_and_a_non_object_document_decode_plainly():
    for text in ('{"rows": {"a": [1]}}', '{"rows": null}', '[1, 2]',
                 '"rows"', "3", " {} ", '{"x": {"rows": [1]}}'):
        assert loads_streaming(text, "rows", str) == json.loads(text)


@pytest.mark.parametrize("text", [
    "", " ", "{", "}", "{not json", '{"rows": [1, 2}', '{"rows": [1,]}',
    '{"rows": [1 2]}', '{"a": 1,}', '{"a" 1}', '{"a": }', "{1: 2}",
    '{"a": 1} x', '{"a": 1}{}', '{"rows": [1], "a": tru}',
    '{"rows": ["\x01"]}', '\ufeff{"a": 1}', '{"rows": [[1, [2, ]]]}',
    '{"a": "unterminated', '{"rows": [NaX]}',
])
def test_malformed_text_fails_with_json_loads_own_error(text):
    assert walk_error(text) == json_error(text)


def test_every_truncation_fails_with_json_loads_own_error():
    text = json.dumps({"name": "t", "rows": [[["a", "é"], ["A\n1"]],
                                             [["b", 2.5], []]],
                       "config": {"min_support": 0.5}}, indent=1)
    for cut in range(len(text) - 1):
        prefix = text[:cut]
        if prefix.strip():
            assert walk_error(prefix) == json_error(prefix), repr(prefix)


def test_bytes_decode_in_json_loads_encodings():
    document = {"rows": [["é", "x"]], "name": "ü"}
    for encoding in ("utf-8", "utf-8-sig", "utf-16", "utf-32"):
        raw = json.dumps(document, ensure_ascii=False).encode(encoding)
        assert plain(loads_streaming(raw, "rows", list)) == document
    bad = b'{"rows": ["\xff"]}'
    assert walk_error(bad) == json_error(bad)


class Rejected(Exception):
    pass


def reject_negative(element):
    if element < 0:
        raise Rejected(f"negative: {element}")
    return element


def test_a_conversion_error_is_raised_where_iteration_reaches_it():
    walked = loads_streaming('{"rows": [1, 2, -3, 4, -5], "name": "n"}',
                             "rows", reject_negative)
    assert walked["name"] == "n"
    produced = []
    with pytest.raises(Rejected, match="negative: -3"):
        for element in walked["rows"]:
            produced.append(element)
    assert produced == [1, 2]


def test_invalid_json_after_a_conversion_error_still_fails_as_json():
    text = '{"rows": [1, -2, 3}'
    with pytest.raises(ValueError) as raised:
        loads_streaming(text, "rows", reject_negative)
    assert not isinstance(raised.value, Rejected)
    assert walk_error(text) == json_error(text)


def test_a_later_duplicate_discards_an_earlier_conversion_error():
    walked = loads_streaming('{"rows": [-1], "rows": [7]}', "rows",
                             reject_negative)
    assert list(walked["rows"]) == [7]
