"""Decoding a JSON object whose bulk is one array, an element at a time.

A tenant create body (``rows``) and a snapshot document (``tuples``)
are JSON objects whose size is almost all one array of rows.
:func:`json.loads` builds that array whole, a list per row and a string
per value, before anything converts it: on the paper workload the tree
is twice the size of the relation made from it.  :func:`loads_streaming`
walks the object key by key with :mod:`json`'s own C scanner and hands
each element of the named array to ``convert`` as soon as it is
decoded, so only the converted rows are ever held.

Every other key decodes exactly as :func:`json.loads` decodes it, and
duplicate keys resolve last-wins as there.  Text the walk does not
accept is handed to :func:`json.loads`, which raises its own error for
it: a malformed document fails with the same message either way.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from json.decoder import WHITESPACE, scanstring
from typing import Any

#: The C scanner :func:`json.loads` decodes with (default settings).
_scan_once = json.JSONDecoder().scan_once
_skip = WHITESPACE.match


class ConvertedArray:
    """The converted elements of a streamed array.

    ``convert`` raising stops the conversion (the rest of the array is
    still scanned, so the text is checked whole) and the error is kept:
    iterating yields the elements converted before it, then raises it.
    A consumer therefore meets the error exactly where a loop over the
    decoded list would have, and a caller can run its own checks on
    the other keys first.
    """

    __slots__ = ("items", "error")

    def __init__(self, items: list, error: Exception | None) -> None:
        self.items = items
        self.error = error

    def __iter__(self) -> Iterator:
        yield from self.items
        if self.error is not None:
            raise self.error


def loads_streaming(document: str | bytes, key: str,
                    convert: Callable[[Any], Any]) -> Any:
    """:func:`json.loads` of ``document``, except that an array under
    the top-level ``key`` becomes a :class:`ConvertedArray` of
    ``convert(element)``, each element decoded and converted in turn.

    A document that is not an object, or a ``key`` whose value is not
    an array, decodes as :func:`json.loads` decodes it.
    """
    try:
        text = (document if isinstance(document, str) else
                document.decode(json.detect_encoding(document),
                                "surrogatepass"))
        return _walk_object(text, key, convert)
    except (ValueError, StopIteration):  # not walked: see _NotWalked
        pass
    # json.loads decodes a document that is not an object, and raises
    # its own error for text that is not valid JSON.
    return json.loads(document)


class _NotWalked(ValueError):
    """The text is not a well-formed JSON object.  Like the scanner's
    own errors, it sends the document to :func:`json.loads`."""


def _walk_object(text: str, key: str, convert: Callable[[Any], Any]) -> dict:
    end = _skip(text, 0).end()
    if text[end:end + 1] != "{":
        raise _NotWalked
    document: dict = {}
    end = _skip(text, end + 1).end()
    if text[end:end + 1] == "}":
        end = _skip(text, end + 1).end()
    else:
        while True:
            if text[end:end + 1] != '"':
                raise _NotWalked
            name, end = scanstring(text, end + 1)
            end = _skip(text, end).end()
            if text[end:end + 1] != ":":
                raise _NotWalked
            end = _skip(text, end + 1).end()
            if name == key and text[end:end + 1] == "[":
                value, end = _walk_array(text, end + 1, convert)
            else:
                value, end = _scan_once(text, end)
            document[name] = value
            end = _skip(text, end).end()
            delimiter = text[end:end + 1]
            end = _skip(text, end + 1).end()
            if delimiter == "}":
                break
            if delimiter != ",":
                raise _NotWalked
    if end != len(text):
        raise _NotWalked
    return document


def _walk_array(text: str, end: int, convert: Callable[[Any], Any]
                ) -> tuple[ConvertedArray, int]:
    """Convert the elements of the array whose ``[`` precedes ``end``;
    returns it and the index past its ``]``."""
    items: list = []
    error: Exception | None = None
    end = _skip(text, end).end()
    if text[end:end + 1] == "]":
        return ConvertedArray(items, None), end + 1
    append = items.append
    while True:
        element, end = _scan_once(text, end)
        if error is None:
            try:
                append(convert(element))
            except Exception as failure:  # kept for the consumer
                error = failure
        if text[end:end + 1] != ",":  # compact text skips the regex
            end = _skip(text, end).end()
            delimiter = text[end:end + 1]
            if delimiter == "]":
                return ConvertedArray(items, error), end + 1
            if delimiter != ",":
                raise _NotWalked
        end = _skip(text, end + 1).end()


__all__ = ["ConvertedArray", "loads_streaming"]
