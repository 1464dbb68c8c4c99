import decimal
import enum
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himu.errors import BundleFormatError
from himu.jsonio import _Loaded, _flat_array_after, dumps, parse_json_rows, save_json
from oracles import dumps_stdlib


def _examples(n):
    """n examples, or the loaded hypothesis profile's count when that is
    larger: the byte-equality properties run longer under "thorough"."""
    return max(n, settings.default.max_examples)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class _Score(float):
    def __repr__(self):
        return "not this"


class _Text(str):
    pass


# Floats where shortest round-trip formatting switches notation or loses
# a sign, and the three values json writes as NaN, Infinity and -Infinity.
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4, 1e15, 0.1, 1.7976931348623157e308,
     math.nan, math.inf, -math.inf])
# Integers beyond 64 bits, and int and float subclasses, which json writes
# as their int or float value.
_INTS = st.integers() | st.integers(min_value=-2**100, max_value=2**100) | st.sampled_from(
    [2**64, -2**64 - 1, 2**63, _Level.LOW, _Level.HIGH])
# Text with non-ASCII letters, quotes, backslashes, control characters and
# lone surrogates, which json passes through unescaped.
_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", " ", "é Straße", "\ud800", "a\udfffb", "😀"])
_SCALARS = (st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
            | _FLOATS.map(_Score) | _TEXT.map(_Text))
_KEYS = _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)
                   | st.lists(_SCALARS, min_size=1, max_size=8)
                   | st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4)),
    max_leaves=30,
)
# Sets cannot be keys; a frozenset can. json's message names the key's
# class, which for Decimal differs from the C type name, decimal.Decimal.
_BAD_KEYS = st.sampled_from([b"raw", ("a", 1), frozenset({1}), decimal.Decimal(1), object()])
_BAD_VALUES = st.sampled_from([{1, 2}, b"raw", decimal.Decimal(1), object(), 1j])


def _error(encode, doc):
    with pytest.raises(Exception) as info:
        encode(doc)
    return type(info.value), str(info.value)


def _bury(doc, depth, as_dict):
    """``doc`` as the last item of ``depth`` nested lists or dicts."""
    for _ in range(depth):
        doc = {"x": [], "y": doc} if as_dict else [None, doc]
    return doc


@settings(max_examples=_examples(400), deadline=None)
@given(_DOCUMENTS, st.data())
def test_canonical_encoder_matches_stdlib_bytewise(doc, data):
    text = dumps(doc)
    assert text == dumps_stdlib(doc)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        try:
            expected = text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: UTF-8 cannot hold it
            with pytest.raises(UnicodeEncodeError):
                save_json(doc, path)
            assert list(Path(tmp).iterdir()) == []
        else:
            save_json(doc, path)
            assert path.read_bytes() == expected

    # A key or value json cannot write fails with json's own TypeError,
    # at any depth.
    depth, as_dict = data.draw(st.integers(0, 3)), data.draw(st.booleans())
    bad_key = _bury([doc, {data.draw(_BAD_KEYS): 1}], depth, as_dict)
    assert _error(dumps, bad_key) == _error(dumps_stdlib, bad_key)
    bad_value = _bury({"doc": doc, "bad": [1.5, data.draw(_BAD_VALUES)]}, depth, as_dict)
    assert _error(dumps, bad_value) == _error(dumps_stdlib, bad_value)


@pytest.mark.parametrize("length", [1, 8191, 8192, 8193, 2 * 8192 + 5])
def test_flat_lists_of_any_length_at_every_depth_match_stdlib(length):
    """Long flat lists go to the C encoder in slices; the slices must join
    into the stdlib text at any nesting depth."""
    specials = [-0.0, 5e-324, math.nan, math.inf, None, True, "é"]
    row = (specials + [0.1 * i for i in range(length)])[:length]
    doc = row
    for depth in range(6):
        doc = {"values": doc, "row": row, "pair": (row[:2], {"k": 1})} if depth % 2 else [doc, row]
        assert dumps(doc) == dumps_stdlib(doc)


@pytest.mark.parametrize("length", [0, 1, 8191, 8192, 8193, 2 * 8192 + 1])
def test_float64_vectors_encode_as_the_list_of_their_values(length):
    """A 1-D float64 array, a loader's row included, is written as the list
    of its values, converted 8192 at a time, at the top level and nested."""
    specials = [-0.0, 5e-324, math.nan, math.inf, -math.inf]
    values = np.array((specials + [0.1 * i for i in range(length)])[:length], dtype=np.float64)
    as_list = values.tolist()
    assert dumps(values) == dumps(as_list) == dumps_stdlib(as_list)
    doc = {"video_id": "v", "T": length, "values": values}
    assert dumps(doc) == dumps_stdlib({**doc, "values": as_list})
    assert dumps([values, [values]]) == dumps_stdlib([as_list, [as_list]])
    loaded = values.view(_Loaded)
    assert dumps(loaded) == dumps(as_list)
    assert dumps({**doc, "values": loaded}) == dumps_stdlib({**doc, "values": as_list})


@pytest.mark.parametrize("array", [np.zeros((2, 2)), np.arange(3), np.zeros(3, np.float32),
                                   np.ma.masked_array(np.zeros(3))])
def test_other_arrays_are_not_serializable(array):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps({"values": array})


def test_json_key_conversion():
    doc = {1: "int", 2.5: "float", math.nan: "nan", -math.inf: "-inf", False: "bool",
           None: "none", _Level.HIGH: "enum", "1": "str"}
    assert dumps(doc) == dumps_stdlib(doc)
    assert json.loads(dumps(doc)) == {
        "1": "str", "2.5": "float", "NaN": "nan", "-Infinity": "-inf", "false": "bool",
        "null": "none", str(2**70): "enum"}


def test_only_values_members_become_float64_rows():
    """``parse_json_rows`` turns the flat float arrays of ``"values"``
    members into float64, and leaves every other array the list ``json``
    parses: under keys that end or start with the quoted word, under an
    escaped spelling of the key, with an integer inside, and in a string."""
    data = (b'{"values": [1.0, 2.5], "x\\"values": [3.0], "values\\"": [4.0], '
            b'"escaped": {"val\\u0075es": [5.0]}, "rows": [{"values": [6.0, 7]}], '
            b'"s": "{\\"values\\": [8.0]}"}')
    got = parse_json_rows(data, BundleFormatError, "document")
    assert type(got["values"]) is _Loaded
    assert {**got, "values": got["values"].tolist()} == json.loads(data)
    others = (got['x"values'], got['values"'], got["escaped"]["values"], got["rows"][0]["values"])
    assert [type(value) for value in others] == [list] * 4


@pytest.mark.parametrize("buffer", [b'"values": [1.0],', b' \n"values": [1.0]{', b'"values":[]'])
def test_a_key_at_the_buffer_front_opens_no_row(buffer):
    """A key with only whitespace before it in the parser's buffer follows a
    ``]`` or a cut-out row's literal in the document, so it is no member
    whose array is cut out, whatever byte the buffer ends with."""
    assert _flat_array_after(bytearray(buffer), buffer.index(b'"values"')) is None
