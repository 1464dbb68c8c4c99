"""Reading, type-checking and writing the JSON documents himu works on.

Each loader passes in its own ``HimuError`` subclass, so a file that is not
UTF-8, not JSON, or holds a value of the wrong type fails with that loader's
error and exit code. The value checkers never cast: a bool is not a number,
``2.5`` is not an integer and ``7`` is not a string.

Every document is written in one canonical form, the text of
``json.dumps(obj, indent=2, ensure_ascii=False)`` plus a final newline:
2-space indent, non-ASCII text kept as is, shortest round-trip floats. With
``indent`` set, CPython before 3.13 formats every value of that call in
Python. ``encode`` writes the same bytes faster: it walks dicts and lists in
Python, converting keys exactly as json does, and hands each non-empty
list, tuple or dict of plain scalars (a table row, a curve, a frame list, a
phase record) to the stdlib C encoder, with the newline and indent as its
item separator, 8192 items per call. A 1-D float64 array is written as the
list of its values, 8192 of them turned into Python floats per call. It
passes its pieces to a sink: ``dumps`` joins them, ``save_json`` writes them
to a temporary file that is renamed over the target once the write has
succeeded, and ``bundle_digest`` hashes them.

``parse_json_rows`` reads a document with large number arrays (the score
rows of bundles and detection sources) from its bytes, which may come in
pieces: ``FilePieces`` reads a file 1 MiB at a time into one buffer and
hashes what it reads. The parser cuts each array out as soon as its bytes
are in, parses it on its own, and parses the rest with an integer literal
in each array's place that the parser swaps back for the array. So
neither the file's whole bytes, nor the document's whole text, nor all of
an array's Python floats are in memory at once. A document it cannot split
this way is read again, decoded and parsed whole, with the same result or
error.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from functools import cache
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring
from pathlib import Path

import numpy as np

from .errors import HimuError

_REQUIRED = object()
_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (list, tuple, dict)
_INF = float("inf")
_not_serializable = JSONEncoder().default  # raises json's own TypeError
_SLICE = 8192  # items per C encoder call: about 0.25 MB of text for floats
_ROW_SLICE = 256 * 1024  # bytes of number text parsed per call
_ROW_KEY = b'"values"'
_PIECE = 1024 * 1024  # bytes per read of a file's pieces
_MORE = object()  # the bytes so far do not tell whether an array is a row
# Digits that start the integer literal standing in for a cut-out row. No
# proper prefix equals a suffix, so occurrences never overlap and
# ``str.count`` counts them all.
_ROW_MARK = "9173028465"
_WHITESPACE = b" \t\n\r"
_FLOAT = frozenset({float})


def decode_text(data: bytes, error: type[HimuError], what: str) -> str:
    """Decode the bytes of a UTF-8 input file, raising ``error`` when they
    are not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from exc


def read_text(path, error: type[HimuError], what: str) -> str:
    """Read a UTF-8 input file, raising ``error`` when it is not UTF-8.

    A missing or unreadable file still raises ``OSError``.
    """
    return decode_text(Path(path).read_bytes(), error, what)


def parse_json(text: str, error: type[HimuError], what: str):
    """Parse a JSON document, raising ``error`` for malformed input.

    Both failures of ``json.loads`` map to ``error``: invalid syntax (and
    integers beyond the interpreter's digit limit), and nesting deeper than
    the parser's recursion limit.
    """
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} nesting exceeds parser limits") from None


def load_json(path, error: type[HimuError], what: str):
    """The parsed document in a UTF-8 JSON file."""
    return parse_json(read_text(path, error, what), error, what)


class _Loaded(np.ndarray):
    """A float64 row that a loader built from a file and nothing else holds:
    a bundle takes it as it is, read-only, instead of copying it."""


class _Unsplit(ValueError):
    """The document cannot be parsed with its arrays cut out."""


class FilePieces:
    """The bytes of a file as a re-iterable of pieces of at most 1 MiB,
    read into one fixed buffer, so the file is never whole in memory.

    Each pass hashes the bytes it reads: ``digest`` is the SHA-256 (hex) of
    the last pass that read the file to its end, None before one has. A
    piece is a view of the buffer, good until the next piece is read; a
    consumer copies what it keeps.
    """

    def __init__(self, path):
        self.path = path
        self.digest: str | None = None

    def __iter__(self):
        sha = hashlib.sha256()
        buffer = bytearray(_PIECE)
        view = memoryview(buffer)
        with open(self.path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                piece = view[:size]
                sha.update(piece)
                yield piece
        self.digest = sha.hexdigest()


def _joined(pieces) -> bytearray:
    """The bytes of all pieces, each copied before the next is read."""
    whole = bytearray()
    for piece in pieces:
        whole += piece
    return whole


def parse_json_rows(data, error: type[HimuError], what: str):
    """``parse_json`` of the UTF-8 bytes of a document, given whole or as a
    re-iterable of pieces such as ``FilePieces``, with every flat array
    that is the value of a ``"values"`` member (a score row) parsed on its
    own, straight from the bytes, so the text of the whole document is
    never built.

    The bytes not yet used sit in one buffer that each piece is appended
    to. Such an array is found there with ``bytearray.find``: ``"values"``
    after ``{`` or ``,``, then ``:`` and ``[``, whitespace allowed between,
    up to the next ``]``, with no string, array or object inside; any other
    array stays in place. Inside a valid string every quote is escaped, so
    each hit is a member key. When the buffer ends before an array is
    known to be one, the next piece is read first. The array is parsed in
    slices of about 256 KB cut at commas, so its values are never all
    Python floats at once: a non-empty array of floats becomes a
    ``_Loaded`` float64 array, any other its list. The rest of the document
    up to the array, then the integer literal ``_ROW_MARK`` followed by the
    row's number, go to the rest, and the array's bytes are deleted from
    the front of the buffer. So beside the rest the parser holds at most
    one row's text and one piece. The parser's ``parse_int`` puts each row
    back in place of its literal. Replacing one value with another keeps a
    document's validity and its parse, so the result is the same as
    parsing the whole text. When the mark occurs anywhere else in the rest,
    a row is never put back (its literal was glued to other characters or
    sits in a string), a cut array or the rest does not parse, or the bytes
    are not UTF-8, the pieces are read again and their whole text is
    decoded and parsed, so the error is ``parse_json``'s too.
    """
    whole = isinstance(data, (bytes, bytearray))
    if whole:  # read in pieces as well, so the buffer never copies it all
        view = memoryview(data)
        pieces = [view[start:start + _PIECE] for start in range(0, len(data), _PIECE)]
    else:
        pieces = data
    try:
        return _parse_split(pieces)
    except (ValueError, RecursionError):
        pass  # parsed whole below, once the split parse's buffers are freed
    return parse_json(decode_text(data if whole else _joined(pieces), error, what),
                      error, what)


def _skip_space(data, pos: int, step: int) -> int:
    """The first index from ``pos`` in direction ``step`` that holds no JSON
    whitespace (-1 or ``len(data)`` when there is none)."""
    while 0 <= pos < len(data) and data[pos] in _WHITESPACE:
        pos += step
    return pos


def _flat_array_after(buffer: bytearray, hit: int, rest: bytearray, final: bool):
    """The start and end in ``buffer`` of the array that is the value of the
    member key ``"values"`` at ``hit``, when the array holds no string,
    array or object; None when it is no such array; ``_MORE`` when the
    buffer ends before that is known and ``final`` is false.

    The bytes before the buffer are in ``rest``, where each cut-out array
    stands as its literal: both end in a byte that is not ``{`` or ``,``.
    """
    before = _skip_space(buffer, hit - 1, -1)
    opener = buffer[before:before + 1]
    if before < 0:
        before = _skip_space(rest, len(rest) - 1, -1)
        opener = rest[before:before + 1] if before >= 0 else b""
    if opener not in (b"{", b","):
        return None
    colon = _skip_space(buffer, hit + len(_ROW_KEY), 1)
    start = _skip_space(buffer, colon + 1, 1)
    if start >= len(buffer) and not final:
        return _MORE
    if buffer[colon:colon + 1] != b":" or buffer[start:start + 1] != b"[":
        return None
    end = buffer.find(b"]", start) + 1
    if not end:
        opened = any(buffer.find(byte, start + 1) >= 0 for byte in b'"[{')
        return None if final or opened else _MORE
    if any(buffer.find(byte, start + 1, end) >= 0 for byte in b'"[{'):
        return None
    return start, end


def _parse_split(pieces):
    rest = bytearray()  # the document around its arrays, and their literals
    rows: dict = {}  # literal -> parsed array
    buffer = bytearray()  # bytes read but not yet cut or moved to the rest
    scan = 0  # where in the buffer the next search for the key starts
    for piece in chain(pieces, (None,)):
        final = piece is None
        if not final:
            buffer += piece
        while (hit := buffer.find(_ROW_KEY, scan)) >= 0:
            found = _flat_array_after(buffer, hit, rest, final)
            if found is _MORE:  # read on, with this key at the front
                break
            if found is None:
                scan = hit + 1
                continue
            start, end = found
            literal = f"{_ROW_MARK}{len(rows)}"
            with memoryview(buffer) as view:
                rows[literal] = _parse_array(buffer, view, start, end)
                rest += view[:start]
            rest += literal.encode("ascii")
            del buffer[:end]
            scan = 0
        else:  # no key left: all but a tail that may begin one is done with
            hit = len(buffer) if final else max(scan, len(buffer) - len(_ROW_KEY) + 1)
        rest += buffer[:hit]
        del buffer[:hit]
        scan = 0
    text = str(rest, "utf-8")
    del rest
    if text.count(_ROW_MARK) != len(rows):
        raise _Unsplit("the row mark occurs outside the cut-out arrays")

    def put_back(literal: str):
        row = rows.pop(literal, None)
        return int(literal) if row is None else row

    obj = json.loads(text, parse_int=put_back)
    if rows:
        raise _Unsplit("a row was never put back")
    return obj


def _parse_array(data: bytes, view: memoryview, start: int, end: int):
    """The flat array in ``data[start:end]`` parsed on its own: ``_Loaded``
    float64 when it is a non-empty array of floats, else its list."""
    # Numbers and literals only, so every comma separates two values.
    values = np.empty(data.count(b",", start, end) + 1)
    filled, pos = 0, start + 1
    while pos < end - 1:
        cut = data.find(b",", pos + _ROW_SLICE, end - 1)
        cut = end - 1 if cut < 0 else cut
        part = json.loads("[" + str(view[pos:cut], "utf-8") + "]")
        if set(map(type, part)) != _FLOAT:
            break  # empty between commas, or not floats: parse it whole
        values[filled:filled + len(part)] = part
        filled += len(part)
        pos = cut + 1
    else:
        if filled == len(values):
            return values.view(_Loaded)
    return json.loads(str(view[start:end], "utf-8"))


@contextmanager
def atomic_file(path, mode: str = "w"):
    """Open ``<path>.tmp.<pid>`` for writing and move it to ``path`` on success.

    Text modes write UTF-8. If the body or the move fails, the temporary
    file is removed, so a failed write leaves no file behind.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value) -> str:
    """A non-container value as json encodes it; anything else raises
    json's ``TypeError``."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return _not_serializable(value)


def _key(key) -> str:
    """A dict key converted to a string exactly as json converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


@cache
def _flat_encoder(level: int):
    """A one-line encoder whose item separator puts each item on a line of
    its own at indent ``level``: the stdlib C encoder called directly, which
    skips ``JSONEncoder.encode``'s set-up on every small dict, or
    ``JSONEncoder.encode`` where there is no C encoder."""
    separator = ",\n" + _INDENT * level
    if c_make_encoder is None:
        return JSONEncoder(ensure_ascii=False, check_circular=False,
                           separators=(separator, ": ")).encode
    encoder = c_make_encoder(None, _not_serializable, encode_basestring, None,
                             ": ", separator, False, False, True)
    return lambda obj: "".join(encoder(obj, 0))


def _is_float_vector(obj) -> bool:
    """A 1-D float64 array, plain or a loader's row, which is encoded as the
    list of its values."""
    return type(obj) in (np.ndarray, _Loaded) and obj.ndim == 1 and obj.dtype == np.float64


def _write_flat(obj, write, level: int) -> bool:
    """Write a list, tuple or dict that holds only plain scalars (keys
    included), its items at indent ``level``, from C encoder calls of at
    most ``_SLICE`` items each, and return True; return False, writing
    nothing, for any other container."""
    kind = type(obj)
    if kind is dict:
        if not (_SCALARS.issuperset(map(type, obj))
                and _SCALARS.issuperset(map(type, obj.values()))):
            return False
        parts = (obj,)  # dicts are small: a table row is a list
    elif (kind is list or kind is tuple) and _SCALARS.issuperset(map(type, obj)):
        parts = (obj[start:start + _SLICE] for start in range(0, len(obj), _SLICE))
    elif _is_float_vector(obj):
        parts = (obj[start:start + _SLICE].tolist() for start in range(0, len(obj), _SLICE))
    else:
        return False
    encode = _flat_encoder(level)
    newline = "\n" + _INDENT * level
    head = ("{" if kind is dict else "[") + newline
    for part in parts:
        write(head + encode(part)[1:-1])
        head = "," + newline
    write("\n" + _INDENT * (level - 1) + ("}" if kind is dict else "]"))
    return True


def _encode(obj, write, level: int) -> None:
    """Pass the canonical text of ``obj``, nested at indent ``level``, to
    ``write`` in pieces."""
    if not isinstance(obj, _CONTAINERS) and not _is_float_vector(obj):
        write(_scalar(obj))
        return
    is_dict = isinstance(obj, dict)
    if not len(obj):
        write("{}" if is_dict else "[]")
        return
    if _write_flat(obj, write, level + 1):
        return
    newline = "\n" + _INDENT * (level + 1)
    if is_dict:
        prefix, closing = "{" + newline, "}"
        items = ((encode_basestring(_key(key)) + ": ", value) for key, value in obj.items())
    else:
        prefix, closing = "[" + newline, "]"
        items = (("", value) for value in obj)
    for head, value in items:
        if isinstance(value, _CONTAINERS) or _is_float_vector(value):
            write(prefix + head)
            _encode(value, write, level + 1)
        else:
            write(prefix + head + _scalar(value))
        prefix = "," + newline
    write("\n" + _INDENT * level + closing)


def encode(obj, write) -> None:
    """Pass the canonical text of a document, final newline included, to
    ``write`` in pieces.

    No piece holds more than 8192 items of a flat list (about 0.25 MB of
    text), so a sink that consumes pieces as they come (a file, a hash)
    never holds the whole text.
    """
    _encode(obj, write, 0)
    write("\n")


def dumps(obj) -> str:
    """Canonical text of a document."""
    pieces: list[str] = []
    encode(obj, pieces.append)
    return "".join(pieces)


def save_json(obj, path) -> None:
    """Write the canonical text of a document atomically.

    ``encode``'s pieces go to the temporary file as they are made, so the
    whole text is never built in memory, and saving a large document adds
    about one piece's text to the process's peak memory.
    """
    with atomic_file(path) as fh:
        encode(obj, fh.write)


def number(value, error: type[HimuError], what: str) -> float:
    """A JSON number as a float; a bool, or an integer no float can hold,
    raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is out of range") from None


def integer(value, error: type[HimuError], what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer")
    return value


def string(value, error: type[HimuError], what: str) -> str:
    if not isinstance(value, str):
        raise error(f"{what} must be a string")
    return value


def boolean(value, error: type[HimuError], what: str) -> bool:
    if not isinstance(value, bool):
        raise error(f"{what} must be a boolean")
    return value


def array(value, error: type[HimuError], what: str, item=None) -> list:
    """A JSON array, with each element passed through ``item`` when given."""
    if not isinstance(value, list):
        raise error(f"{what} must be a list")
    if item is None:
        return value
    return [item(v, error, f"{what}[{i}]") for i, v in enumerate(value)]


def mapping(value, error: type[HimuError], what: str) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    return value


def known_keys(obj: dict, keys, error: type[HimuError], what: str) -> None:
    """Raise ``error`` when ``obj`` holds a key outside ``keys``."""
    unknown = set(obj) - set(keys)
    if unknown:
        raise error(f"{what} has unknown keys: {sorted(unknown)}")


def field(obj: dict, key: str, check, error: type[HimuError], what: str,
          default=_REQUIRED):
    """``obj[key]`` passed through ``check``; a missing key raises ``error``
    unless a default is given."""
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"{what} is missing required key {key!r}")
        return default
    return check(obj[key], error, f"{what} key {key!r}")
