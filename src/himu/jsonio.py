"""Reading, type-checking and writing the JSON documents himu works on.

Each loader passes in its own ``HimuError`` subclass, so a file that is not
UTF-8, not JSON, or holds a value of the wrong type fails with that loader's
error and exit code. The value checkers never cast: a bool is not a number,
``2.5`` is not an integer and ``7`` is not a string.

Every file is written in one canonical form (2-space indent, non-ASCII text
kept as is, shortest round-trip floats, a final newline) to a temporary file
that is renamed over the target once the write has succeeded.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import HimuError

_CANONICAL = {"indent": 2, "ensure_ascii": False}
_REQUIRED = object()


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


def parse_json(text: str, error: type[HimuError], what: str, object_hook=None):
    """Parse a JSON document, raising ``error`` for malformed input.

    Both failures of ``json.loads`` map to ``error``: invalid syntax (and
    integers beyond the interpreter's digit limit), and nesting deeper than
    the parser's recursion limit. ``object_hook`` is ``json.loads``'s: it
    gets each object as soon as the parser closes it and returns what
    stands in its place, so a loader can shrink a large object before the
    rest of the document is read.
    """
    try:
        return json.loads(text, object_hook=object_hook)
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} nesting exceeds parser limits") from None


def load_json(path, error: type[HimuError], what: str, object_hook=None):
    """The parsed document in a UTF-8 JSON file (``object_hook`` as in
    ``parse_json``)."""
    return parse_json(read_text(path, error, what), error, what, object_hook)


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


def dumps(obj) -> str:
    """Canonical text of a document."""
    return json.dumps(obj, **_CANONICAL) + "\n"


def save_json(obj, path) -> None:
    """Write the canonical text of a document atomically.

    The text is streamed to the file rather than built in memory first, so
    saving a large document adds little to the process's peak memory.
    """
    with atomic_file(path) as fh:
        json.dump(obj, fh, **_CANONICAL)
        fh.write("\n")


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
