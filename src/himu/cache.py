"""On-disk cache of score-row documents, read and written by ``himu select``.

Two kinds of document have score rows, ``{query, values}`` objects that
hold nearly all of a file's bytes: a bundle (``clip_table`` and
``clap_table``) and a detection source (``entries``). Each ``--bundle``
and ``--ovd`` file gets an entry of its own, so a warm run parses neither.

Key: the SHA-256 of the file's bytes, so a hit is found without parsing
the file, and ``file_key`` finds it without holding the whole file. For a
bundle file in the canonical form that ``save_bundle`` writes, the key
equals ``bundle_digest`` of its content. A file holding the same document
in another layout (compact JSON, other key order) hashes differently and
gets an entry of its own. A miss is streamed: the file is parsed from
1 MiB pieces (``jsonio.FilePieces``) that are hashed as they are read, so
the entry is keyed by the bytes that were parsed and the file is never
whole in memory.

Entry: one file, ``<root>/<key>.entry``. Its first line is a compact ASCII
JSON header: ``entry_version`` (4), the document ``kind`` (``"bundle"`` or
``"ovd"``) and the document form that ``bundle_to_obj`` or ``ovd_to_obj``
gives, with each row's ``"values"`` replaced by its number of values. The
rest is the raw ``<f8`` bytes of every row, list after list, which
``write_through`` writes one row at a time without concatenating them.
The header already gives every row's length, so the rows carry no header
of their own. ``write_through`` writes an entry only after a successful
run, through a temporary file and an atomic rename, so a failed write
leaves no file behind. The path depends on the key alone, so nothing in
the document can steer the write outside the root.

Read-back: ``read_entry`` returns the stored document of the kind asked
for, or None for a miss. An entry is untrusted input, because anyone who
can write to the root can put a file there. Before any row is cut, every
row must be an object whose length is an int of at least 1. Before the
rows are read, the bytes left in the file must be exactly 8 bytes for
each value the row lengths add up to; after, the read must have returned
that many values, so a file that shrinks in between is a miss too. Each
row's slice of the values then takes its length's place. Header and rows
pass the same checks as the file they came from (``bundle_from_obj`` or
``ovd_from_obj``). Any failure, from a missing or truncated file to another
version (an entry of versions 1 to 3 included), another kind or a
malformed header, is a miss: the caller parses the file and rewrites the
entry. These checks do not authenticate an entry, so a forged one that is
internally consistent would be used as it stands. Keep the cache root
writable only by its owner.

To reuse a bundle across questions in one process, load it once and pass
it to ``run_pipeline`` for each question.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import BundleFormatError, HimuError
from .experts.bundle import (
    ExpertBundle,
    OvdSource,
    bundle_from_obj,
    bundle_to_obj,
    ovd_from_obj,
    ovd_to_obj,
)
from .jsonio import FilePieces, _Loaded, atomic_file, decode_text, parse_json

CACHE_DIR_ENV = "HIMU_CACHE_DIR"
ENTRY_VERSION = 4

# Per document kind: the document keys that hold score rows, the document
# form of the object, and the check that turns the document into its object.
_KINDS = {
    "bundle": (("clip_table", "clap_table"), bundle_to_obj, bundle_from_obj),
    "ovd": (("entries",), ovd_to_obj, ovd_from_obj),
}
_ROW_DTYPE = np.dtype("<f8")


def cache_root() -> Path:
    """Disk cache root: the environment, else CWD."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(".himu-cache")


def file_key(path) -> str:
    """Cache key of the file at ``path``: the SHA-256 of its bytes, read in
    pieces (``FilePieces``), so the file is never whole in memory."""
    pieces = FilePieces(path)
    for _ in pieces:
        pass
    return pieces.digest


def entry_path(key: str) -> Path:
    """Where the entry for this key is stored."""
    return cache_root() / f"{key}.entry"


def write_through(document: ExpertBundle | OvdSource, key: str) -> Path:
    """Store a bundle or detection source under its key; returns the entry path."""
    kind = "ovd" if isinstance(document, OvdSource) else "bundle"
    names, to_obj, _ = _KINDS[kind]
    header = {"entry_version": ENTRY_VERSION, "kind": kind, **to_obj(document)}
    rows = []
    for name in names:
        for row in header.get(name, ()):
            rows.append(row["values"])
            row["values"] = len(row["values"])

    path = entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_file(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        for values in rows:  # row after row, so no concatenated copy is made
            fh.write(np.ascontiguousarray(values, dtype=_ROW_DTYPE))
    return path


def read_entry(key: str, kind: str) -> ExpertBundle | OvdSource | None:
    """The document of ``kind`` (``"bundle"`` or ``"ovd"``) stored under
    ``key``, or None when there is no valid entry of that kind."""
    try:
        with open(entry_path(key), "rb") as fh:
            return _load_entry(fh, kind)
    except (OSError, ValueError, HimuError):
        return None


def _load_entry(fh, kind: str):
    what = "cache entry header"
    header = parse_json(decode_text(fh.readline(), BundleFormatError, what),
                        BundleFormatError, what)
    if not isinstance(header, dict):
        raise BundleFormatError(f"{what} must be a JSON object")
    version = header.pop("entry_version", None)
    if type(version) is not int or version != ENTRY_VERSION:
        raise BundleFormatError(f"unsupported cache entry version {version!r}")
    found = header.pop("kind", None)
    if found != kind:
        raise BundleFormatError(f"cache entry holds kind {found!r}, expected {kind!r}")
    names, _, from_obj = _KINDS[kind]
    lists = [header[name] for name in names if name in header]
    if not all(isinstance(rows, list) for rows in lists):
        raise BundleFormatError("cache entry row lists must be lists")
    rows = [row for rows in lists for row in rows]
    # Every row is checked before any is cut: a length below 1 would slice
    # from the end or give an empty row, and still add up to the block's size.
    if not all(isinstance(row, dict) and type(row.get("values")) is int
               and row["values"] >= 1 for row in rows):
        raise BundleFormatError("cache entry rows must be objects with a length >= 1")
    total = sum(row["values"] for row in rows)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != total * _ROW_DTYPE.itemsize:
        raise BundleFormatError(f"cache entry has {left} bytes of rows for {total} values")
    # ``fromfile`` returns fewer values, silently, when the file shrank since.
    # Nothing else holds the rows, so the document keeps them without a copy.
    block = np.fromfile(fh, dtype=_ROW_DTYPE, count=total).view(_Loaded)
    if len(block) != total:
        raise BundleFormatError(f"cache entry rows gave {len(block)} of {total} values")
    start = 0
    for row in rows:
        length = row["values"]
        row["values"] = block[start:start + length]
        start += length
    return from_obj(header)

