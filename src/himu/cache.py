"""On-disk bundle cache read and written by ``himu select``.

Key: the SHA-256 of the bundle file's bytes, so a hit is found without
parsing the bundle, and ``file_key`` finds it without holding the whole
file. For a file in the canonical form that ``save_bundle`` writes, the key
equals ``bundle_digest`` of its content. A file holding the
same bundle in another layout (compact JSON, other key order) hashes
differently and gets an entry of its own.

Entry: one file, ``<root>/<key>.entry``. Its first line is a compact ASCII
JSON header: ``entry_version`` and the ``bundle_to_obj`` document with each
score table reduced to its list of row queries. The rest is one ``.npy``
block (NumPy format 1.0) holding every table row, CLIP rows then CLAP rows,
as a C-order ``<f8`` array of shape (rows, T). ``write_through`` writes an
entry only after a successful run, through a temporary file and an atomic
rename, so a failed write leaves no file behind. The path depends on the
key alone, so nothing in the bundle can steer the write outside the root.

Read-back: ``read_entry`` returns the stored bundle, or None for a miss. An
entry is untrusted input, because anyone who can write to the root can put
a file there. Before the rows are read, the ``.npy`` header must give
dtype ``<f8``, C order and the shape the JSON header implies, and the bytes
left in the file must be exactly those rows; the rows are then loaded with
``allow_pickle=False``. Header and rows pass the same checks as a bundle
file (``bundle_from_obj``). Any failure, from a missing or truncated file to
another version or a malformed header, is a miss: the caller parses the
bundle file and rewrites the entry. These checks do not authenticate an
entry, so a forged one that is internally consistent would be used as it
stands. Keep the cache root writable only by its owner.

To reuse a bundle across questions in one process, load it once and pass
it to ``run_pipeline`` for each question.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import BundleFormatError, HimuError
from .experts.bundle import ExpertBundle, bundle_from_obj, bundle_to_obj
from .jsonio import _Loaded, atomic_file, decode_text, parse_json

CACHE_DIR_ENV = "HIMU_CACHE_DIR"
ENTRY_VERSION = 1

_TABLES = ("clip_table", "clap_table")  # bundle attributes and document keys
_ROW_DTYPE = np.dtype("<f8")
_KEY_PIECE = 64 * 1024


def cache_root() -> Path:
    """Disk cache root: the environment, else CWD."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(".himu-cache")


def entry_key(data: bytes) -> str:
    """Cache key of a bundle file: the SHA-256 of its bytes."""
    return hashlib.sha256(data).hexdigest()


def file_key(path) -> str:
    """``entry_key`` of the file at ``path``, read in 64 KiB pieces, so the
    file is never whole in memory."""
    digest = hashlib.sha256()
    buffer = bytearray(_KEY_PIECE)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def entry_path(key: str) -> Path:
    """Where the entry for this key is stored."""
    return cache_root() / f"{key}.entry"


def write_through(bundle: ExpertBundle, key: str) -> Path:
    """Store a bundle under its key; returns the entry path."""
    # The tables leave the JSON header before it is built, so their values
    # are never turned into Python floats.
    header = {
        "entry_version": ENTRY_VERSION,
        **bundle_to_obj(replace(bundle, clip_table=None, clap_table=None)),
    }
    rows = []
    for name in _TABLES:
        table = getattr(bundle, name)
        if table is not None:
            header[name] = [query for query, _ in table.rows]
            rows += [values for _, values in table.rows]
    array = np.array(rows, dtype=_ROW_DTYPE).reshape(len(rows), bundle.num_frames)

    path = entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_file(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        np.save(fh, array, allow_pickle=False)
    return path


def read_entry(key: str) -> ExpertBundle | None:
    """The bundle stored under ``key``, or None when there is no valid entry."""
    try:
        with open(entry_path(key), "rb") as fh:
            return _load_entry(fh)
    except (OSError, ValueError, HimuError):
        return None


def _load_entry(fh) -> ExpertBundle:
    what = "cache entry header"
    header = parse_json(decode_text(fh.readline(), BundleFormatError, what),
                        BundleFormatError, what)
    if not isinstance(header, dict):
        raise BundleFormatError(f"{what} must be a JSON object")
    version = header.pop("entry_version", None)
    if type(version) is not int or version != ENTRY_VERSION:
        raise BundleFormatError(f"unsupported cache entry version {version!r}")
    queries = {name: header.pop(name) for name in _TABLES if name in header}
    if not all(isinstance(names, list) for names in queries.values()):
        raise BundleFormatError(f"{what} table queries must be lists")
    rows = _read_rows(fh, (sum(map(len, queries.values())), header.get("T")))
    start = 0
    for name, names in queries.items():
        header[name] = [
            {"query": query, "values": values}
            for query, values in zip(names, rows[start:start + len(names)])
        ]
        start += len(names)
    return bundle_from_obj(header)


def _read_rows(fh, shape: tuple) -> np.ndarray:
    """The ``.npy`` block at the file position, checked before it is read."""
    start = fh.tell()
    if np.lib.format.read_magic(fh) != (1, 0):
        raise BundleFormatError("cache entry rows must be .npy format 1.0")
    found, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if dtype != _ROW_DTYPE or fortran_order or found != shape:
        order = "Fortran" if fortran_order else "C"
        raise BundleFormatError(f"cache entry rows are {order}-order {dtype} {found}, "
                                f"expected C-order {_ROW_DTYPE} {shape}")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != math.prod(found) * _ROW_DTYPE.itemsize:
        raise BundleFormatError(f"cache entry has {left} bytes of rows for shape {found}")
    fh.seek(start)
    # Nothing else holds the rows, so the bundle keeps them without a copy.
    return np.load(fh, allow_pickle=False).view(_Loaded)
