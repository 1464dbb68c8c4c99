"""On-disk bundle cache written by ``himu select``.

After a successful run the CLI stores the bundle it was given under its
content digest, ``<root>/<digest>.bundle.json``, and reports in
``stats.json`` whether that entry was already there. Entries are never
read back. The path depends on the digest alone, so nothing from the
bundle itself can steer the write outside the root. To reuse a bundle
across questions in one process, load it once and pass it to
``run_pipeline`` for each question.
"""
from __future__ import annotations

import os
from pathlib import Path

from .experts.bundle import ExpertBundle, save_bundle

CACHE_DIR_ENV = "HIMU_CACHE_DIR"


def cache_root(override=None) -> Path:
    """Disk cache root: explicit override, else the environment, else CWD."""
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path(".himu-cache")


def entry_path(digest: str, root=None) -> Path:
    """Where the bundle with this content digest is stored."""
    return cache_root(root) / f"{digest}.bundle.json"


def write_through(bundle: ExpertBundle, digest: str, root=None) -> Path:
    """Persist a bundle under its content digest; returns the file path."""
    path = entry_path(digest, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_bundle(bundle, path)
    return path
