import errno
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import himu.jsonio
from himu.bench import Event, EventScript, RecallReport, save_report, save_scripts
from himu.cache import cache_root, entry_key, entry_path, file_key, read_entry, write_through
from himu.experts import (
    OvdSource,
    bundle_digest,
    dumps_bundle,
    load_bundle,
    save_bundle,
    save_ovd_source,
)
from himu.tree import ExpertKind


def test_cache_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "alt"))
    assert cache_root() == tmp_path / "alt"
    monkeypatch.setenv("HIMU_CACHE_DIR", "")
    assert cache_root() == Path(".himu-cache")
    monkeypatch.delenv("HIMU_CACHE_DIR")
    assert cache_root() == Path(".himu-cache")


def test_disk_round_trip_bit_identical(tmp_path, monkeypatch, rich_bundle):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))
    key = bundle_digest(rich_bundle)
    path = write_through(rich_bundle, key)
    assert path == entry_path(key) == tmp_path / f"{key}.entry"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    header, rows = path.read_bytes().split(b"\n", 1)
    assert json.loads(header)["clip_table"] == ["a dog", "a cat"]
    assert rows.startswith(b"\x93NUMPY\x01\x00")

    loaded = read_entry(key)
    assert dumps_bundle(loaded) == dumps_bundle(rich_bundle)
    assert loaded.meta == rich_bundle.meta
    for table in ("clip_table", "clap_table"):
        for (query, values), (want_query, want) in zip(
            getattr(loaded, table).rows, getattr(rich_bundle, table).rows
        ):
            assert query == want_query
            assert values.tobytes() == want.tobytes()  # -0.0 and subnormals too
            assert not values.flags.writeable


def test_entry_key_is_the_digest_of_a_canonical_file(tmp_path, rich_bundle):
    canonical = tmp_path / "canonical.json"
    save_bundle(rich_bundle, canonical)
    assert entry_key(canonical.read_bytes()) == bundle_digest(load_bundle(canonical))
    compact = json.dumps(json.loads(canonical.read_text(encoding="utf-8")))
    assert entry_key(compact.encode("utf-8")) != entry_key(canonical.read_bytes())


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_000])
def test_file_key_is_the_entry_key_of_the_file_bytes(tmp_path, size):
    path = tmp_path / "bundle.json"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert file_key(path) == entry_key(path.read_bytes())


def test_missing_entry_is_a_miss(tmp_path, monkeypatch):
    for root in (tmp_path, tmp_path / "absent"):
        monkeypatch.setenv("HIMU_CACHE_DIR", str(root))
        assert read_entry("0" * 64) is None


def test_bundle_without_tables_round_trips(tmp_path, monkeypatch, rich_bundle):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))
    bundle = replace(rich_bundle, clip_table=None, clap_table=None)
    path = write_through(bundle, "k")
    assert dumps_bundle(read_entry("k")) == dumps_bundle(bundle)
    rows = np.load(io.BytesIO(path.read_bytes().split(b"\n", 1)[1]), allow_pickle=False)
    assert rows.shape == (0, bundle.num_frames)


def _disk_full_open(file, mode="r", **kwargs):
    """``open`` whose file object writes half of its first write, then fails."""
    fh = open(file, mode, **kwargs)
    write = fh.write

    def half_then_fail(data):
        write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    fh.write = half_then_fail
    return fh


_WRITERS = {
    "save_bundle": lambda bundle, tmp_path: save_bundle(bundle, tmp_path / "b.json"),
    "save_ovd_source": lambda bundle, tmp_path: save_ovd_source(
        OvdSource("vid", (("red car", np.array([0.0, 0.5, 0.9])),)), tmp_path / "o.json"
    ),
    "write_through": lambda bundle, tmp_path: write_through(bundle, "k"),
    "save_scripts": lambda bundle, tmp_path: save_scripts(
        [EventScript("s", 10, (Event(ExpertKind.CLIP, "a dog", (1, 3)),))], tmp_path / "s.json"
    ),
    "save_report": lambda bundle, tmp_path: save_report(
        RecallReport(("pass",), (8,), 0), tmp_path / "r.json"
    ),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, rich_bundle, writer):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))  # where write_through writes
    monkeypatch.setattr(himu.jsonio, "open", _disk_full_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        _WRITERS[writer](rich_bundle, tmp_path)
    assert list(tmp_path.iterdir()) == []
