import errno
import hashlib
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import himu.jsonio
from himu.bench import RecallReport, save_report
from himu.cache import cache_root, entry_path, file_key, read_entry, write_through
from himu.experts import (
    ExpertBundle,
    OcrFrameText,
    OvdSource,
    ScoreTable,
    TranscriptSegment,
    bundle_digest,
    dumps_bundle,
    load_bundle,
    ovd_to_obj,
    save_bundle,
    save_ovd_source,
)
from himu.jsonio import dumps
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
    header = json.loads(header)
    assert (header["entry_version"], header["kind"]) == (3, "bundle")
    assert header["clip_table"] == [{"query": "a dog", "values": 40},
                                    {"query": "a cat", "values": 40}]
    assert rows.startswith(b"\x93NUMPY\x01\x00")
    assert np.load(io.BytesIO(rows), allow_pickle=False).shape == (3 * 40,)

    loaded = read_entry(key, "bundle")
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
    assert file_key(canonical) == bundle_digest(load_bundle(canonical))
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(json.loads(canonical.read_text(encoding="utf-8"))),
                       encoding="utf-8")
    assert file_key(compact) != file_key(canonical)


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_000,
                                  2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5])
def test_file_key_is_the_entry_key_of_the_file_bytes(tmp_path, size):
    """The key is the SHA-256 of the file's bytes, whole pieces or not."""
    path = tmp_path / "bundle.json"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes())
    assert file_key(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_entry_is_a_miss(tmp_path, monkeypatch):
    for root in (tmp_path, tmp_path / "absent"):
        monkeypatch.setenv("HIMU_CACHE_DIR", str(root))
        for kind in ("bundle", "ovd"):
            assert read_entry("0" * 64, kind) is None


def test_an_entry_is_read_only_as_its_own_kind(tmp_path, monkeypatch, rich_bundle):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))
    source = OvdSource("vid-rich", (("ball", np.linspace(0.0, 1.0, 40)),))
    write_through(rich_bundle, "b")
    write_through(source, "o")
    assert read_entry("b", "ovd") is None and read_entry("o", "bundle") is None
    assert dumps_bundle(read_entry("b", "bundle")) == dumps_bundle(rich_bundle)
    assert dumps(ovd_to_obj(read_entry("o", "ovd"))) == dumps(ovd_to_obj(source))


def test_bundle_without_tables_round_trips(tmp_path, monkeypatch, rich_bundle):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))
    bundle = replace(rich_bundle, clip_table=None, clap_table=None)
    path = write_through(bundle, "k")
    assert dumps_bundle(read_entry("k", "bundle")) == dumps_bundle(bundle)
    rows = np.load(io.BytesIO(path.read_bytes().split(b"\n", 1)[1]), allow_pickle=False)
    assert rows.shape == (0,)


def _examples(n):
    """n examples, or the loaded hypothesis profile's count when that is
    larger: the byte-equality properties run longer under "thorough"."""
    return max(n, settings.default.max_examples)


_ENTRY_QUERY = st.one_of(
    st.sampled_from(["ball", "Ball", "a red car", "Straße", "\u65e5\u672c", "a\nb \"c\""]),
    st.text(min_size=1, max_size=8).filter(str.strip),
)
_ENTRY_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 0.30000000000000004]))
_ENTRY_ROW = st.lists(_ENTRY_VALUE, min_size=1, max_size=6)


@settings(max_examples=_examples(100), deadline=None)
@given(st.text(min_size=1, max_size=6), st.lists(st.tuples(_ENTRY_QUERY, _ENTRY_ROW), max_size=6))
def test_detection_entry_round_trip_bytewise(video_id, entries):
    """A detection source of rows of mixed lengths, repeated and non-ASCII
    queries or no entries at all reads back from its entry as it was
    written, bit for bit, with read-only rows."""
    source = OvdSource(video_id, tuple((query, np.array(row)) for query, row in entries))
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"HIMU_CACHE_DIR": root}):
        write_through(source, "k")
        loaded = read_entry("k", "ovd")
    assert dumps(ovd_to_obj(loaded)) == dumps(ovd_to_obj(source))
    assert [query for query, _ in loaded.entries] == [query for query, _ in source.entries]
    for (_, values), (_, want) in zip(loaded.entries, source.entries):
        assert values.tobytes() == want.tobytes()  # -0.0 and subnormals too
        assert not values.flags.writeable


_META_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _ENTRY_VALUE, st.text(max_size=4))
_META = st.fixed_dictionaries(
    {"values": st.lists(_ENTRY_VALUE, max_size=4)},
    optional={"nested": st.recursive(
        _META_SCALAR,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=8,
    )},
)


@st.composite
def _entry_bundles(draw):
    """A bundle with both tables, a transcript, OCR text and free-form meta."""
    num_frames = draw(st.integers(1, 6))
    rows = st.lists(st.tuples(
        _ENTRY_QUERY, st.lists(_ENTRY_VALUE, min_size=num_frames, max_size=num_frames)
    ), max_size=3)
    video_id = draw(st.text(min_size=1, max_size=6))
    segments = draw(st.lists(st.tuples(
        st.floats(0.0, 100.0), st.floats(1e-3, 100.0), st.text(max_size=6)
    ), max_size=4))
    ocr = draw(st.lists(st.tuples(
        st.integers(0, num_frames - 1), st.lists(st.text(max_size=5), max_size=3)
    ), max_size=4))
    return ExpertBundle(
        video_id=video_id,
        num_frames=num_frames,
        frame_rate=draw(st.floats(0.1, 60.0)),
        clip_table=ScoreTable(ExpertKind.CLIP, video_id, tuple(
            (query, np.array(row)) for query, row in draw(rows))),
        clap_table=ScoreTable(ExpertKind.CLAP, video_id, tuple(
            (query, np.array(row)) for query, row in draw(rows))),
        transcript=tuple(TranscriptSegment(start, start + span, text)
                         for start, span, text in segments),
        ocr=tuple(OcrFrameText(frame, tuple(texts)) for frame, texts in ocr),
        meta=draw(_META),
    )


@settings(max_examples=_examples(100), deadline=None)
@given(_entry_bundles())
def test_bundle_entry_round_trip_bytewise(bundle):
    """A bundle with every section, and a meta that holds a "values" list
    of its own, reads back from its entry with the same canonical text and
    read-only rows."""
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"HIMU_CACHE_DIR": root}):
        write_through(bundle, "k")
        loaded = read_entry("k", "bundle")
    assert dumps_bundle(loaded) == dumps_bundle(bundle)
    for table in (loaded.clip_table, loaded.clap_table):
        assert not any(values.flags.writeable for _, values in table.rows)


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
    "write_through ovd": lambda bundle, tmp_path: write_through(
        OvdSource("vid", (("red car", np.array([0.0, 0.5, 0.9])),)), "k"
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


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced while it
    ran; tracemalloc counts numpy's buffers as well as Python objects."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_bundle(tmp_path_factory):
    """A table-only bundle of 32 rows of 20,000 values and its canonical
    file, about 18 MB."""
    rng = np.random.default_rng(11)
    table = ScoreTable(ExpertKind.CLIP, "vid",
                       tuple((f"q{i}", rng.random(20_000)) for i in range(32)))
    bundle = ExpertBundle(video_id="vid", num_frames=20_000, frame_rate=1.0, clip_table=table)
    path = tmp_path_factory.mktemp("large") / "table.bundle.json"
    save_bundle(bundle, path)
    return bundle, path


def _row_bytes(bundle) -> int:
    return sum(values.nbytes for _, values in bundle.clip_table.rows)


def test_bundle_file_load_peaks_below_its_rows_and_a_quarter_of_its_size(large_bundle):
    """The file is read and parsed in pieces: beside its float64 rows a load
    holds about one row's text and one 1 MiB piece, never the file's
    bytes."""
    bundle, path = large_bundle
    size = path.stat().st_size
    assert size >= 8 * 2**20
    loaded, peak = _traced_peak(lambda: load_bundle(path))
    assert peak < _row_bytes(bundle) + size / 4
    assert [values.tobytes() for _, values in loaded.clip_table.rows] == \
        [values.tobytes() for _, values in bundle.clip_table.rows]


def test_entry_write_peaks_below_a_quarter_of_its_rows(large_bundle, tmp_path, monkeypatch):
    """Rows are written to the entry one after another, with no
    concatenated copy of them, and read back bit for bit."""
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path))
    bundle, _ = large_bundle
    _, peak = _traced_peak(lambda: write_through(bundle, "k"))
    assert peak < _row_bytes(bundle) / 4
    assert [values.tobytes() for _, values in read_entry("k", "bundle").clip_table.rows] == \
        [values.tobytes() for _, values in bundle.clip_table.rows]
