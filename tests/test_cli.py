import argparse
import errno
import io
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import himu
import himu.jsonio
from himu.bench import Event, EventScript, generate
from himu.cache import entry_path, file_key, read_entry, write_through
from himu.cli import _SIGMA_FLAGS, build_parser, main
from himu.config import SCALAR_KEYS
from himu.experts import (
    OvdSource,
    bundle_digest,
    bundle_to_obj,
    load_bundle,
    load_ovd_source,
    ovd_to_obj,
    save_ovd_source,
)
from himu.jsonio import dumps
from himu.tree import ExpertKind
from oracles import dumps_stdlib, ovd_document, save_scripts

ARTIFACTS = ("selection.json", "curve.json", "attribution.json")


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    """Tree + bundle on disk, with the disk cache isolated per test."""
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "cache"))
    script = EventScript(
        script_id="vid-1",
        num_frames=120,
        events=(
            Event(ExpertKind.CLIP, "a red car", (40, 44), amplitude=0.9),
            Event(ExpertKind.ASR, "turn left here", (80, 84)),
        ),
        noise_level=0.02,
        seed=3,
    )
    instance = generate(script)
    bundle_path = tmp_path / "vid-1.bundle.json"
    bundle_path.write_text(dumps(bundle_to_obj(instance.bundle)), encoding="utf-8")
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(
        json.dumps(
            {
                "op": "OR",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a red car"},
                    {"op": "LEAF", "expert": "ASR", "query": "turn left here"},
                ],
            }
        ),
        encoding="utf-8",
    )
    return tmp_path, tree_path, bundle_path


def write_tree(tmp_path, obj, name="t.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
    return path


def test_validate_ok(workspace, capsys):
    _, tree_path, _ = workspace
    assert main(["validate", "--tree", str(tree_path)]) == 0
    out = capsys.readouterr().out
    assert "valid: depth 2, leaves 2, experts ASR,CLIP" in out


def test_validate_syntax_error_exit_2(tmp_path, capsys):
    path = write_tree(tmp_path, "{not json")
    assert main(["validate", "--tree", str(path)]) == 2
    assert "[syntax]" in capsys.readouterr().err
    # An integer past the interpreter's digit limit (Python >= 3.11) is a
    # syntax error; without a limit the unknown field is a schema error.
    huge = write_tree(tmp_path, '{"op": "LEAF", "expert": "CLIP", "query": "x", "n": '
                      + "9" * 5000 + "}", "huge.json")
    limited = hasattr(sys, "get_int_max_str_digits")
    assert main(["validate", "--tree", str(huge)]) == (2 if limited else 3)
    assert ("[syntax]" if limited else "[schema]") in capsys.readouterr().err
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{\x00}\x00")
    for command in (["validate"], ["select", "--bundle", "absent.json", "--frames", "4"]):
        assert main(command + ["--tree", str(undecodable)]) == 2
        assert "error [syntax] at $: " in capsys.readouterr().err


def test_validate_empty_file_exit_2(tmp_path):
    path = write_tree(tmp_path, "")
    assert main(["validate", "--tree", str(path)]) == 2


def test_validate_schema_error_exit_3(tmp_path, capsys):
    path = write_tree(tmp_path, {"op": "XOR", "children": []})
    assert main(["validate", "--tree", str(path)]) == 3
    assert "[schema]" in capsys.readouterr().err


def test_validate_arity_error_exit_4_with_path(tmp_path, capsys):
    leaf = {"op": "LEAF", "expert": "CLIP", "query": "x"}
    path = write_tree(
        tmp_path, {"op": "RIGHT_AFTER", "children": [leaf, leaf, leaf]}
    )
    assert main(["validate", "--tree", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error [arity] at $: ") and err.count("$") == 1


def test_validate_inactive_expert_exit_5(tmp_path, capsys):
    path = write_tree(
        tmp_path,
        {
            "op": "AND",
            "children": [
                {"op": "LEAF", "expert": "CLIP", "query": "x"},
                {"op": "LEAF", "expert": "ASR", "query": "y"},
            ],
        },
    )
    assert main(["validate", "--tree", str(path), "--experts", "clip,ovd"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error [inactive-expert] at $.children[1]: ")
    assert err.count("$.children[1]") == 1


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["validate", "--tree", str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_select_writes_consistent_artifacts(workspace, capsys):
    tmp_path, tree_path, bundle_path = workspace
    out_dir = tmp_path / "out"
    code = main(
        ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
         "--frames", "16", "--out", str(out_dir)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "selected 16 frames:" in stdout

    selection = json.loads((out_dir / "selection.json").read_text())
    curve = json.loads((out_dir / "curve.json").read_text())
    attribution = json.loads((out_dir / "attribution.json").read_text())
    stats = json.loads((out_dir / "stats.json").read_text())

    assert selection["video_id"] == "vid-1"
    assert selection["budget"] == 16
    assert selection["strategy"] == "pass"
    frames = selection["frames"]
    assert frames == sorted(set(frames)) and len(frames) == 16
    assert [p["frame"] for p in selection["phases"]] == frames
    assert {p["phase"] for p in selection["phases"]} <= {"peak", "neighbor", "fill"}
    assert all(0 <= f < 120 for f in frames)
    # Planted events are found: a selected frame inside each support.
    assert any(40 <= f < 44 for f in frames)
    assert any(80 <= f < 84 for f in frames)

    assert curve["T"] == 120 and len(curve["values"]) == 120
    assert all(0.0 <= v <= 1.0 for v in curve["values"])

    assert attribution["frames"] == frames
    assert [leaf["leaf_id"] for leaf in attribution["leaves"]] == [0, 1]
    assert len(attribution["matrix"]) == 2
    assert all(len(row) == 16 for row in attribution["matrix"])

    assert stats["providers"]["CLIP"] == 1
    assert stats["providers"]["ASR"] == 1
    assert stats["providers"]["OVD"] == 0
    assert stats["cache"]["bundle_ingested"] == 1


def test_select_is_deterministic_byte_for_byte(workspace):
    tmp_path, tree_path, bundle_path = workspace
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main(
            ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
             "--frames", "8", "--out", str(out_dir), "--no-cache"]
        ) == 0
        outputs.append({
            f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
        })
    assert outputs[0] == outputs[1]


def test_select_disk_cache_witness(workspace):
    tmp_path, tree_path, bundle_path = workspace
    # A run that fails (no CLIP row for this query) caches nothing.
    missing_row = write_tree(
        tmp_path, {"op": "LEAF", "expert": "CLIP", "query": "a blue boat"}
    )
    assert main(["select", "--tree", str(missing_row), "--bundle", str(bundle_path),
                 "--frames", "8", "--out", str(tmp_path / "failed")]) == 1
    assert list((tmp_path / "cache").rglob("*")) == []
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
            "--frames", "8"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = json.loads((tmp_path / "a" / "stats.json").read_text())["cache"]
    second = json.loads((tmp_path / "b" / "stats.json").read_text())["cache"]
    assert first == {"bundle_ingested": 1, "disk_hit": False, "disabled": False}
    assert second == {"bundle_ingested": 0, "disk_hit": True, "disabled": False}


def test_select_rejects_a_detection_source_for_another_video(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "cache"))
    instance = generate(EventScript(
        script_id="vid-2",
        num_frames=60,
        events=(Event(ExpertKind.OVD, "ball", (20, 24), amplitude=0.8),),
        seed=4,
    ))
    bundle_path = tmp_path / "vid-2.bundle.json"
    bundle_path.write_text(dumps(bundle_to_obj(instance.bundle)), encoding="utf-8")
    tree_path = write_tree(tmp_path, {"op": "LEAF", "expert": "OVD", "query": "ball"})
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path), "--frames", "4"]
    own = tmp_path / "vid-2.ovd.json"
    own.write_text(json.dumps(ovd_document(instance.ovd_source)), encoding="utf-8")
    assert main([*args, "--ovd", str(own), "--out", str(tmp_path / "own"), "--no-cache"]) == 0
    capsys.readouterr()

    foreign = tmp_path / "other.ovd.json"
    foreign.write_text(
        json.dumps(ovd_document(replace(instance.ovd_source, video_id="some-other-video"))),
        encoding="utf-8",
    )
    assert main([*args, "--ovd", str(foreign), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "'some-other-video'" in err and "'vid-2'" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()

    # Read from its cache entry, without the file being parsed, the foreign
    # source is rejected all the same.
    planted = write_through(load_ovd_source(foreign), file_key(foreign))
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: (
        pytest.fail("the detection file was read whole") if path == foreign
        else read_bytes(path)))
    assert main([*args, "--ovd", str(foreign), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "'some-other-video'" in err and "'vid-2'" in err
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "cache").iterdir()) == [planted]


def test_select_cache_entry_stays_under_root(workspace, monkeypatch):
    tmp_path, tree_path, bundle_path = workspace
    cache_dir = tmp_path / "a" / "b" / "cache"
    monkeypatch.setenv("HIMU_CACHE_DIR", str(cache_dir))
    obj = json.loads(bundle_path.read_text(encoding="utf-8"))
    for i, video_id in enumerate(("../../escaped", str(tmp_path / "absolute"))):
        bundle = tmp_path / f"hostile-{i}.bundle.json"
        bundle.write_text(json.dumps({**obj, "video_id": video_id}), encoding="utf-8")
        out_dir = tmp_path / f"out-{i}"
        before = set(tmp_path.rglob("*"))
        assert main(["select", "--tree", str(tree_path), "--bundle", str(bundle),
                     "--frames", "8", "--out", str(out_dir)]) == 0
        created = {p for p in set(tmp_path.rglob("*")) - before if p.is_file()}
        created -= set(out_dir.iterdir())
        assert [p.parent for p in created] == [cache_dir]


@pytest.fixture()
def rich_workspace(tmp_path, monkeypatch, rich_bundle):
    """A canonical bundle with every section, and a tree that reads each one."""
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "cache"))
    bundle_path = tmp_path / "rich.bundle.json"
    bundle_path.write_text(dumps(bundle_to_obj(rich_bundle)), encoding="utf-8")
    tree_path = write_tree(tmp_path, {"op": "OR", "children": [
        {"expert": "CLIP", "query": "a dog"},
        {"expert": "CLAP", "query": "barking"},
        {"expert": "ASR", "query": "good boy"},
        {"expert": "OCR", "query": "park"},
    ]})
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
            "--frames", "6"]
    return tmp_path, args, bundle_path


def _select(args, out_dir, *extra):
    """Run ``himu select`` into ``out_dir``; its artifact bytes and cache stats."""
    assert main([*args, "--out", str(out_dir), *extra]) == 0
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}, stats["cache"]


def test_warm_run_from_entry_writes_cold_artifacts(rich_workspace):
    tmp_path, args, bundle_path = rich_workspace
    cold, cold_stats = _select(args, tmp_path / "cold")
    warm, warm_stats = _select(args, tmp_path / "warm")
    uncached, uncached_stats = _select(args, tmp_path / "uncached", "--no-cache")
    assert cold == warm == uncached
    assert cold_stats == {"bundle_ingested": 1, "disk_hit": False, "disabled": False}
    assert warm_stats == {"bundle_ingested": 0, "disk_hit": True, "disabled": False}
    assert uncached_stats == {"bundle_ingested": 0, "disk_hit": False, "disabled": True}
    entry = entry_path(bundle_digest(load_bundle(bundle_path)))
    assert list((tmp_path / "cache").iterdir()) == [entry]

    # The same bundle in another layout has other bytes, so another entry.
    compact = tmp_path / "compact.bundle.json"
    compact.write_text(json.dumps(json.loads(bundle_path.read_text(encoding="utf-8"))),
                       encoding="utf-8")
    compact_args = [str(compact) if a == str(bundle_path) else a for a in args]
    first, first_stats = _select(compact_args, tmp_path / "compact-cold")
    again, again_stats = _select(compact_args, tmp_path / "compact-warm")
    assert first == again == cold
    assert (first_stats["disk_hit"], again_stats["disk_hit"]) == (False, True)
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_warm_run_hashes_the_bundle_without_reading_it_whole(rich_workspace, monkeypatch):
    tmp_path, args, bundle_path = rich_workspace
    cold, _ = _select(args, tmp_path / "cold")
    read_bytes = Path.read_bytes

    def refuse_the_bundle(path):
        assert path != bundle_path, "a warm run read the bundle file whole"
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse_the_bundle)
    warm, warm_stats = _select(args, tmp_path / "warm")
    assert warm == cold
    assert warm_stats["disk_hit"] is True


def test_a_bundle_replaced_after_hashing_is_cached_under_its_own_bytes(
        rich_workspace, monkeypatch):
    """The lookup hashes the file, then a miss reads it again: if the file
    changed in between, the entry goes under the key of what was parsed."""
    tmp_path, args, bundle_path = rich_workspace
    monkeypatch.setattr("himu.cli.file_key", lambda path: "0" * 64)  # the former file's key
    cold, cold_stats = _select(args, tmp_path / "cold")
    assert cold_stats["bundle_ingested"] == 1
    entry = entry_path(file_key(bundle_path))
    assert list((tmp_path / "cache").iterdir()) == [entry]
    assert dumps(bundle_to_obj(read_entry(file_key(bundle_path), "bundle"))) == \
        bundle_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("when", ["after the lookup", "after the split parse"])
def test_an_unsplit_bundle_is_cached_under_the_bytes_parsed_whole(
        rich_workspace, monkeypatch, when):
    """A bundle whose meta holds the row mark cannot be parsed with its rows
    cut out, so it is read again and parsed whole. The file is replaced
    after the lookup hashed it, or after the split parse read it: either
    way the entry goes under the SHA-256 of the bytes parsed whole, and
    holds what they hold."""
    tmp_path, args, bundle_path = rich_workspace
    mark = int(f"{himu.jsonio._ROW_MARK}0")
    marked = replace(load_bundle(bundle_path), meta={"n": mark})
    bundle_path.write_text(dumps(bundle_to_obj(marked)), encoding="utf-8")
    replacement = replace(load_bundle(bundle_path), meta={"n": mark + 1})
    replaced, wholes = [], []

    def replace_the_bundle():
        if not replaced:
            bundle_path.write_text(dumps(bundle_to_obj(replacement)), encoding="utf-8")
            replaced.append(True)

    if when == "after the lookup":
        def hash_then_replace(path):
            key = file_key(path)
            if Path(path) == bundle_path:
                replace_the_bundle()
            return key
        monkeypatch.setattr("himu.cli.file_key", hash_then_replace)
    else:
        parse_split = himu.jsonio._parse_split

        def read_then_replace(pieces):
            try:
                return parse_split(pieces)
            finally:
                replace_the_bundle()
        monkeypatch.setattr(himu.jsonio, "_parse_split", read_then_replace)
    joined = himu.jsonio._joined
    monkeypatch.setattr(himu.jsonio, "_joined", lambda pieces: wholes.append(1) or joined(pieces))

    cold, cold_stats = _select(args, tmp_path / "cold")
    assert replaced and wholes
    assert cold_stats["bundle_ingested"] == 1
    key = file_key(bundle_path)
    assert list((tmp_path / "cache").iterdir()) == [entry_path(key)]
    assert dumps(bundle_to_obj(read_entry(key, "bundle"))) == dumps(bundle_to_obj(replacement))
    assert cold == _select(args, tmp_path / "uncached", "--no-cache")[0]


def test_a_bundle_that_fails_to_parse_leaves_no_entry(rich_workspace, capsys):
    """A file cut off inside a row fails the split parse and the whole one:
    the run exits 1 and caches nothing."""
    tmp_path, args, bundle_path = rich_workspace
    text = bundle_path.read_text(encoding="utf-8")
    bundle_path.write_text(text[:text.index('"values"') + 40], encoding="utf-8")
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert "bundle is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)
    return 0.0


class _PickleSentinel:
    """Pickles to a call of ``_record_unpickle``, so loading it shows."""

    def __reduce__(self):
        return (_record_unpickle, ())


def _split_entry(data: bytes):
    line, rows = data.split(b"\n", 1)
    return json.loads(line), np.frombuffer(rows, dtype="<f8")


def _entry(header: dict, rows: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + rows


def _with_header(mutate):
    def rewrite(data):
        header, rows = _split_entry(data)
        mutate(header)
        return _entry(header, rows.tobytes())
    return rewrite


def _with_rows(make):
    def rewrite(data):
        header, rows = _split_entry(data)
        return _entry(header, make(rows))
    return rewrite


def _npy_block(rows) -> bytes:
    """The rows as entry versions 1 to 3 stored them: one ``.npy`` block."""
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=False)
    return buf.getvalue()


def _nan_row(rows):
    rows = rows.copy()
    rows[3] = np.nan
    return rows.tobytes()


def _declared_far_larger(header):
    """Every row claims 10**12 frames; the file holds 40 a row."""
    header["T"] = 10**12
    for name in ("clip_table", "clap_table"):
        for row in header[name]:
            row["values"] = 10**12


def _queries_and_lengths(header):
    """Each table as version 2 wrote it: its queries and its row lengths."""
    for name in ("clip_table", "clap_table"):
        header[name] = {"queries": [row["query"] for row in header[name]],
                        "lengths": [row["values"] for row in header[name]]}


def _version_2_layout(data):
    header, rows = _split_entry(data)
    header["entry_version"] = 2
    _queries_and_lengths(header)
    return _entry(header, _npy_block(rows))


def _version_3_layout(data):
    """The entry as version 3 wrote it: the same header, and the rows as one
    ``.npy`` block."""
    header, rows = _split_entry(data)
    header["entry_version"] = 3
    return _entry(header, _npy_block(rows))


def _former_layout(data):
    """The entry as version 1 wrote it: each table as its list of queries,
    and the rows as one (rows, T) ``.npy`` block."""
    header, rows = _split_entry(data)
    header["entry_version"] = 1
    del header["kind"]
    for name in ("clip_table", "clap_table"):
        header[name] = [row["query"] for row in header[name]]
    return _entry(header, _npy_block(rows.reshape(-1, header["T"])))


# The row block's cases, the same for both kinds.
_HOSTILE_ROWS = {
    "truncated rows": lambda data: data[:-5],
    "rows one value short": _with_rows(lambda rows: rows[:-1].tobytes()),
    "rows one value too many": _with_rows(lambda rows: np.append(rows, 0.5).tobytes()),
    "rows float32": _with_rows(lambda rows: rows.astype("<f4").tobytes()),
    "a pickle in place of the rows": _with_rows(lambda rows: pickle.dumps(
        np.full(rows.shape, _PickleSentinel(), dtype=object))),
    "NaN in a row": _with_rows(_nan_row),
}


def _ocr_frame_past_end(header):
    header["ocr"][-1]["frame"] = header["T"]


_HOSTILE_ENTRIES = {
    **_HOSTILE_ROWS,
    "truncated header": lambda data: data[:100],
    "empty file": lambda data: b"",
    "header not JSON": lambda data: b"{not json" + data[data.index(b"\n"):],
    "header not an object": lambda data: b"[1, 2]" + data[data.index(b"\n"):],
    "header not UTF-8": lambda data: b"\xff" + data,
    "entry version 1": _former_layout,
    "entry version 2": _version_2_layout,
    "entry version 3": _version_3_layout,
    "entry version 5": _with_header(lambda h: h.update(entry_version=5)),
    "entry version true": _with_header(lambda h: h.update(entry_version=True)),
    "kind ovd": _with_header(lambda h: h.update(kind="ovd")),
    "kind missing": _with_header(lambda h: h.pop("kind")),
    "row list not a list": _with_header(_queries_and_lengths),
    "a row not an object": _with_header(
        lambda h: h.update(clip_table=["a dog", *h["clip_table"][1:]])),
    "row list of queries": _with_header(lambda h: h.update(clip_table=["a dog", "a cat"])),
    "lengths far larger than file": _with_header(_declared_far_larger),
    "header T not row length": _with_header(lambda h: h.update(T=h["T"] + 1)),
    "OCR frame past T": _with_header(_ocr_frame_past_end),
}


@pytest.mark.parametrize("case", list(_HOSTILE_ENTRIES))
def test_invalid_cache_entry_is_a_miss_and_rewritten(rich_workspace, capsys, case):
    tmp_path, args, _ = rich_workspace
    expected, _ = _select(args, tmp_path / "cold")
    (entry,) = (tmp_path / "cache").iterdir()
    valid = entry.read_bytes()
    entry.write_bytes(_HOSTILE_ENTRIES[case](valid))
    capsys.readouterr()

    artifacts, stats = _select(args, tmp_path / "hostile")
    assert capsys.readouterr().err == ""
    assert stats == {"bundle_ingested": 1, "disk_hit": False, "disabled": False}
    assert artifacts == expected
    assert entry.read_bytes() == valid
    assert _select(args, tmp_path / "again")[1]["disk_hit"] is True
    assert _UNPICKLED == []


@pytest.fixture()
def ovd_workspace(tmp_path, monkeypatch):
    """A bundle, its two-row detection source and a tree that reads both."""
    monkeypatch.setenv("HIMU_CACHE_DIR", str(tmp_path / "cache"))
    instance = generate(EventScript(
        script_id="vid-3",
        num_frames=90,
        events=(
            Event(ExpertKind.CLIP, "a red car", (20, 24), amplitude=0.9),
            Event(ExpertKind.OVD, "ball", (50, 54), amplitude=0.8),
            Event(ExpertKind.OVD, "a dog", (70, 73), amplitude=0.7),
        ),
        noise_level=0.02,
        seed=6,
    ))
    bundle_path = tmp_path / "vid-3.bundle.json"
    bundle_path.write_text(dumps(bundle_to_obj(instance.bundle)), encoding="utf-8")
    ovd_path = tmp_path / "vid-3.ovd.json"
    save_ovd_source(instance.ovd_source, ovd_path)
    tree_path = write_tree(tmp_path, {"op": "OR", "children": [
        {"expert": "CLIP", "query": "a red car"},
        {"expert": "OVD", "query": "ball"},
        {"expert": "OVD", "query": "a dog"},
    ]})
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
            "--ovd", str(ovd_path), "--frames", "6"]
    return tmp_path, args, bundle_path, ovd_path


def test_detection_source_is_cached_under_its_own_bytes(ovd_workspace, monkeypatch):
    tmp_path, args, bundle_path, ovd_path = ovd_workspace
    cold, cold_stats = _select(args, tmp_path / "cold")
    entries = {entry_path(file_key(bundle_path)),
               entry_path(file_key(ovd_path))}
    assert set((tmp_path / "cache").iterdir()) == entries
    written = {path: path.read_bytes() for path in entries}

    # A warm run reads neither file whole, so it parses neither.
    read_bytes = Path.read_bytes

    def refuse_the_inputs(path):
        assert path not in (bundle_path, ovd_path), f"a warm run read {path.name} whole"
        return read_bytes(path)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "read_bytes", refuse_the_inputs)
        warm, warm_stats = _select(args, tmp_path / "warm")
    uncached, uncached_stats = _select(args, tmp_path / "uncached", "--no-cache")
    assert cold == warm == uncached
    assert cold_stats == {"bundle_ingested": 1, "disk_hit": False, "disabled": False}
    assert warm_stats == {"bundle_ingested": 0, "disk_hit": True, "disabled": False}
    assert uncached_stats == {"bundle_ingested": 0, "disk_hit": False, "disabled": True}
    assert {path: path.read_bytes() for path in entries} == written
    assert set((tmp_path / "cache").iterdir()) == entries
    assert dumps(ovd_to_obj(read_entry(file_key(ovd_path), "ovd"))) == \
        dumps(ovd_to_obj(load_ovd_source(ovd_path)))


def test_a_detection_file_replaced_after_hashing_is_cached_under_its_own_bytes(
        ovd_workspace, monkeypatch):
    """The file changes between the lookup's hash and the read of a miss:
    the entry goes under the key of the bytes that were parsed."""
    tmp_path, args, bundle_path, ovd_path = ovd_workspace
    former = load_ovd_source(ovd_path)
    replacement = OvdSource(former.video_id, tuple(
        (query, values[::-1].copy()) for query, values in former.entries
    ))

    replaced = []

    def hash_then_replace(path):
        """The key of the file as it is; the detection file is then replaced."""
        key = file_key(path)
        if Path(path) == ovd_path and not replaced:
            save_ovd_source(replacement, ovd_path)
            replaced.append(path)
        return key

    monkeypatch.setattr("himu.cli.file_key", hash_then_replace)
    cold, _ = _select(args, tmp_path / "cold")
    key = file_key(ovd_path)
    assert set((tmp_path / "cache").iterdir()) == {
        entry_path(file_key(bundle_path)), entry_path(key)
    }
    assert dumps(ovd_to_obj(read_entry(key, "ovd"))) == dumps(ovd_to_obj(replacement))
    assert cold == _select(args, tmp_path / "uncached", "--no-cache")[0]


def _detection_lengths(change):
    def mutate(header):
        rows = header["entries"]
        for row, length in zip(rows, change([row["values"] for row in rows]), strict=True):
            row["values"] = length
    return _with_header(mutate)


def _first_row_inline(data):
    """The first detection row's values in the header as a list, and only
    the rows after it in the block."""
    header, rows = _split_entry(data)
    first = header["entries"][0]
    length = first["values"]
    first["values"] = rows[:length].tolist()
    return _entry(header, rows[length:].tobytes())


_OTHER_KIND = "bundle entry under the detection key"
# Each maker gets the valid entry's bytes; the detection source has two
# rows of 90 values.
_HOSTILE_DETECTION_ENTRIES = {
    **_HOSTILE_ROWS,
    _OTHER_KIND: None,  # the bundle's own valid entry, copied
    "entry version 3": _version_3_layout,
    "kind bundle": _with_header(lambda h: h.update(kind="bundle")),
    "zero length": _detection_lengths(lambda lengths: [0, sum(lengths)]),
    "bool length": _detection_lengths(lambda lengths: [True, sum(lengths) - 1]),
    "float length": _detection_lengths(lambda lengths: [float(lengths[0]), lengths[1]]),
    "negative length": _detection_lengths(lambda lengths: [-2, sum(lengths) + 2]),
    "lengths far larger than file": _detection_lengths(lambda lengths: [10**12] * len(lengths)),
    "a row without values": _with_header(lambda h: h["entries"][1].pop("values")),
    "a row whose values is a list": _first_row_inline,
}


@pytest.mark.parametrize("case", list(_HOSTILE_DETECTION_ENTRIES))
def test_invalid_detection_entry_is_a_miss_and_rewritten(ovd_workspace, capsys, case):
    tmp_path, args, bundle_path, ovd_path = ovd_workspace
    expected, _ = _select(args, tmp_path / "cold")
    entry = entry_path(file_key(ovd_path))
    valid = entry.read_bytes()
    make = _HOSTILE_DETECTION_ENTRIES[case]
    hostile = entry_path(file_key(bundle_path)).read_bytes() if make is None else make(valid)
    entry.write_bytes(hostile)
    capsys.readouterr()

    artifacts, stats = _select(args, tmp_path / "hostile")
    assert capsys.readouterr().err == ""
    assert stats["disk_hit"] is True  # the bundle's entry is untouched
    assert artifacts == expected
    assert entry.read_bytes() == valid
    assert _UNPICKLED == []


def _disk_full_on(failing: str, nth: int):
    """``open`` that fails halfway through the first write to the ``nth``
    file opened whose name holds ``failing``."""
    opened = []

    def disk_full_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if failing in Path(file).name:
            opened.append(file)
            if len(opened) == nth:
                write = fh.write

                def half_then_fail(data):
                    write(data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = half_then_fail
        return fh

    return disk_full_open


def test_failed_artifact_write_leaves_no_file(workspace, monkeypatch):
    tmp_path, tree_path, bundle_path = workspace
    cache_dir = tmp_path / "cache"
    ovd_path = tmp_path / "vid-1.ovd.json"
    save_ovd_source(OvdSource("vid-1", (("ball", np.linspace(0.0, 1.0, 120)),)), ovd_path)
    # The bundle's entry is the first .entry write and the detection
    # source's the second: when that fails, the first is removed too.
    for failing, nth, extra in (("curve.json", 1, []), (".entry", 1, []),
                                (".entry", 2, ["--ovd", str(ovd_path)])):
        monkeypatch.setattr(himu.jsonio, "open", _disk_full_on(failing, nth), raising=False)
        out_dir = tmp_path / f"out{failing}{nth}"
        assert main(["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
                     "--frames", "8", "--out", str(out_dir), *extra]) == 1
        assert list(out_dir.iterdir()) == []
        assert list(cache_dir.glob("*")) == []


def test_select_strategy_flag(workspace):
    tmp_path, tree_path, bundle_path = workspace
    out_dir = tmp_path / "topk"
    assert main(
        ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
         "--frames", "4", "--out", str(out_dir), "--strategy", "topk",
         "--no-cache"]
    ) == 0
    selection = json.loads((out_dir / "selection.json").read_text())
    assert selection["strategy"] == "topk"
    assert all(p["phase"] == "fill" for p in selection["phases"])


@pytest.mark.parametrize("frames", ["0", "-3"])
def test_select_rejects_a_budget_below_1_before_inputs_are_read(workspace, capsys, frames):
    tmp_path, tree_path, _ = workspace
    # The bundle does not exist, so reading it would fail with another error.
    args = ["select", "--tree", str(tree_path), "--bundle", str(tmp_path / "absent.json"),
            "--frames", frames, "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: budget must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_select_sigma_flag_changes_curve(workspace):
    tmp_path, tree_path, bundle_path = workspace
    curves = {}
    # At the largest finite bandwidths 4 * sigma rounds to inf, so the
    # kernel radius is capped at T - 1 before its ceiling.
    huge = [(f"huge-{value}", ["--sigma-clip", value]) for value in ("4.5e307", "1e308")]
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
            "--frames", "8", "--no-cache"]
    for name, extra in [("default", []), ("wide", ["--sigma-clip", "4.0"]), *huge]:
        out_dir = tmp_path / name
        assert main([*args, "--out", str(out_dir), *extra]) == 0
        curves[name] = json.loads((out_dir / "curve.json").read_text())["values"]
    assert curves["default"] != curves["wide"]
    # There is one smoothing kernel: the former mode flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "mode"), "--smoothing-mode", "strict"])
    assert exc.value.code == 2
    assert not (tmp_path / "mode").exists()


def test_select_with_a_gamma_that_overflows_the_scale(workspace, capsys):
    tmp_path, tree_path, bundle_path = workspace
    out_dir = tmp_path / "out"
    assert main(["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
                 "--frames", "8", "--out", str(out_dir), "--gamma", "1e308"]) == 0
    assert capsys.readouterr().err == ""
    values = json.loads((out_dir / "curve.json").read_text())["values"]
    assert len(values) == 120 and all(0.0 <= v <= 1.0 for v in values)


def test_select_rejects_non_finite_knobs(workspace, capsys):
    tmp_path, tree_path, bundle_path = workspace
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
            "--frames", "8", "--out", str(tmp_path / "out")]
    for value in ("inf", "nan"):
        assert main(args + ["--sigma-clip", value]) == 3
        assert "error [schema] at $: bandwidth for " in capsys.readouterr().err
    config_path = tmp_path / "engine.json"
    config_path.write_text('{"kappa": Infinity}')
    assert main(args + ["--config", str(config_path)]) == 3
    assert "error [schema]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "setting",
    [
        '{"max_peaks": 2.7}',
        '{"gamma": true}',
        '{"window": "5"}',
        '{"max_depth": Infinity}',
        '{"max_peaks": 0}',
        '{"smoothing_mode": "renormalized"}',
        ["--peaks", "0"],
        ["--window", "0"],
        ["--sigma-clip", "inf"],
        ["--peaks", "2.7"],
        ["--window", "abc"],
        ["--gamma", "x"],
    ],
    ids=lambda setting: setting if isinstance(setting, str) else " ".join(setting),
)
def test_bad_setting_exits_3_before_inputs_are_read(workspace, capsys, setting):
    tmp_path, tree_path, _ = workspace
    if isinstance(setting, str):
        config_path = tmp_path / "engine.json"
        config_path.write_text(setting)
        setting = ["--config", str(config_path)]
    # The bundle does not exist, so reading it would exit 1.
    args = ["select", "--tree", str(tree_path), "--bundle", str(tmp_path / "absent.json"),
            "--frames", "8", "--out", str(tmp_path / "out"), *setting]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error [schema] at $: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _run_with_input_file(workspace, flag, path):
    """Run the command that reads ``flag`` with ``path`` as that input, in a
    child process, so that stderr shows whatever escapes main()."""
    tmp_path, tree_path, bundle_path = workspace
    if flag == "--scripts":
        args = ["bench", "--scripts", str(path), "--out", str(tmp_path / "r.json")]
    else:
        inputs = {"--bundle": str(bundle_path), "--ovd": None, "--config": None}
        inputs[flag] = str(path)
        args = ["select", "--tree", str(tree_path), "--frames", "8",
                "--out", str(tmp_path / "out")]
        for name, value in inputs.items():
            if value is not None:
                args += [name, value]
    src = str(Path(himu.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "himu.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


_INPUT_FLAGS = [("--config", 3), ("--bundle", 1), ("--ovd", 1), ("--scripts", 1)]


@pytest.mark.parametrize(("flag", "code"), _INPUT_FLAGS)
def test_deeply_nested_json_is_a_typed_error(workspace, flag, code):
    deep = workspace[0] / "deep.json"
    deep.write_text("[" * 200_000)
    proc = _run_with_input_file(workspace, flag, deep)
    assert proc.returncode == code
    assert "nesting exceeds parser limits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(("flag", "code"), _INPUT_FLAGS)
def test_input_file_not_utf8_is_a_typed_error(workspace, flag, code):
    undecodable = workspace[0] / "utf16.json"
    undecodable.write_text("{}", encoding="utf-16")
    proc = _run_with_input_file(workspace, flag, undecodable)
    assert proc.returncode == code
    assert "is not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (workspace[0] / "out").exists()


def test_config_file_and_flag_precedence(workspace):
    tmp_path, tree_path, _ = workspace
    config_path = tmp_path / "engine.json"
    config_path.write_text(json.dumps({"active_experts": ["CLIP"]}))
    # The file restricts the expert set, so the speech leaf is rejected...
    assert main(
        ["validate", "--tree", str(tree_path), "--config", str(config_path)]
    ) == 5
    # ...unless a flag re-enables it; flags take precedence over the file.
    # The flag is a comma list like the bench lists: fields are stripped and
    # blank ones dropped.
    for experts in ("clip,asr", "CLIP, ASR", " clip,,asr "):
        assert main(
            ["validate", "--tree", str(tree_path), "--config", str(config_path),
             "--experts", experts]
        ) == 0


def test_every_engine_flag_is_read_as_a_config_key():
    # _config_from_args reads the scalar flags by config key, so a flag
    # whose dest is not one would be accepted and then silently ignored.
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    read = set(SCALAR_KEYS) | set(_SIGMA_FLAGS) | {"experts", "config"}
    for name in ("validate", "select", "bench"):
        (group,) = [
            group for group in commands.choices[name]._action_groups
            if group.title == "engine configuration"
        ]
        dests = {action.dest for action in group._group_actions}
        assert dests and dests <= read, (name, sorted(dests - read))


def test_gen_and_bench_commands(tmp_path, capsys):
    scripts = [
        EventScript(
            script_id="g1",
            num_frames=80,
            events=(
                Event(ExpertKind.CLIP, "a dog", (30, 34), amplitude=0.9),
                Event(ExpertKind.OVD, "ball", (50, 54), amplitude=0.8),
            ),
            noise_level=0.05,
            seed=5,
        )
    ]
    suite = tmp_path / "suite.json"
    save_scripts(scripts, suite)

    gen_dir = tmp_path / "gen"
    assert main(["gen", "--scripts", str(suite), "--out", str(gen_dir)]) == 0
    instance = generate(scripts[0])
    assert (gen_dir / "g1.bundle.json").read_text() == dumps(bundle_to_obj(instance.bundle))
    expected_ovd = dumps_stdlib(ovd_document(instance.ovd_source))
    assert (gen_dir / "g1.ovd.json").read_text() == expected_ovd
    assert json.loads((gen_dir / "g1.tree.json").read_text())["op"] == "OR"
    assert main(["gen", "--scripts", str(suite), "--out", str(gen_dir), "--seed", "9"]) == 0
    reseeded = generate(replace(scripts[0], seed=9)).bundle
    assert (gen_dir / "g1.bundle.json").read_text() == dumps(bundle_to_obj(reseeded))
    assert dumps(bundle_to_obj(reseeded)) != dumps(bundle_to_obj(instance.bundle))

    report_path = tmp_path / "report.json"
    assert main(
        ["bench", "--scripts", str(suite), "--out", str(report_path),
         "--budgets", "4,8", "--selectors", "uniform,pass"]
    ) == 0
    out = capsys.readouterr().out
    assert "recall=" in out
    report = json.loads(report_path.read_text())
    assert {e["selector"] for e in report["entries"]} == {"uniform", "pass"}
    assert main(
        ["bench", "--scripts", str(suite), "--out", str(report_path),
         "--selectors", "sorcery"]
    ) == 1


def test_failed_gen_leaves_no_file(tmp_path, capsys):
    """Script b's detection source cannot be written over a directory: the
    run fails and removes what it wrote for a and for b."""
    scripts = [
        EventScript(
            script_id=script_id,
            num_frames=60,
            events=(Event(ExpertKind.OVD, "ball", (20, 24), amplitude=0.8),),
            noise_level=0.05,
            seed=5,
        )
        for script_id in ("a", "b")
    ]
    suite = tmp_path / "suite.json"
    save_scripts(scripts, suite)
    out_dir = tmp_path / "gen"
    (out_dir / "b.ovd.json").mkdir(parents=True)
    capsys.readouterr()

    assert main(["gen", "--scripts", str(suite), "--out", str(out_dir)]) == 1
    assert [path.name for path in out_dir.iterdir()] == ["b.ovd.json"]
    assert (out_dir / "b.ovd.json").is_dir()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_console_entry_point(workspace):
    _, tree_path, _ = workspace
    # The child must import the same himu, installed or not.
    src = str(Path(himu.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "himu.cli", "validate", "--tree", str(tree_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0
    assert "valid:" in proc.stdout
