import argparse
import errno
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import himu
import himu.jsonio
from himu.bench import Event, EventScript, generate, save_scripts
from himu.cache import entry_key, entry_path, read_entry
from himu.cli import _SIGMA_FLAGS, build_parser, main
from himu.config import SCALAR_KEYS
from himu.experts import bundle_digest, dumps_bundle, dumps_ovd, load_bundle
from himu.tree import ExpertKind

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
    bundle_path.write_text(dumps_bundle(instance.bundle), encoding="utf-8")
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
    bundle_path.write_text(dumps_bundle(instance.bundle), encoding="utf-8")
    tree_path = write_tree(tmp_path, {"op": "LEAF", "expert": "OVD", "query": "ball"})
    args = ["select", "--tree", str(tree_path), "--bundle", str(bundle_path), "--frames", "4"]
    own = tmp_path / "vid-2.ovd.json"
    own.write_text(dumps_ovd(instance.ovd_source), encoding="utf-8")
    assert main([*args, "--ovd", str(own), "--out", str(tmp_path / "own"), "--no-cache"]) == 0
    capsys.readouterr()

    foreign = tmp_path / "other.ovd.json"
    foreign.write_text(
        dumps_ovd(replace(instance.ovd_source, video_id="some-other-video")), encoding="utf-8"
    )
    assert main([*args, "--ovd", str(foreign), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "'some-other-video'" in err and "'vid-2'" in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


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
    bundle_path.write_text(dumps_bundle(rich_bundle), encoding="utf-8")
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
    entry = entry_path(entry_key(bundle_path.read_bytes()))
    assert list((tmp_path / "cache").iterdir()) == [entry]
    assert dumps_bundle(read_entry(entry_key(bundle_path.read_bytes()))) == \
        bundle_path.read_text(encoding="utf-8")


_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)
    return 0.0


class _PickleSentinel:
    """Pickles to a call of ``_record_unpickle``, so loading it shows."""

    def __reduce__(self):
        return (_record_unpickle, ())


def _split_entry(data: bytes):
    line, npy = data.split(b"\n", 1)
    return json.loads(line), np.load(io.BytesIO(npy), allow_pickle=False)


def _entry(header: dict, npy: bytes) -> bytes:
    return json.dumps(header).encode("ascii") + b"\n" + npy


def _npy(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _with_header(mutate):
    def rewrite(data):
        header, rows = _split_entry(data)
        mutate(header)
        return _entry(header, _npy(rows))
    return rewrite


def _with_rows(make):
    def rewrite(data):
        header, rows = _split_entry(data)
        return _entry(header, make(rows))
    return rewrite


def _nan_row(rows):
    rows = rows.copy()
    rows[0, 3] = np.nan
    return _npy(rows)


def _declared_far_larger(data):
    """Header and .npy both claim 10**12 frames; the file holds 40."""
    header, rows = _split_entry(data)
    header["T"] = 10**12
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (len(rows), 10**12)}
    )
    return _entry(header, buf.getvalue() + rows.tobytes())


def _ocr_frame_past_end(header):
    header["ocr"][-1]["frame"] = header["T"]


_HOSTILE_ENTRIES = {
    "truncated rows": lambda data: data[:-8],
    "truncated header": lambda data: data[:100],
    "empty file": lambda data: b"",
    "header not JSON": lambda data: b"{not json" + data[data.index(b"\n"):],
    "header not an object": lambda data: b"[1, 2]" + data[data.index(b"\n"):],
    "header not UTF-8": lambda data: b"\xff" + data,
    "entry version 2": _with_header(lambda h: h.update(entry_version=2)),
    "entry version true": _with_header(lambda h: h.update(entry_version=True)),
    "queries not a list": _with_header(lambda h: h.update(clip_table="a dog")),
    "rows float32": _with_rows(lambda rows: _npy(rows.astype("<f4"))),
    "rows pickled objects": _with_rows(lambda rows: _npy(
        np.full(rows.shape, _PickleSentinel(), dtype=object), allow_pickle=True
    )),
    "rows Fortran order": _with_rows(lambda rows: _npy(np.asfortranarray(rows))),
    "rows wrong shape": _with_rows(lambda rows: _npy(rows[:-1])),
    "shape far larger than file": _declared_far_larger,
    "NaN in a row": _with_rows(_nan_row),
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


def test_failed_artifact_write_leaves_no_file(workspace, monkeypatch):
    tmp_path, tree_path, bundle_path = workspace
    cache_dir = tmp_path / "cache"
    for failing in ("curve.json", ".entry"):

        def disk_full_on(file, mode="r", **kwargs):
            """``open`` that fails halfway through the first write to ``failing``."""
            fh = open(file, mode, **kwargs)
            if failing in Path(file).name:
                write = fh.write

                def half_then_fail(data):
                    write(data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = half_then_fail
            return fh

        monkeypatch.setattr(himu.jsonio, "open", disk_full_on, raising=False)
        out_dir = tmp_path / f"out{failing}"
        assert main(["select", "--tree", str(tree_path), "--bundle", str(bundle_path),
                     "--frames", "8", "--out", str(out_dir)]) == 1
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
    assert (gen_dir / "g1.bundle.json").read_text() == dumps_bundle(instance.bundle)
    assert (gen_dir / "g1.ovd.json").read_text() == dumps_ovd(instance.ovd_source)
    assert json.loads((gen_dir / "g1.tree.json").read_text())["op"] == "OR"
    assert main(["gen", "--scripts", str(suite), "--out", str(gen_dir), "--seed", "9"]) == 0
    reseeded = generate(replace(scripts[0], seed=9)).bundle
    assert (gen_dir / "g1.bundle.json").read_text() == dumps_bundle(reseeded)
    assert dumps_bundle(reseeded) != dumps_bundle(instance.bundle)

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
