"""Tests for the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import himu  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(workload) -> dict[str, bytes]:
    paths = (workload.bundle_path, workload.ovd_path, workload.tree_path)
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = workloads.generate_workload(name, 3, tmp_path / "a")
    again = workloads.generate_workload(name, 3, tmp_path / "b")
    other = workloads.generate_workload(name, 4, tmp_path / "c")
    assert _files(first) == _files(again)
    assert first.questions == again.questions
    assert _files(first)["bundle.json"] != _files(other)["bundle.json"]
    # Sizes, and so the matching cost, do not depend on the seed.
    assert first.counts == other.counts
    bundles = [himu.load_bundle(w.bundle_path) for w in (first, other)]
    for attr in ("transcript", "ocr"):
        texts = [getattr(b, attr) or () for b in bundles]
        lengths = [
            [len(getattr(item, "text", None) or " ".join(getattr(item, "detections", ())))
             for item in group]
            for group in texts
        ]
        assert lengths[0] == lengths[1]


def test_text_holds_exact_and_near_miss_phrases(tmp_path):
    workload = workloads.generate_workload("qa_session", 5, tmp_path)
    bundle = himu.load_bundle(workload.bundle_path)
    spec = workloads.SPECS["qa_session"]
    queries = {
        leaf["query"]
        for q in workload.questions
        for leaf in _leaves(json.loads(q.document))
        if leaf["expert"] == "ASR"
    }
    assert queries
    for query in queries:
        scores = [
            himu.experts.windowed_match_score(query, seg.text) for seg in bundle.transcript
        ]
        assert scores.count(1.0) == spec.plants_per_phrase
        assert sum(0.0 < s < 1.0 for s in scores) >= spec.plants_per_phrase


def _leaves(node):
    if "children" not in node:
        return [node]
    return [leaf for child in node["children"] for leaf in _leaves(child)]


def test_metric_and_workload_names():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.SPECS)
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


def _sessions(tmp_path, name="qa_session", seed=1):
    workload = workloads.generate_workload(name, seed, tmp_path)
    recorder = Recorder()
    traced = run.Session(himu, workload, recorder)
    plain = run.Session(himu, workload)
    traced.setup()
    plain.bundle, plain.ovd = traced.bundle, traced.ovd
    return workload, recorder, traced, plain


def test_traced_outputs_equal_untraced(tmp_path):
    workload, recorder, traced, plain = _sessions(tmp_path)
    for i in range(len(workload.questions)):
        expected = run.Outcome.of(plain.answer(i))
        assert run.diff(expected, run.Outcome.of(traced.answer(i))) == []
    names = {s.name for s in recorder.spans}
    assert {"pipeline", "scoring.asr", "compose.right_after", "select.uniform"} <= names
    assert {s.question for s in recorder.spans if s.name == "pipeline"} == set(
        range(len(workload.questions))
    )
    # Wrappers are gone once a traced answer returns.
    assert himu.pipeline.evaluate_leaves is himu.experts.scoring.evaluate_leaves


def test_span_self_times_are_non_negative(tmp_path):
    _, recorder, traced, _ = _sessions(tmp_path)
    traced.answer(0)
    selfs = recorder.self_times_ns()
    assert selfs and min(selfs) >= 0
    pipeline = next(i for i, s in enumerate(recorder.spans) if s.name == "pipeline")
    children = [s for s in recorder.spans if s.parent == pipeline]
    assert children
    assert selfs[pipeline] == recorder.spans[pipeline].duration_ns - sum(
        c.duration_ns for c in children
    )


def test_self_time_subtracts_direct_children_only():
    recorder = Recorder.from_obj({
        "spans": [["a", 0, 100, None, 0], ["b", 10, 30, 0, 0], ["c", 12, 20, 1, 0],
                  ["d", 40, 50, 0, 0]],
        "counts": [],
    })
    assert recorder.self_times_ns() == [70, 12, 8, 10]


def test_tracing_restores_attributes_on_error():
    recorder = Recorder()
    original = himu.compose.op_seq
    with pytest.raises(RuntimeError):
        with Tracing(recorder):
            assert himu.compose.op_seq is not original
            raise RuntimeError
    assert himu.compose.op_seq is original


def test_reference_matches_default_seed(tmp_path):
    workload = workloads.generate_workload("qa_session", run.DEFAULT_SEED, tmp_path)
    session = run.Session(himu, workload)
    session.setup()
    tally = run.Tally()
    assert run.first_answers(session, tally, run.DEFAULT_SEED) is not None
    assert tally.errors == []
    assert tally.attempted == len(workload.questions) * 2


def test_diff_flags_frames_and_tolerance():
    base = run.Outcome((1, 2), np.array([0.1, 0.2, 0.3]), np.array([[0.2, 0.3]]))
    assert run.diff(base, base) == []
    near = run.Outcome((1, 2), base.curve + 1e-13, base.attribution)
    assert run.diff(base, near) == []
    far = run.Outcome((1, 2), base.curve + 1e-9, base.attribution)
    assert run.diff(base, far)
    assert run.diff(base, run.Outcome((0, 2), base.curve, base.attribution))


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert value == 29.0 and sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == pytest.approx(75.0)
