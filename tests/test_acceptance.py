"""End-to-end acceptance checks.

One test per numbered criterion; the terminal summary prints a PASS/FAIL
line for each. Expected values marked as derived were produced by the
independent oracles in oracles.py or by a frozen pipeline trace, never by
the code under test at assertion time.
"""
import json
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from himu.bench import Event, EventScript, generate, run_benchmark
from himu.compose import op_and, op_or, op_right_after, op_seq
from himu.config import EngineConfig
from himu.errors import TreeError
from himu.experts import ProviderCounters, bundle_digest, load_bundle, save_bundle
from himu.pipeline import run_pipeline
from himu.select import PassParams, pass_select, topk_select
from himu.signals import SmoothingParams, normalize_joint, smooth
from himu.tree import ALL_EXPERTS, ExpertKind, LogicTree, parse_tree
from oracles import (
    pass_reference,
    right_after_direct,
    seq_brute_force,
    smooth_renorm_scalar,
)


def raw(values):
    return np.asarray(values, dtype=np.float64)


def leaf(expert, query):
    return {"op": "LEAF", "expert": expert, "query": query}


@pytest.mark.criterion(1, "fuzzy operator algebra")
def test_criterion_01_operator_algebra():
    rng = np.random.default_rng(101)
    a, b, c = rng.random((3, 10_000))
    ones = np.ones_like(a)
    zeros = np.zeros_like(a)

    start = time.perf_counter()
    for combined in (op_and([a, b]), op_or([a, b]), op_and([a, b, c]), op_or([a, b, c])):
        assert combined.min() >= 0.0 and combined.max() <= 1.0
    # Identity and annihilator elements.
    np.testing.assert_array_equal(op_and([a, ones]), a)
    np.testing.assert_array_equal(op_and([a, zeros]), zeros)
    np.testing.assert_allclose(op_or([a, zeros]), a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op_or([a, ones]), ones, rtol=0, atol=1e-12)
    # Commutativity and associativity.
    np.testing.assert_allclose(op_and([a, b]), op_and([b, a]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(op_or([a, b]), op_or([b, a]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        op_and([op_and([a, b]), c]), op_and([a, op_and([b, c])]), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        op_or([op_or([a, b]), c]), op_or([a, op_or([b, c])]), rtol=0, atol=1e-12
    )
    # The n-ary disjunction closed form.
    np.testing.assert_allclose(
        op_or([a, b, c]), 1.0 - (1.0 - a) * (1.0 - b) * (1.0 - c), rtol=0, atol=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"algebra suite took {elapsed:.3f}s"


@pytest.mark.criterion(2, "sequence operator oracle equivalence")
def test_criterion_02_seq_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(1000):
        L = int(rng.integers(2, 5))
        T = int(rng.integers(2, 101))
        steps = rng.random((L, T))
        np.testing.assert_allclose(
            op_seq(list(steps)), seq_brute_force(steps), rtol=0, atol=1e-12
        )
    elapsed = time.perf_counter() - start

    first = np.zeros(30)
    second = np.zeros(30)
    first[5] = 0.7
    second[20] = 0.9
    ordered = op_seq([first, second])
    assert ordered[5] > 0.0 and ordered[20] > 0.0
    assert np.all(op_seq([second, first]) == 0.0)
    assert elapsed < 10.0, f"sequence oracle sweep took {elapsed:.3f}s"


@pytest.mark.criterion(3, "adjacency decay law and linear-time accumulator")
def test_criterion_03_adjacency_decay():
    for kappa in (0.5, 2.0, 4.0):
        maxima = {}
        for gap in (2, 3):
            cause = np.zeros(20)
            effect = np.zeros(20)
            cause[4] = 1.0
            effect[4 + gap] = 1.0
            maxima[gap] = op_right_after(cause, effect, kappa).max()
        ratio = maxima[3] / maxima[2]
        assert abs(ratio - math.exp(-kappa)) < 1e-9

    rng = np.random.default_rng(303)
    for _ in range(1000):
        T = int(rng.integers(2, 65))
        kappa = float(rng.uniform(0.3, 4.0))
        cause = rng.random(T)
        effect = rng.random(T)
        engine = op_right_after(cause, effect, kappa)
        direct = np.minimum(right_after_direct(cause, effect, kappa), 1.0)
        np.testing.assert_allclose(engine, direct, rtol=0, atol=1e-12)


@pytest.mark.criterion(4, "robust normalization invariants")
def test_criterion_04_normalization():
    # A constant channel is uninformative and must land exactly on 0.5.
    for value in (0.0, 0.3, 1.0):
        (out,) = normalize_joint([raw(np.full(64, value))])
        assert np.all(out == 0.5)

    rng = np.random.default_rng(404)
    for _ in range(1000):
        T = int(rng.integers(3, 200))
        u = rng.random(T) * float(rng.uniform(0.1, 10.0))
        (out,) = normalize_joint([raw(u)])
        order = np.argsort(u, kind="stable")
        assert np.all(np.diff(out[order]) >= 0.0)

    # Jointly normalized constant pairs keep their relative order instead of
    # both collapsing to the same score.
    for low, high in ((0.2, 0.8), (0.45, 0.55), (0.0, 1.0)):
        low_n, high_n = normalize_joint([raw(np.full(32, low)), raw(np.full(32, high))])
        assert np.all(low_n < high_n)
        (alone_low,) = normalize_joint([raw(np.full(32, low))])
        (alone_high,) = normalize_joint([raw(np.full(32, high))])
        assert np.all(alone_low == 0.5) and np.all(alone_high == 0.5)


@pytest.mark.criterion(5, "bandwidth-matched smoothing oracle equivalence")
def test_criterion_05_smoothing():
    rng = np.random.default_rng(505)
    normalized = rng.random(50)

    # Width 0 is the identity.
    zero_width = SmoothingParams(sigma_by_expert={k: 0.0 for k in ExpertKind})
    out = smooth(normalized, ExpertKind.CLIP, zero_width)
    np.testing.assert_array_equal(out, normalized)

    # Constants survive the boundary renormalization.
    for expert in ALL_EXPERTS:
        out = smooth(np.full(40, 0.7), expert)
        np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-12)

    # Impulse responses match the scalar truncated-Gaussian oracle, both in
    # the interior and against the edges where renormalization kicks in.
    by_width = {0.5: ExpertKind.CLIP, 1.5: ExpertKind.ASR, 2.0: ExpertKind.CLAP}
    for sigma, expert in by_width.items():
        for position in (0, 1, 12, 24):
            impulse = np.zeros(25)
            impulse[position] = 1.0
            out = smooth(impulse, expert)
            np.testing.assert_allclose(
                out, smooth_renorm_scalar(impulse, sigma), rtol=0, atol=1e-12
            )


@pytest.mark.criterion(6, "three-phase selection oracle equivalence")
def test_criterion_06_selection_oracle():
    rng = np.random.default_rng(606)
    budgets = (4, 8, 16, 32)
    for index in range(1000):
        T = int(rng.integers(1, 201))
        curve = rng.random(T)
        if index % 3 == 0:
            curve = np.round(curve, 2)  # coarse values force tie-breaking
        budget = budgets[index % 4]
        params = PassParams(budget=budget)
        result = pass_select(curve, params)
        frames, phase, peaks = pass_reference(
            curve, budget, params.max_peaks, params.neighbors_per_peak,
            params.window, params.min_distance,
        )
        assert list(result.frames) == frames
        assert {t: p.value for t, p in result.phase.items()} == phase
        assert list(result.peaks) == peaks

        # Invariants on every instance.
        assert len(result.frames) == min(budget, T)
        kept = result.peaks
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert abs(kept[i] - kept[j]) >= params.min_distance
        half = params.window // 2
        for t, p in result.phase.items():
            if p.value == "neighbor":
                assert any(abs(t - peak) <= half for peak in kept)

    defaults = PassParams(budget=16)
    assert (defaults.max_peaks, defaults.neighbors_per_peak,
            defaults.window, defaults.min_distance) == (4, 2, 4, 4)


@pytest.mark.criterion(7, "peak spread beats top-k on near-tied events")
def test_criterion_07_peak_spread_vs_topk():
    t = np.arange(300, dtype=np.float64)
    curve = np.maximum.reduce([
        np.zeros(300),
        0.82 - 0.0002 * (t - 150.0) ** 2,   # slightly taller, broad event
        0.80 - 0.002 * (t - 50.0) ** 2,     # two near-tied narrow events
        0.80 - 0.002 * (t - 250.0) ** 2,
    ])
    events = {"broad": (87, 214), "early": (31, 70), "late": (231, 270)}

    def frames_in(frames, name):
        lo, hi = events[name]
        return [f for f in frames if lo <= f < hi]

    top = topk_select(curve, 16).frames
    assert len(frames_in(top, "broad")) == 16
    assert frames_in(top, "early") == []
    assert frames_in(top, "late") == []

    spread = pass_select(curve, PassParams(budget=16)).frames
    for name in events:
        assert len(frames_in(spread, name)) >= 1


@pytest.mark.criterion(8, "selection recall scales with budget and beats uniform")
def test_criterion_08_budget_scaling():
    pool = (ExpertKind.CLIP, ExpertKind.CLAP, ExpertKind.OVD,
            ExpertKind.ASR, ExpertKind.OCR)
    table = {ExpertKind.CLIP, ExpertKind.CLAP, ExpertKind.OVD}
    shiftable = {ExpertKind.ASR, ExpertKind.CLAP}
    rng = np.random.default_rng(2025)
    scripts = []
    for i in range(50):
        events = []
        for k, (lo, hi) in enumerate(((30, 180), (220, 370), (420, 570))):
            center = int(rng.integers(lo, hi))
            expert = pool[int(rng.integers(0, 5))]
            amplitude = float(rng.uniform(0.7, 0.95)) if expert in table else 1.0
            offset = 2 if (i % 2 == 1 and expert in shiftable) else 0
            events.append(Event(expert, f"please find item {i} {k}",
                                (center, center + 1), amplitude=amplitude,
                                modality_offset=offset))
        scripts.append(EventScript(script_id=f"s{i:02d}", num_frames=600,
                                   events=tuple(events), seed=i))

    start = time.perf_counter()
    report = run_benchmark(scripts, selectors=("uniform", "pass"),
                           budgets=(8, 16, 32, 64))
    elapsed = time.perf_counter() - start

    recalls = [report.entry("pass", k).event_recall for k in (8, 16, 32, 64)]
    assert all(later >= earlier for earlier, later in zip(recalls, recalls[1:]))
    assert report.entry("pass", 16).event_recall >= report.entry("uniform", 64).event_recall
    assert elapsed < 60.0, f"benchmark suite took {elapsed:.1f}s"


@pytest.mark.criterion(9, "per-video artifacts amortize across queries")
def test_criterion_09_amortization(tmp_path):
    script = EventScript(
        script_id="vid-amort",
        num_frames=240,
        events=(
            Event(ExpertKind.CLIP, "a red car", (40, 44), amplitude=0.9),
            Event(ExpertKind.CLIP, "a kitchen", (100, 104), amplitude=0.8),
            Event(ExpertKind.CLAP, "dog barking", (60, 64), amplitude=0.85),
            Event(ExpertKind.ASR, "hello world", (140, 144)),
            Event(ExpertKind.OCR, "exit", (200, 202)),
            Event(ExpertKind.OVD, "ball", (170, 174), amplitude=0.75),
        ),
        seed=9,
    )
    instance = generate(script)
    path = tmp_path / "vid-amort.bundle.json"
    save_bundle(instance.bundle, path)

    queries = [
        {"op": "AND", "children": [leaf("CLIP", "a red car"), leaf("CLAP", "dog barking")]},
        leaf("CLIP", "a kitchen"),
        {"op": "OR", "children": [leaf("ASR", "hello world"), leaf("OCR", "exit")]},
        {"op": "SEQ", "children": [leaf("CLIP", "a red car"), leaf("ASR", "hello world")]},
        leaf("CLAP", "dog barking"),
        {"op": "AND", "children": [leaf("CLIP", "a kitchen"), leaf("OCR", "exit")]},
        {"op": "AND", "children": [leaf("OVD", "ball"), leaf("CLIP", "a red car")]},
        leaf("OVD", "ball"),
        {"op": "OR", "children": [leaf("OVD", "ball"), leaf("CLAP", "dog barking")]},
        {"op": "RIGHT_AFTER", "children": [leaf("CLIP", "a red car"), leaf("OVD", "ball")]},
    ]
    assert len(queries) == 10
    ovd_bearing = 4

    # One load serves every query; detection is rerun for each question.
    bundle = load_bundle(path)
    digest = bundle_digest(bundle)
    counters = ProviderCounters()
    for document in queries:
        tree = parse_tree(json.dumps(document))
        shared = run_pipeline(tree, bundle, 16, ovd_source=instance.ovd_source,
                              counters=counters)
        fresh = run_pipeline(tree, load_bundle(path), 16,
                             ovd_source=instance.ovd_source)
        assert shared.selection.frames == fresh.selection.frames
        assert np.array_equal(shared.curve.values, fresh.curve.values)

    assert counters.snapshot()["OVD"] == ovd_bearing
    assert bundle_digest(bundle) == digest


@pytest.mark.criterion(10, "absent experts are never invoked")
def test_criterion_10_conditional_execution():
    script = EventScript(
        script_id="vid-cond",
        num_frames=120,
        events=(
            Event(ExpertKind.CLIP, "a red car", (20, 24), amplitude=0.9),
            Event(ExpertKind.CLAP, "dog barking", (40, 44), amplitude=0.8),
            Event(ExpertKind.OVD, "ball", (60, 64), amplitude=0.7),
            Event(ExpertKind.ASR, "hello world", (80, 84)),
            Event(ExpertKind.OCR, "exit", (100, 102)),
        ),
        seed=10,
    )
    instance = generate(script)
    query_for = {
        ExpertKind.CLIP: "a red car",
        ExpertKind.CLAP: "dog barking",
        ExpertKind.OVD: "ball",
        ExpertKind.ASR: "hello world",
        ExpertKind.OCR: "exit",
    }

    rng = np.random.default_rng(1010)
    for _ in range(200):
        size = int(rng.integers(1, 4))
        used = tuple(rng.choice(len(ALL_EXPERTS), size=size, replace=False))
        experts = [ALL_EXPERTS[i] for i in used]
        leaves = [leaf(e.value, query_for[e]) for e in experts]
        if len(leaves) == 1:
            document = leaves[0]
        else:
            document = {"op": ("AND", "OR")[int(rng.integers(0, 2))],
                        "children": leaves}
        counters = ProviderCounters()
        run_pipeline(parse_tree(json.dumps(document)), instance.bundle, 8,
                     ovd_source=instance.ovd_source, counters=counters)
        snapshot = counters.snapshot()
        for expert in ALL_EXPERTS:
            if expert in experts:
                assert snapshot[expert.value] >= 1
            else:
                assert snapshot[expert.value] == 0


@pytest.mark.criterion(11, "smoothing recovers cross-modal asynchrony")
def test_criterion_11_asynchrony_margin():
    script = EventScript(
        script_id="async-1",
        num_frames=120,
        events=(
            Event(ExpertKind.CLIP, "a red car", (40, 41), amplitude=1.0),
            Event(ExpertKind.ASR, "turn left", (40, 44), modality_offset=2),
        ),
        seed=0,
    )
    instance = generate(script)
    tree = parse_tree(json.dumps({
        "op": "AND",
        "children": [leaf("CLIP", "a red car"), leaf("ASR", "turn left")],
    }))
    default = EngineConfig()
    disabled = replace(default, sigma_by_expert={k: 0.0 for k in ExpertKind})
    with_smoothing = run_pipeline(tree, instance.bundle, 8, config=default)
    without = run_pipeline(tree, instance.bundle, 8, config=disabled)
    peak_smoothed = float(with_smoothing.curve.values.max())
    peak_flat = float(without.curve.values.max())
    assert peak_smoothed > peak_flat
    # Frozen pipeline trace for this exact instance under default settings.
    assert abs((peak_smoothed - peak_flat) - 0.015408289756328353) < 1e-9


@pytest.mark.criterion(12, "parser survives structured fuzzing")
def test_criterion_12_parser_fuzz():
    rnd = random.Random(20250819)
    ops = ("AND", "OR", "SEQ", "RIGHT_AFTER", "LEAF", "XOR", "and", "", None, 7)
    experts = ("CLIP", "OVD", "OCR", "ASR", "CLAP", "clip", "RADAR", "", None, 3)
    queries = ("a dog", "turn left here", "", "   ", None, 5, ["x"])

    def valid_node(depth):
        if depth >= 2 or rnd.random() < 0.5:
            return {"op": "LEAF", "expert": rnd.choice(experts[:5]),
                    "query": rnd.choice(("a dog", "turn left here"))}
        op = rnd.choice(("AND", "OR", "SEQ", "RIGHT_AFTER"))
        width = 2 if op == "RIGHT_AFTER" else rnd.randint(2, 3)
        return {"op": op, "children": [valid_node(depth + 1) for _ in range(width)]}

    def fuzzy_node(depth):
        if depth >= 3 or rnd.random() < 0.45:
            node = {}
            if rnd.random() < 0.9:
                node["op"] = rnd.choice(ops)
            if rnd.random() < 0.8:
                node["expert"] = rnd.choice(experts)
            if rnd.random() < 0.8:
                node["query"] = rnd.choice(queries)
            if rnd.random() < 0.1:
                node["extra"] = rnd.choice((1, "x", {}, []))
            return node
        node = {"op": rnd.choice(ops)}
        roll = rnd.random()
        if roll < 0.7:
            node["children"] = [fuzzy_node(depth + 1) for _ in range(rnd.randint(0, 3))]
        elif roll < 0.85:
            node["children"] = rnd.choice((None, 3, "kids", {}))
        if rnd.random() < 0.1:
            node["query"] = rnd.choice(queries)
        return node

    garbage = ("", "{", "[1,", "null", "true", '"leaf"', "   ", "{}", "[]",
               '{"op": "AND", "children": [')
    parsed = 0
    failed = 0
    for iteration in range(100_000):
        roll = rnd.random()
        if roll < 0.25:
            text = json.dumps(valid_node(0))
        elif roll < 0.9:
            text = json.dumps(fuzzy_node(0))
            if rnd.random() < 0.15:
                text = text[: rnd.randint(0, len(text))]
        else:
            text = rnd.choice(garbage)
        try:
            tree = parse_tree(text)
        except TreeError:
            failed += 1
        else:
            assert isinstance(tree, LogicTree)
            parsed += 1
    assert parsed + failed == 100_000
    assert parsed > 10_000 and failed > 10_000
