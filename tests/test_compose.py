import json
import math
import tracemalloc

import numpy as np
import pytest

from himu.compose import (
    AttributionMatrix,
    SatisfactionCurve,
    evaluate,
    op_and,
    op_or,
    op_right_after,
    op_seq,
)
from himu.config import EngineConfig
from himu.errors import ArityError, LengthMismatchError
from himu.experts import ExpertBundle, OvdSource, ScoreTable, evaluate_leaves
from himu.pipeline import _condition_in_place, run_pipeline, satisfaction_curve
from himu.tree import ExpertKind, parse_tree
from oracles import right_after_direct, seq_brute_force

RNG = np.random.default_rng(99)


def test_satisfaction_curve_validation():
    SatisfactionCurve(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        SatisfactionCurve(np.array([1.2]))
    with pytest.raises(ValueError):
        SatisfactionCurve(np.array([-0.1]))
    with pytest.raises(ValueError):
        SatisfactionCurve(np.array([np.nan]))
    with pytest.raises(ValueError):
        SatisfactionCurve(np.zeros((2, 2)))


def test_and_or_basic_algebra():
    a = np.array([0.2, 0.9])
    b = np.array([0.5, 0.5])
    np.testing.assert_allclose(op_and([a, b]), a * b)
    np.testing.assert_allclose(op_or([a, b]), a + b - a * b)
    ones = np.ones(2)
    zeros = np.zeros(2)
    np.testing.assert_allclose(op_and([a, ones]), a)
    np.testing.assert_allclose(op_and([a, zeros]), zeros)
    np.testing.assert_allclose(op_or([a, zeros]), a)
    np.testing.assert_allclose(op_or([a, ones]), ones)


def test_nary_and_or_fold_left():
    a, b, c = RNG.random((3, 10))
    np.testing.assert_allclose(op_and([a, b, c]), a * b * c, atol=1e-15)
    np.testing.assert_allclose(
        op_or([a, b, c]), 1 - (1 - a) * (1 - b) * (1 - c), atol=1e-12
    )


def test_operator_arity_and_length_checks():
    a = np.array([0.1, 0.2])
    with pytest.raises(ArityError):
        op_and([a])
    with pytest.raises(ArityError):
        op_or([])
    with pytest.raises(ArityError):
        op_seq([a])
    with pytest.raises(LengthMismatchError):
        op_and([a, np.array([0.1, 0.2, 0.3])])
    for kappa in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            op_right_after(a, a, kappa=kappa)


def test_seq_matches_brute_force():
    for _ in range(40):
        L = int(RNG.integers(2, 5))
        T = int(RNG.integers(2, 30))
        u = RNG.random((L, T))
        np.testing.assert_allclose(
            op_seq(list(u)), seq_brute_force(u), rtol=0, atol=1e-12
        )


def test_seq_ordered_impulses_fire_and_reversed_is_zero():
    a = np.zeros(10)
    b = np.zeros(10)
    a[2] = 0.8
    b[7] = 0.9
    ordered = op_seq([a, b])
    # The first step can fire at t=2 (second still ahead) and the second at
    # t=7 (first already behind); nothing else is nonzero.
    assert ordered[2] == pytest.approx(0.8 * 0.9)
    assert ordered[7] == pytest.approx(0.9 * 0.8)
    assert np.count_nonzero(ordered) == 2
    assert np.all(op_seq([b, a]) == 0.0)


def test_right_after_matches_direct_sum_and_decay():
    for kappa in (0.5, 2.0, 4.0):
        cause = np.zeros(12)
        cause[3] = 1.0
        for gap in (1, 2, 3):
            effect = np.zeros(12)
            effect[3 + gap] = 1.0
            out = op_right_after(cause, effect, kappa)
            assert out[3 + gap] == pytest.approx(math.exp(-kappa * gap), abs=1e-12)


def test_right_after_is_clamped():
    cause = np.ones(50)
    effect = np.ones(50)
    raw = right_after_direct(cause, effect, 0.5)
    assert raw.max() > 1.0
    out = op_right_after(cause, effect, 0.5)
    assert out.max() == 1.0
    assert np.all(out >= 0.0)


def test_attribution_matrix_restrict():
    m = AttributionMatrix(np.arange(12, dtype=np.float64).reshape(3, 4) / 12.0)
    np.testing.assert_allclose(m.restrict([0, 3]), m.values[:, [0, 3]])
    assert m.values.shape == (3, 4)


def test_evaluate_hand_instance():
    doc = {
        "op": "OR",
        "children": [
            {
                "op": "AND",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a"},
                    {"op": "LEAF", "expert": "OVD", "query": "b"},
                ],
            },
            {"op": "LEAF", "expert": "ASR", "query": "c"},
        ],
    }
    tree = parse_tree(json.dumps(doc))
    a, b, c = RNG.random((3, 6))
    curve, attribution = evaluate(tree, np.stack([a, b, c]))
    expected = (a * b) + c - (a * b) * c
    np.testing.assert_allclose(curve.values, expected, atol=1e-12)
    # Attribution rows are the smoothed inputs, bit for bit.
    np.testing.assert_array_equal(attribution.values, np.stack([a, b, c]))


def test_evaluate_requires_full_smoothed_coverage():
    tree = parse_tree(
        json.dumps(
            {
                "op": "AND",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "a"},
                    {"op": "LEAF", "expert": "OVD", "query": "b"},
                ],
            }
        )
    )
    # One row per leaf: too few or too many rows is a length mismatch.
    for num_rows in (1, 3):
        with pytest.raises(LengthMismatchError):
            evaluate(tree, RNG.random((num_rows, 4)))
    with pytest.raises(ValueError):
        evaluate(tree, RNG.random(4))


def test_evaluate_right_after_uses_kappa():
    tree = parse_tree(
        json.dumps(
            {
                "op": "RIGHT_AFTER",
                "children": [
                    {"op": "LEAF", "expert": "CLIP", "query": "spark"},
                    {"op": "LEAF", "expert": "CLAP", "query": "bang"},
                ],
            }
        )
    )
    cause = np.zeros(8)
    cause[2] = 1.0
    effect = np.zeros(8)
    effect[4] = 1.0
    for kappa in (0.5, 2.0):
        curve, _ = evaluate(tree, np.stack([cause, effect]), kappa)
        assert curve.values[4] == pytest.approx(math.exp(-2 * kappa), abs=1e-12)


def _table_question(T: int, rng):
    """An AND of six leaves over score tables and detection rows, in three
    expert groups of two, with its bundle and detection source."""
    kinds = ("CLIP", "CLIP", "CLAP", "CLAP", "OVD", "OVD")
    tree = parse_tree(json.dumps({"op": "AND", "children": [
        {"expert": kind, "query": f"q{i}"} for i, kind in enumerate(kinds)
    ]}))

    def rows(kind):
        return tuple((f"q{i}", rng.random(T)) for i, k in enumerate(kinds) if k == kind)

    bundle = ExpertBundle(
        "vid", T, 1.0,
        clip_table=ScoreTable(ExpertKind.CLIP, "vid", rows("CLIP")),
        clap_table=ScoreTable(ExpertKind.CLAP, "vid", rows("CLAP")),
    )
    return tree, bundle, OvdSource("vid", rows("OVD"))


def test_satisfaction_curve_peaks_below_two_and_a_half_row_sets():
    """The leaf rows are conditioned in place and become the attribution
    matrix without a copy. Raw, conditioned and attribution rows held at
    once would be three (L, T) float64 arrays; over (6, 50 000) rows the
    traced peak stays below two and a half, and the curve and matrix equal
    the public stages' bit for bit."""
    T = 50_000
    tree, bundle, source = _table_question(T, np.random.default_rng(4))
    config = EngineConfig()
    tracemalloc.start()
    try:
        curve, attribution = satisfaction_curve(tree, bundle, config, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * tree.num_leaves * T * 8

    conditioned = _condition_in_place(tree, evaluate_leaves(tree, bundle, source), config)
    want_curve, want_attribution = evaluate(tree, conditioned, kappa=config.kappa)
    assert curve.values.tobytes() == want_curve.values.tobytes()
    assert attribution.values.tobytes() == want_attribution.values.tobytes()


def test_public_stages_neither_write_nor_freeze_a_callers_rows():
    tree, bundle, source = _table_question(40, np.random.default_rng(6))
    config = EngineConfig()
    for writeable in (True, False):
        rows = np.random.default_rng(7).random((tree.num_leaves, 40))
        rows.setflags(write=writeable)
        before = rows.tobytes()
        _, attribution = evaluate(tree, rows)
        matrix = AttributionMatrix(rows)
        assert rows.tobytes() == before
        assert rows.flags.writeable is writeable
        for made in (attribution.values, matrix.values):
            assert not np.shares_memory(made, rows)

    result = run_pipeline(tree, bundle, 4, config, source)
    assert not result.attribution.values.flags.writeable
    with pytest.raises(ValueError):
        result.attribution.values[0, 0] = 0.5
