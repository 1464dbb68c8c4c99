import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from himu.config import EngineConfig
from himu.errors import (
    EmptyInputError,
    LengthMismatchError,
    MissingBandwidthError,
    RowShapeError,
    SignalError,
)
from himu.pipeline import _condition_in_place
from himu.signals import (
    DEFAULT_BANDWIDTHS,
    NormalizationParams,
    SmoothingParams,
    _sigmoid,
    normalize_joint,
    smooth,
)
from himu.tree import ExpertKind, parse_tree
from oracles import (
    normalize_two_medians,
    sigmoid_masked_store,
    smooth_renorm_full_ones,
    smooth_renorm_scalar,
)


def raw(values):
    return np.asarray(values, dtype=np.float64)


def _examples(n):
    """n examples, or the loaded hypothesis profile's count when that is
    larger: the byte-equality properties run longer under "thorough"."""
    return max(n, settings.default.max_examples)


# Values where the sigmoid's branches meet or saturate: both zeros, NaN,
# both infinities, exp(-745.2) rounding to the smallest subnormal or to 0,
# and arguments so small that exp(-|x|) rounds to exactly 1.
_SIGMOID_EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 745.2, -745.2, 1e-300, -1e-300, 5e-324]


@st.composite
def _normal_draws_with_edges(draw, max_rows=1):
    """A (rows, T) array of normal draws with edge values at drawn places."""
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(scale=draw(st.sampled_from([1.0, 8.0, 300.0])), size=shape)
    for _ in range(draw(st.integers(0, 12))):
        at = (draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1)))
        values[at] = draw(st.sampled_from(_SIGMOID_EDGES))
    return values


def test_params_validation():
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            NormalizationParams(gamma=bad)
        with pytest.raises(ValueError):
            NormalizationParams(delta=bad)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SmoothingParams(sigma_by_expert={ExpertKind.CLIP: bad})


def test_default_bandwidths():
    assert DEFAULT_BANDWIDTHS == {
        ExpertKind.CLIP: 0.5,
        ExpertKind.OVD: 0.5,
        ExpertKind.OCR: 0.5,
        ExpertKind.ASR: 1.5,
        ExpertKind.CLAP: 2.0,
    }


def test_constant_group_maps_to_exactly_half():
    out = normalize_joint([raw(np.full(17, 0.42))])
    assert out.shape == (1, 17)
    assert np.all(out[0] == 0.5)
    # Constant across a group of several rows, too.
    group = [raw(np.full(5, 1.3)), raw(np.full(5, 1.3))]
    for row in normalize_joint(group):
        assert np.all(row == 0.5)


def test_normalization_frozen_values():
    # med = 0.35, MAD = 0.15, scale = 3 / 0.150001; endpoints frozen by an
    # arbitrary-precision sigmoid evaluation.
    out = normalize_joint([raw([0.1, 0.2, 0.3, 0.4, 0.5, 0.9])])[0]
    assert out[0] == pytest.approx(0.006693072528340463, abs=1e-12)
    assert out[5] == pytest.approx(0.9999832973533647, abs=1e-12)


def test_sigmoid_matches_two_division_formula_bit_for_bit():
    x = np.concatenate([
        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, 36.0, -36.0, 745.2, -745.2],
        np.random.default_rng(5).normal(scale=8.0, size=2000),
    ])
    e = np.exp(-np.abs(x))
    two_divisions = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert _sigmoid(x).tobytes() == two_divisions.tobytes()


@settings(max_examples=_examples(300), deadline=None)
@given(_normal_draws_with_edges())
def test_sigmoid_matches_masked_store_bytewise(values):
    x = values[0]
    with np.errstate(invalid="ignore"):
        want = sigmoid_masked_store(x)
        got = _sigmoid(x.copy())
    assert got.tobytes() == want.tobytes()


def test_joint_normalization_separates_constant_pair():
    # Normalized separately, two flat rows both collapse to 0.5 and look
    # equally relevant; jointly they keep their order.
    low, high = raw(np.full(4, 0.2)), raw(np.full(4, 0.8))
    alone = [normalize_joint([row])[0] for row in (low, high)]
    assert np.all(alone[0] == 0.5) and np.all(alone[1] == 0.5)
    joint = normalize_joint([low, high])
    assert joint[0][0] == pytest.approx(0.04742632494470278, abs=1e-12)
    assert joint[1][0] == pytest.approx(0.9525736750552972, abs=1e-12)
    assert np.all(joint[0] < joint[1])
    # A group given as one (n, T) array normalizes the same as its rows.
    np.testing.assert_array_equal(normalize_joint(np.stack([low, high])), joint)


def test_normalize_shape_checks():
    with pytest.raises(EmptyInputError):
        normalize_joint([])
    with pytest.raises(LengthMismatchError):
        normalize_joint([raw([0.1, 0.2]), raw([0.1, 0.2, 0.3])])
    # one 1-D row, scalars or a 3-D block are not a group of rows
    for bad in (raw([0.1, 0.2]), [0.1, 0.2], np.zeros((2, 3, 4))):
        with pytest.raises(RowShapeError, match="2-D"):
            normalize_joint(bad)
    assert issubclass(RowShapeError, SignalError)
    # rows of no frames normalize to rows of no frames
    assert normalize_joint([raw([]), raw([])]).shape == (2, 0)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    ),
    st.floats(0.5, 10.0),
)
def test_normalization_is_monotone_and_bounded(values, gamma):
    out = normalize_joint([raw(values)], NormalizationParams(gamma=gamma))[0]
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= 0.0)


# Values that stress the order statistics: ties, both zeros, subnormals,
# the smallest normal, and magnitudes whose sums and differences overflow.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.25,
                0.5, 1.0, -1.0, 1e308, -1e308]


def _groups():
    """(rows, T) groups: any finite floats, heavy ties from a small pool, or
    one constant; odd and even sizes, down to a single value."""
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 9))
    any_finite = st.floats(allow_nan=False, allow_infinity=False)
    tied = st.sampled_from(_EDGE_VALUES)
    return st.one_of(
        shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=any_finite)),
        shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=tied)),
        st.tuples(shapes, st.one_of(tied, any_finite)).map(lambda a: np.full(a[0], a[1])),
    )


@settings(max_examples=500, deadline=None)
@given(_groups(), st.floats(0.5, 10.0), st.sampled_from([1e-6, 1e-300, 1.0]))
def test_normalization_is_bit_identical_to_two_medians(group, gamma, delta):
    params = NormalizationParams(gamma=gamma, delta=delta)
    with np.errstate(over="ignore", invalid="ignore"):
        got = normalize_joint(group, params)
        want = normalize_two_medians(group, gamma, delta)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 2.0],
        [0.0, -0.0],
        [np.inf, 1.0, 2.0],
        [np.inf, np.inf, 2.0],
        [-np.inf, np.inf],
        [-np.inf, -np.inf, 1.0, np.inf],
        [1e308, 1.7e308],
        [np.nan, 1.0],
        [np.nan, 1.0, 2.0],
    ],
)
def test_normalization_of_non_finite_groups_matches_two_medians(values):
    group = raw([values])
    with np.errstate(over="ignore", invalid="ignore"):
        got = normalize_joint(group)
        want = normalize_two_medians(group, 3.0, 1e-6)
    assert got.tobytes() == want.tobytes()


def test_normalization_takes_the_sigmoid_limit_when_the_scale_overflows():
    # The MAD is 0.125, so the scale gamma / (MAD + delta) overflows to inf.
    group = raw([[0.25, 0.5, 0.5], [0.75, 0.5, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = normalize_joint(group, NormalizationParams(gamma=1e308))
    assert got.tolist() == [[0.0, 0.5, 0.5], [1.0, 0.5, 0.0]]
    # A huge finite scale saturates to the same values.
    finite = normalize_joint(group[:, :2], NormalizationParams(gamma=1e300))
    assert finite.tobytes() == got[:, :2].tobytes()


@settings(max_examples=_examples(300), deadline=None)
@given(_normal_draws_with_edges(max_rows=4), st.floats(0.5, 10.0))
def test_normalize_joint_matches_two_medians_bytewise(group, gamma):
    # Normal draws put values on both sides of the median, so the sigmoid
    # takes both branches; an edge value among them can make the median or
    # the MAD infinite or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        got = normalize_joint(group, NormalizationParams(gamma=gamma))
        want = normalize_two_medians(group, gamma, 1e-6)
    assert got.tobytes() == want.tobytes()


normalized = raw


def test_smooth_zero_bandwidth_is_identity():
    sig = normalized([0.2, 0.9, 0.1])
    params = SmoothingParams(sigma_by_expert={ExpertKind.CLIP: 0.0})
    out = smooth(sig, ExpertKind.CLIP, params)
    np.testing.assert_array_equal(out, sig)


def test_smooth_missing_bandwidth():
    params = SmoothingParams(sigma_by_expert={ExpertKind.CLIP: 0.5})
    with pytest.raises(MissingBandwidthError):
        smooth(normalized([0.5, 0.5]), ExpertKind.ASR, params)


def test_smooth_uses_expert_bandwidth():
    rng = np.random.default_rng(5)
    sig = normalized(rng.random(60))
    clip_out = smooth(sig, ExpertKind.CLIP)
    clap_out = smooth(sig, ExpertKind.CLAP)
    np.testing.assert_allclose(clip_out, smooth_renorm_scalar(sig, 0.5), atol=1e-12)
    np.testing.assert_allclose(clap_out, smooth_renorm_scalar(sig, 2.0), atol=1e-12)


def test_smooth_keeps_rows_of_no_frames():
    # normalize_joint returns an (n, 0) group for rows of no frames;
    # smoothing hands back a float64 group of the same shape.
    for values in (normalize_joint([raw([]), raw([])]), raw([])):
        out = smooth(values, ExpertKind.CLAP)
        assert out.shape == values.shape and out.dtype == np.float64


def test_smooth_takes_the_largest_finite_bandwidths():
    # 4 * sigma rounds to inf here, so the radius is capped at T - 1 before
    # its ceiling: every weight is then 1.0, and each frame is the mean.
    sig = normalized(np.random.default_rng(3).random(30))
    for sigma in (4.5e307, 1e308):
        params = SmoothingParams(sigma_by_expert={ExpertKind.CLIP: sigma})
        out = smooth(sig, ExpertKind.CLIP, params)
        np.testing.assert_allclose(out, sig.mean(), rtol=1e-12)


def test_smooth_preserves_constants_in_default_mode():
    sig = normalized(np.full(25, 0.73))
    for expert in ExpertKind:
        out = smooth(sig, expert)
        np.testing.assert_allclose(out, 0.73, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 50),
        elements=st.floats(0, 1, allow_nan=False),
    ),
    st.sampled_from(sorted(ExpertKind, key=lambda e: e.value)),
)
def test_smoothing_keeps_unit_interval_and_mass_center(values, expert):
    out = smooth(normalized(values), expert)
    assert np.all(out >= -1e-15)
    assert np.all(out <= 1.0 + 1e-15)
    assert out.min() >= values.min() - 1e-12
    assert out.max() <= values.max() + 1e-12


def test_conditioning_fills_rows_by_leaf_id():
    # Leaves 0 and 2 (CLIP) are normalized and smoothed as one group around
    # leaf 1 (ASR), each row as if smoothed alone, and each conditioned row
    # lands back at its own leaf id.
    tree = parse_tree(json.dumps({"op": "OR", "children": [
        {"op": "LEAF", "expert": "CLIP", "query": "a"},
        {"op": "LEAF", "expert": "ASR", "query": "b"},
        {"op": "LEAF", "expert": "CLIP", "query": "c"},
    ]}))
    raw_rows = np.random.default_rng(8).random((3, 30))
    clip = normalize_joint(raw_rows[[0, 2]])
    asr = normalize_joint(raw_rows[[1]])
    out = _condition_in_place(tree, raw_rows.copy(), EngineConfig())
    assert out.shape == (3, 30)
    np.testing.assert_array_equal(out[0], smooth(clip[0], ExpertKind.CLIP))
    np.testing.assert_array_equal(out[2], smooth(clip[1], ExpertKind.CLIP))
    np.testing.assert_array_equal(out[1], smooth(asr[0], ExpertKind.ASR))
