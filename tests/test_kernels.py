import math
import warnings

import numpy as np
import pytest

from himu import _kernels
from oracles import (
    right_after_dense,
    right_after_direct,
    right_after_loop,
    seq_brute_force,
    seq_cumprod,
    seq_running_max,
    smooth_renorm_dense,
    smooth_renorm_full_ones,
    smooth_renorm_scalar,
    smooth_strict_dense,
    smooth_strict_scalar,
)

RNG = np.random.default_rng(2024)


# The *_backends_agree tests check each kernel against a second, independent
# formulation of the same operator: dense weight matrices for smoothing and
# adjacency, explicit running maxima for SEQ.


@pytest.mark.parametrize("sigma", [0.5, 1.5, 2.0, 3.7])
@pytest.mark.parametrize("T", [1, 2, 3, 7, 50, 200])
def test_smooth_renorm_backends_agree(sigma, T):
    x = RNG.random(T)
    np.testing.assert_allclose(
        _kernels.smooth_renorm(x, sigma), smooth_renorm_dense(x, sigma), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("sigma", [0.5, 1.5, 2.0])
@pytest.mark.parametrize("T", [1, 2, 13, 80])
def test_smooth_strict_backends_agree(sigma, T):
    x = RNG.random(T)
    np.testing.assert_allclose(
        _kernels.smooth_strict(x, sigma), smooth_strict_dense(x, sigma), rtol=0, atol=1e-12
    )


def test_seq_backends_agree():
    for _ in range(200):
        L = int(RNG.integers(1, 5))
        T = int(RNG.integers(1, 60))
        u = RNG.random((L, T))
        np.testing.assert_allclose(
            _kernels.seq_compose(u), seq_running_max(u), rtol=0, atol=1e-12
        )


def test_right_after_backends_agree():
    cases = [
        (int(RNG.integers(1, 120)), float(RNG.uniform(0.1, 5.0))) for _ in range(200)
    ]
    # a slow decay over a long timeline sums the most terms per frame
    cases.append((2000, 0.01))
    for T, kappa in cases:
        cause = RNG.random(T)
        effect = RNG.random(T)
        np.testing.assert_allclose(
            _kernels.right_after_compose(cause, effect, kappa),
            right_after_dense(cause, effect, kappa),
            rtol=0,
            atol=1e-12,
        )


def _plateaus(T, levels):
    """Runs of 1 to 8 equal values drawn from ``levels``, cut to length T."""
    runs = [np.full(int(RNG.integers(1, 9)), RNG.choice(levels)) for _ in range(T)]
    return np.concatenate(runs)[:T]


def _spikes(T):
    """1.0 at offset 28 of every 128-frame block: at kappa = 2 the true state
    at every lane's first frame is a decayed spike far below 1 but not 0,
    while the lane, warmed up on zeros, starts at 0, so every lane fails."""
    x = np.zeros(T)
    x[28::128] = 1.0
    return x


# 5e-324 overflows 60/kappa to inf and 1e-300 gives W >= T at every T here;
# at kappa = 0.01 the lanes' W + B steps are too many for T, so these run in
# order. At T = 6_700 lanes run for kappa >= 30 and at T = 24_001 for
# kappa >= 0.5, over a last block cut short (neither is a multiple of the
# block size).
@pytest.mark.parametrize("kappa", [5e-324, 1e-300, 0.01, 0.5, 2.0, 30.0, 700.0, 1e300])
@pytest.mark.parametrize("T", [1, 2, 3, 500, 6_700, 24_001])
def test_right_after_is_bit_identical_to_sequential_loop(kappa, T):
    # Selection breaks exact ties by frame index, so the kernel must round
    # like the one-frame-at-a-time loop, not merely come within 1e-12.
    inputs = [
        (RNG.random(T), RNG.random(T)),
        (_plateaus(T, [0.0, 0.5, 1.0]), _plateaus(T, [0.0, 0.25, 1.0])),
        (np.full(T, 0.3), np.full(T, 0.3)),
        (np.round(RNG.random(T), 1), np.zeros(T)),
        (_spikes(T), _spikes(T)[::-1].copy()),
        # Between the -1.0 spikes the loop's state decays to -0.0 and stays
        # there (-0.0 + -0.0 is -0.0), while a lane warmed up from +0.0 on
        # -0.0 stays at +0.0: equal under ==, different in bits. The spikes
        # sit on the first frame of every other 64-frame block, so a lane
        # with a spike starts where its spike-free predecessor ended, and
        # at that frame cause * after < 0 lets the sign of effect * before
        # show.
        (np.where(np.arange(T) % 128 == 0, -1.0, -0.0), np.full(T, 0.5)),
    ]
    for cause, effect in inputs:
        got = _kernels.right_after_compose(cause, effect, kappa)
        assert got.tobytes() == right_after_loop(cause, effect, kappa).tobytes()


def test_right_after_cases_reach_lanes_and_repairs(monkeypatch):
    # The bit-identity cases above cover the lane path, the in-order path
    # and the repair of lanes that fail their check; pin that coverage.
    assert _kernels._lane_shape(500, 2.0) is None
    assert _kernels._lane_shape(24_001, 5e-324) is None
    assert _kernels._lane_shape(6_700, 30.0) == (2, 64)
    assert _kernels._lane_shape(24_001, 0.5) == (120, 120)
    assert _kernels._lane_shape(24_001, 2.0) == (30, 64)
    redone = []
    states = _kernels._states

    def counting(values, decay, state):
        redone.append(len(values))
        return states(values, decay, state)

    monkeypatch.setattr(_kernels, "_states", counting)
    _kernels.right_after_compose(RNG.random(24_001), RNG.random(24_001), 2.0)
    assert redone == []  # noise needs no repair
    x = _spikes(24_001)
    # the backward pass reverses the effect, so it sees the spikes in order too
    _kernels.right_after_compose(x, x[::-1].copy(), 2.0)
    # every lane but lane 0 of each direction fails its check, and one pass
    # per direction redoes the other 375 lanes
    assert redone == [24_001 - 64] * 2


def test_seq_is_bit_identical_to_cumprod_form():
    # Same products in the same order as two cumprods over the steps, and
    # the same max reduction, whether the steps come as an (L, T) array or
    # as a list of rows; the steps themselves are left as they were.
    for L in range(1, 6):
        for T in (1, 2, 3, 500):
            inputs = [
                RNG.random((L, T)),
                np.round(RNG.random((L, T)), 1),
                np.zeros((L, T)),
                RNG.choice([0.0, -0.0, 5e-324, 0.5, 1.0], (L, T)),
            ]
            for u in inputs:
                want = seq_cumprod(u).tobytes()
                kept = u.tobytes()
                assert _kernels.seq_compose(u).tobytes() == want
                rows = [row.copy() for row in u]
                assert _kernels.seq_compose(rows).tobytes() == want
                assert u.tobytes() == kept
                assert np.array(rows).tobytes() == kept


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.5, 2.0, 12.5])
def test_smooth_renorm_matches_full_ones_renormalizer_bytewise(sigma):
    # Every T up to two kernels and three frames past the radius r: T < 2r+1
    # has no interior frame, T = 2r+1 has one, and past it the interior
    # grows. Then the workloads' long timelines, and groups of no frames.
    r = math.ceil(4.0 * sigma)
    lengths = [*range(1, 4 * r + 4), 10_800, 108_000]
    for i, T in enumerate(lengths):
        n = 1 + i % 4
        groups = [RNG.random((n, T)), RNG.choice([0.0, -0.0, 5e-324, 0.5, 1.0], (n, T))]
        for x in groups + [groups[0][0]]:
            want = smooth_renorm_full_ones(x, sigma)
            assert _kernels.smooth_renorm(x, sigma).tobytes() == want.tobytes()
    for n in (1, 4):
        empty = np.empty((n, 0))
        got = _kernels.smooth_renorm(empty, sigma)
        assert got.shape == (n, 0) and got.dtype == np.float64


@pytest.mark.parametrize("sigma", [0.5, 1.5, 2.0, 3.7])
def test_smooth_renorm_matches_scalar_oracle(sigma):
    # T=20 is shorter than the kernel at sigma=3.7 (radius 15)
    for T in (1, 2, 5, 9, 20, 64):
        x = RNG.random(T)
        np.testing.assert_allclose(
            _kernels.smooth_renorm(x, sigma),
            smooth_renorm_scalar(x, sigma),
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("sigma", [0.5, 1.5, 2.0])
def test_smooth_strict_matches_scalar_oracle(sigma):
    # T=64 and T=150 reach past the strict truncation radius ceil(38.61*sigma)
    for T in (1, 3, 17, 40, 64, 150):
        x = RNG.random(T)
        np.testing.assert_allclose(
            _kernels.smooth_strict(x, sigma),
            smooth_strict_scalar(x, sigma),
            rtol=0,
            atol=1e-12,
        )


# The strict peak weight 1 / (sqrt(2 pi) sigma) overflows at 5e-324.
@pytest.mark.parametrize("sigma, strict_peak", [
    (5e-324, math.inf),
    (1e-300, 1.0 / (math.sqrt(2.0 * math.pi) * 1e-300)),
])
def test_smoothing_at_tiny_bandwidths_warns_nothing(sigma, strict_peak):
    # d / sigma, or its square, overflows to inf for every offset d != 0, and
    # exp(-inf) = 0 is the right weight: the kernel is one frame wide.
    x = RNG.random(50) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = [_kernels._gaussian(50, radius_sigmas, sigma)
                   for radius_sigmas in (4.0, _kernels.STRICT_RADIUS_SIGMAS)]
        renorm = _kernels.smooth_renorm(x, sigma)
        strict = _kernels.smooth_strict(x, sigma)
    for w in weights:
        assert w.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()
    assert renorm.tobytes() == x.tobytes()
    assert strict.tobytes() == (x * strict_peak).tobytes()


def test_smooth_renorm_preserves_constants_everywhere():
    x = np.full(30, 0.37)
    for sigma in (0.5, 1.5, 2.0, 10.0):
        np.testing.assert_allclose(
            _kernels.smooth_renorm(x, sigma), x, rtol=0, atol=1e-12
        )


def test_smooth_strict_depresses_boundaries_of_constants():
    x = np.ones(30)
    out = _kernels.smooth_strict(x, 2.0)
    assert out[0] < 0.75
    assert out[15] == pytest.approx(1.0, abs=1e-3)


def test_seq_matches_brute_force_quick():
    for _ in range(50):
        L = int(RNG.integers(1, 5))
        T = int(RNG.integers(1, 40))
        u = RNG.random((L, T))
        np.testing.assert_allclose(
            _kernels.seq_compose(u), seq_brute_force(u), rtol=0, atol=1e-12
        )


def test_right_after_matches_direct_sums_quick():
    for _ in range(50):
        T = int(RNG.integers(1, 60))
        cause, effect = RNG.random(T), RNG.random(T)
        np.testing.assert_allclose(
            _kernels.right_after_compose(cause, effect, 2.0),
            right_after_direct(cause, effect, 2.0),
            rtol=0,
            atol=1e-12,
        )
