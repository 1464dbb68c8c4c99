import numpy as np
import pytest

from himu import _kernels
from oracles import (
    right_after_dense,
    right_after_direct,
    right_after_loop,
    seq_brute_force,
    seq_running_max,
    smooth_renorm_dense,
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


@pytest.mark.parametrize("kappa", [1e-300, 0.01, 0.5, 2.0, 30.0, 700.0, 1e300])
@pytest.mark.parametrize("T", [1, 2, 3, 500])
def test_right_after_is_bit_identical_to_sequential_loop(kappa, T):
    # Selection breaks exact ties by frame index, so the kernel must round
    # like the one-frame-at-a-time loop, not merely come within 1e-12.
    inputs = [
        (RNG.random(T), RNG.random(T)),
        (_plateaus(T, [0.0, 0.5, 1.0]), _plateaus(T, [0.0, 0.25, 1.0])),
        (np.full(T, 0.3), np.full(T, 0.3)),
        (np.round(RNG.random(T), 1), np.zeros(T)),
    ]
    for cause, effect in inputs:
        got = _kernels.right_after_compose(cause, effect, kappa)
        assert got.tobytes() == right_after_loop(cause, effect, kappa).tobytes()


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
