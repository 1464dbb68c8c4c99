import numpy as np
import pytest

from himu import _kernels
from oracles import (
    right_after_dense,
    right_after_direct,
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
    for _ in range(200):
        T = int(RNG.integers(1, 120))
        cause = RNG.random(T)
        effect = RNG.random(T)
        kappa = float(RNG.uniform(0.1, 5.0))
        np.testing.assert_allclose(
            _kernels.right_after_compose(cause, effect, kappa),
            right_after_dense(cause, effect, kappa),
            rtol=0,
            atol=1e-12,
        )


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
