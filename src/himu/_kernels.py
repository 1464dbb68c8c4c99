"""Hot numeric kernels, one implementation each.

Both Gaussian smoothing modes are the same truncated convolution: each
output frame sums the in-bounds frames within a radius, and the two modes
differ only in their weights and their radius.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

# Past 38.61 standard deviations the float64 weight exp(-0.5 * (d/sigma)**2)
# underflows to exactly 0.0 (its exponent is below -745.13, where exp drops
# under half the smallest subnormal), so a kernel truncated there sums the
# same nonzero terms as one spanning the whole timeline.
STRICT_RADIUS_SIGMAS = 38.61


def _as_f64(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


# --- Gaussian smoothing -------------------------------------------------------
#
# Default mode: kernel truncated at radius ceil(4*sigma), weights renormalized
# over the in-bounds support at every position, so constants survive at the
# boundaries. Strict mode: analytically normalized Gaussian, no boundary
# correction; boundary frames come out under-weighted, which is the behavior
# the renormalized mode exists to avoid.


def _gaussian(T: int, radius: int, sigma: float) -> np.ndarray:
    # Offsets past T - 1 never pair two frames, so capping the radius there
    # changes no sum and keeps the weights no longer than the signal.
    r = min(T - 1, radius)
    d = np.arange(-r, r + 1, dtype=np.float64)
    return np.exp(-0.5 * (d / sigma) ** 2)


def _truncated_convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over in-bounds s of w[s - t + r] * x[s], for odd symmetric w of radius r."""
    r = w.shape[0] // 2
    return np.convolve(x, w)[r : r + x.shape[0]]


def smooth_renorm(x, sigma: float) -> np.ndarray:
    x, sigma = _as_f64(x), float(sigma)
    w = _gaussian(x.shape[0], math.ceil(4.0 * sigma), sigma)
    return _truncated_convolve(x, w) / _truncated_convolve(np.ones_like(x), w)


def smooth_strict(x, sigma: float) -> np.ndarray:
    x, sigma = _as_f64(x), float(sigma)
    w = _gaussian(x.shape[0], math.ceil(STRICT_RADIUS_SIGMAS * sigma), sigma)
    w /= math.sqrt(2.0 * math.pi) * sigma
    return _truncated_convolve(x, w)


# --- SEQ composition ----------------------------------------------------------
#
# Given step curves u[0..L-1] in chronological order, a step can fire at t only
# if every earlier step has already peaked strictly before t and every later
# step still peaks strictly after t. Empty ranges score 0.


def seq_compose(u) -> np.ndarray:
    u = _as_f64(u)
    has_occurred = np.zeros_like(u)
    yet_to_occur = np.zeros_like(u)
    has_occurred[:, 1:] = np.maximum.accumulate(u[:, :-1], axis=1)
    yet_to_occur[:, :-1] = np.maximum.accumulate(u[:, :0:-1], axis=1)[:, ::-1]
    before = np.ones_like(u)
    after = np.ones_like(u)
    before[1:] = np.cumprod(has_occurred[:-1], axis=0)
    after[:-1] = np.cumprod(yet_to_occur[:0:-1], axis=0)[::-1]
    return (u * before * after).max(axis=0)


# --- RIGHT_AFTER --------------------------------------------------------------
#
# Exponential-decay pairing of a cause curve with an effect curve, O(T) via
# forward/backward accumulators instead of the O(T^2) direct sums. Each
# accumulator is the sequential recurrence acc = (acc + x) * decay, run by
# itertools.accumulate over Python floats: those are IEEE doubles like
# float64, so every step rounds exactly as a loop over numpy scalars would,
# without the cost of scalar indexing. The order of the additions is kept on
# purpose. A re-associated (blockwise or prefix-scan) form differs in the
# last bits, and on plateaus, where the sequential sums come out exactly
# equal, those bits decide which tied frames selection keeps.


def _decayed_prefix(values: list[float], decay: float) -> np.ndarray:
    """out[i] = sum over j < i of values[j] * decay**(i - j), accumulated in order."""
    # decay is bound as a default argument: a local read is cheaper per call
    # than a closure cell, and this lambda runs once per frame.
    sums = accumulate(values, lambda acc, x, decay=decay: (acc + x) * decay, initial=0.0)
    return np.fromiter(sums, dtype=np.float64, count=len(values) + 1)[:-1]


def right_after_compose(cause, effect, kappa: float) -> np.ndarray:
    cause, effect = _as_f64(cause), _as_f64(effect)
    decay = math.exp(-float(kappa))
    before = _decayed_prefix(cause.tolist(), decay)
    after = _decayed_prefix(effect[::-1].tolist(), decay)[::-1]
    return np.maximum(effect * before, cause * after)
