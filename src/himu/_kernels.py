"""Hot numeric kernels, one implementation each.

Both Gaussian smoothing modes are the same truncated convolution: each
output frame sums the in-bounds frames within a radius, and the two modes
differ only in their weights and their radius.
"""
from __future__ import annotations

import math

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


def _gaussian(T: int, radius_sigmas: float, sigma: float) -> np.ndarray:
    # Offsets past T - 1 never pair two frames, so capping the radius there
    # changes no sum and keeps the weights no longer than the signal. The
    # cap comes before the ceiling, which cannot take the inf that a huge
    # sigma times radius_sigmas rounds to; T - 1 is an integer, so every
    # finite radius is the same either way.
    r = math.ceil(min(T - 1, radius_sigmas * sigma))
    d = np.arange(-r, r + 1, dtype=np.float64)
    return np.exp(-0.5 * (d / sigma) ** 2)


def _truncated_convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over in-bounds s of w[s - t + r] * x[..., s], along the last axis
    of a row or an (n, T) group, for odd symmetric w of radius r."""
    r, T = w.shape[0] // 2, x.shape[-1]
    out = np.empty(x.shape)
    if T == 0:  # rows of no frames: nothing to sum, and no row shape to iterate
        return out
    for row, smoothed in zip(x.reshape(-1, T), out.reshape(-1, T)):
        smoothed[:] = np.convolve(row, w)[r : r + T]
    return out


def smooth_renorm(x, sigma: float) -> np.ndarray:
    # The renormalizer is the truncated convolution of a row of ones: its
    # first r and last r sums are the edge sums, and every sum between them
    # is the whole kernel's. A row of min(T, 2r+1) ones yields all three
    # (its middle sum is an interior one), with the same dot products, so
    # the same bits, as a row of T ones, and the interior is divided by
    # that one scalar.
    x, sigma = _as_f64(x), float(sigma)
    T = x.shape[-1]
    w = _gaussian(T, 4.0, sigma)
    smoothed = _truncated_convolve(x, w)
    sums = _truncated_convolve(np.ones(min(T, w.shape[0])), w)
    if sums.shape[0] == T:  # no interior: every frame is within r of an edge
        return np.divide(smoothed, sums, out=smoothed)
    r = w.shape[0] // 2
    for part, renorm in (
        (smoothed[..., :r], sums[:r]),
        (smoothed[..., r : T - r], sums[r]),
        (smoothed[..., T - r :], sums[r + 1 :]),
    ):
        np.divide(part, renorm, out=part)
    return smoothed


def smooth_strict(x, sigma: float) -> np.ndarray:
    x, sigma = _as_f64(x), float(sigma)
    w = _gaussian(x.shape[-1], STRICT_RADIUS_SIGMAS, sigma)
    w /= math.sqrt(2.0 * math.pi) * sigma
    return _truncated_convolve(x, w)


# --- SEQ composition ----------------------------------------------------------
#
# Given step curves u[0..L-1] in chronological order, a step can fire at t only
# if every earlier step has already peaked strictly before t and every later
# step still peaks strictly after t. Empty ranges score 0.


def seq_compose(u) -> np.ndarray:
    # ``u`` is a list of L equal-length rows or an (L, T) array. Stacking
    # them into ``terms`` is the one (L, T) copy; the maxima are read from
    # the rows themselves, which are never written.
    # Row by row: terms[i] = u[i] * before[i] * after[i], where before[i] is
    # the product of the earlier steps' past maxima and after[i] that of the
    # later steps' future maxima, multiplied in the order a cumprod over the
    # steps takes (first step first for before, last step first for after).
    # Step 0 has no before factor and the last step no after factor; a
    # factor of 1.0 changes no bits, so skipping it keeps them.
    rows = [np.asarray(row, dtype=np.float64) for row in u]
    terms = np.array(rows)
    L, T = terms.shape
    product = None
    for i in range(1, L):
        past = np.zeros(T)  # max(u[i-1, :t]), 0 at t = 0
        np.maximum.accumulate(rows[i - 1][:-1], out=past[1:])
        product = past if product is None else np.multiply(product, past, out=product)
        terms[i] *= product
    product = None
    for i in range(L - 2, -1, -1):
        future = np.zeros(T)  # max(u[i+1, t+1:]), 0 at t = T-1
        np.maximum.accumulate(rows[i + 1][:0:-1], out=future[-2::-1])
        product = future if product is None else np.multiply(product, future, out=product)
        terms[i] *= product
    return terms.max(axis=0)


# --- RIGHT_AFTER --------------------------------------------------------------
#
# Exponential-decay pairing of a cause curve with an effect curve, O(T) via
# forward/backward accumulators instead of the O(T^2) direct sums. Each
# accumulator is the recurrence acc = (acc + x) * decay, and its output must
# have the bits of the one-frame-at-a-time loop: on plateaus, where the sums
# come out exactly equal, the last bits decide which tied frames selection
# keeps, so a re-associated (prefix-scan) form is ruled out.
#
# The recurrence forgets its past: after W = ceil(60/kappa) frames, an
# earlier state weighs exp(-60) ~ 1e-26 of what it did, far below the last
# bit of a state of similar size. So the timeline is cut into blocks of
# B >= W frames and each block gets a numpy lane that runs the same two
# operations from acc = 0, starting W frames before the block (speculate).
# Lane 0 starts at frame 0 and is exact. A lane whose start state has the
# same bits as the end state of an exact predecessor repeats the loop's
# operations on the loop's operands from there on, so it is exact as well
# (verify; the bits are compared as uint64, because -0.0 == 0.0). From the
# first lane that fails, the rest of the curve is recomputed in order from
# the verified end state of the lane before it, by one generator pass over
# Python floats, which are IEEE doubles like float64 (repair). A lane fails
# where the loop's state still holds a tiny nonzero remainder that the lane,
# warmed up from 0 on zeros, lacks: a spike followed by zeros decays through
# such values for about 745/kappa frames. On perfbench's rows no lane
# fails, so the repair pass is there for exactness; its worst case, lane 1
# failing, costs the lanes plus the in-order pass.
# Speculation, verification and repair follow Maleki, Yang & Mytkowicz,
# "Parallelizing Dynamic Programming Through Rank Convergence" (PPoPP 2014).
#
# A lane step is two numpy calls over all lanes. Measured on noise, lanes
# beat the in-order pass from about T = 25 (W + B), but an input that
# fails an early lane pays for both, and that stays within the time of
# an itertools.accumulate() pass over the same floats only from about
# T = 60 (W + B) on (1.0-1.2x of it at 40, 0.9-0.97x at 100, for kappa
# from 0.03 to 30 on a 2-vCPU VM). So lanes run where T >= 100 (W + B),
# and there take about a tenth to a third of the in-order time. Otherwise,
# and when W >= T, the whole curve runs in order.

_LANE_REACH = 60.0
_MIN_BLOCK = 64
_FRAMES_PER_LANE_STEP = 100


def _recurrence(values: list[float], decay: float, acc: float):
    for x in values:
        yield acc
        acc = (acc + x) * decay
    yield acc


def _states(values: list[float], decay: float, state: float) -> np.ndarray:
    """The recurrence's state before each of ``values`` and after the last."""
    # A plain generator, not accumulate() with a lambda: it saves a Python
    # call per frame, and each step is the same two IEEE double operations.
    return np.fromiter(_recurrence(values, decay, state), dtype=np.float64, count=len(values) + 1)


def _lane_shape(T: int, kappa: float) -> tuple[int, int] | None:
    """(warm-up W, block B) of the lanes over T frames, or None to run in order."""
    reach = _LANE_REACH / kappa  # inf for a subnormal kappa, so no ceil before the test
    if not reach < T:
        return None
    warmup = math.ceil(reach)
    block = max(warmup, _MIN_BLOCK)
    if (warmup + block) * _FRAMES_PER_LANE_STEP > T:
        return None
    return warmup, block


def _speculate(x: np.ndarray, decay: float, warmup: int, block: int):
    """Run one lane per block from acc = 0, ``warmup`` frames early.

    Returns the lanes' outputs as one timeline, exact wherever the lane is,
    and each lane's state at the start and after the end of its block.
    """
    T = x.shape[0]
    n = -(-T // block)
    # Column-major lanes: xs[k, j] is frame j*block + k, zero past the end.
    xs = np.zeros((block, n))
    full, rest = divmod(T, block)
    xs[:, :full] = x[: full * block].reshape(full, block).T
    if rest:
        xs[:rest, full] = x[full * block :]
    # states[k, j] is lane j's state before frame j*block + k; the last row
    # is its state after the block.
    states = np.empty((block + 1, n))
    states[0] = 0.0
    warm = states[0, 1:]
    for row in xs[block - warmup :, :-1]:  # lane j warms up on block j-1's tail
        np.add(warm, row, warm)
        np.multiply(warm, decay, warm)
    for row, state, following in zip(xs, states, states[1:]):
        np.add(state, row, following)
        np.multiply(following, decay, following)
    out = np.ascontiguousarray(states[:-1].T).reshape(-1)[:T]
    return out, states[0], states[-1]


def _decayed_prefix(x: np.ndarray, decay: float, lanes: tuple[int, int] | None) -> np.ndarray:
    """out[i] = sum over j < i of x[j] * decay**(i - j), accumulated in order."""
    if lanes is None:
        return _states(x.tolist(), decay, 0.0)[:-1]
    out, starts, ends = _speculate(x, decay, *lanes)
    missed = np.flatnonzero(starts[1:].view(np.uint64) != ends[:-1].view(np.uint64))
    if missed.size:
        lane = int(missed[0]) + 1  # every lane before it is exact
        lo = lane * lanes[1]
        out[lo:] = _states(x[lo:].tolist(), decay, float(ends[lane - 1]))[:-1]
    return out


def right_after_compose(cause, effect, kappa: float) -> np.ndarray:
    cause, effect, kappa = _as_f64(cause), _as_f64(effect), float(kappa)
    decay = math.exp(-kappa)
    lanes = _lane_shape(cause.shape[0], kappa)
    # Both prefixes are fresh arrays, so the products and their maximum are
    # written into them, operands in the order effect * before, cause * after.
    before = _decayed_prefix(cause, decay, lanes)
    after = _decayed_prefix(effect[::-1], decay, lanes)[::-1]
    np.multiply(effect, before, out=before)
    np.multiply(cause, after, out=after)
    return np.maximum(before, after, out=before)
