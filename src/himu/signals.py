"""Per-frame leaf score rows and the post-processing stack.

Leaf scores are plain float64 arrays: one row of T per-frame scores per
leaf, and a tree's rows stack into an (L, T) array whose row i belongs to
leaf id i. Raw expert scores live on incomparable scales (cosine
similarities, detection confidences, binary text matches).
``normalize_joint`` maps the rows of one expert group through a sigmoid of
the median/MAD-centered scores, with the statistics taken over the whole
group so relative magnitudes between leaves survive. ``smooth`` then
convolves each row of the group with a per-expert Gaussian whose bandwidth
matches the modality's temporal resolution, so that e.g. speech peaks widen
enough to co-fire with frame-precise visual peaks under conjunction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    EmptyInputError,
    LengthMismatchError,
    MissingBandwidthError,
    RowShapeError,
)
from .tree import ExpertKind


DEFAULT_GAMMA = 3.0
DEFAULT_DELTA = 1e-6


@dataclass(frozen=True)
class NormalizationParams:
    gamma: float = DEFAULT_GAMMA
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and > 0")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and > 0")


DEFAULT_BANDWIDTHS = {
    ExpertKind.CLIP: 0.5,
    ExpertKind.OVD: 0.5,
    ExpertKind.OCR: 0.5,
    ExpertKind.ASR: 1.5,
    ExpertKind.CLAP: 2.0,
}


@dataclass(frozen=True)
class SmoothingParams:
    """Per-expert Gaussian bandwidths in frames; 0 disables smoothing.

    The kernel is truncated at radius ceil(4*sigma) and its in-bounds
    weights are rescaled to sum to 1 at every position, so constant signals
    keep their value up to the timeline's edges.
    """

    sigma_by_expert: dict[ExpertKind, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTHS)
    )

    def __post_init__(self):
        for expert, sigma in self.sigma_by_expert.items():
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"bandwidth for {expert} must be finite and >= 0")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of ``x``, computed in place: ``x`` is overwritten."""
    # exp() only ever sees non-positive arguments, so it cannot overflow;
    # 1/(1+e) for x >= 0 and e/(1+e) below, as one division over all values.
    # The numerator is max(e, x >= 0): the mask promotes to 0.0/1.0 and
    # 0 <= e <= 1, so 1.0 wins where x >= 0, e stays below, and a NaN stays
    # NaN. It is one pass and allocates nothing the size of the group; on a
    # (4, 108000) group of mixed signs it takes 0.4 ms, where a masked store
    # (np.copyto with where=) takes 4-6 ms and the whole np.exp 0.5 ms
    # (shared 2-vCPU VM, numpy 2.4).
    positive = x >= 0
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    denominator = np.add(1.0, e)
    np.maximum(e, positive, out=e)
    return np.divide(e, denominator, out=e)


def _kth_deviation(s: np.ndarray, med: float, split: int, k: int) -> float:
    """The k-th smallest (from 0) of |s - med| over sorted ``s``.

    The deviations form two ascending runs, med - s[split-1], med -
    s[split-2], ... and s[split] - med, s[split+1] - med, ...: rounding is
    monotone and fl(med - x) == -fl(x - med). A binary search over how many
    of the k+1 smallest come from the first run finds the k-th without
    building either run (Frederickson & Johnson 1982).
    """
    left, right = split, s.shape[0] - split
    lo, hi = max(0, k + 1 - right), min(k + 1, left)
    while lo < hi:  # the first i where left run[i] >= right run[k - i]
        i = (lo + hi) // 2
        if med - s[split - 1 - i] < s[split + k - i] - med:
            lo = i + 1
        else:
            hi = i
    candidates = []
    if lo > 0:
        candidates.append(med - s[split - lo])
    if lo <= k:
        candidates.append(s[split + k - lo] - med)
    return abs(max(candidates))


def _median_and_mad(s: np.ndarray) -> tuple[float, float]:
    """np.median of sorted ``s`` and of its absolute deviations from it.

    As np.median does, an even count takes the mean (a + b) / 2 of the two
    middle values, and a NaN among the values makes the median NaN. Both
    equal np.median's bit for bit when the median is finite; otherwise
    every value minus the median is NaN or infinite, and every normalized
    value is NaN whatever the MAD.
    """
    n = s.shape[0]
    h = n // 2
    if np.isnan(s[-1]):  # np.sort puts NaN last
        return math.nan, math.nan
    med = float(s[h]) if n % 2 else (float(s[h - 1]) + float(s[h])) / 2
    split = int(np.searchsorted(s, med))
    if n % 2:
        return med, _kth_deviation(s, med, split, h)
    return med, (_kth_deviation(s, med, split, h - 1) + _kth_deviation(s, med, split, h)) / 2


def normalize_joint(rows, params: NormalizationParams | None = None) -> np.ndarray:
    """Sigmoid median/MAD normalization with group-joint statistics.

    ``rows`` are one expert group's raw rows (a list of equal-length 1-D
    arrays, or an (n, T) array); grouping by expert is the caller's job.
    The median and MAD are taken over every value of the group, from one
    sort of the group: they equal np.median's bit for bit. Each value then
    maps to sigmoid(gamma * (u - med) / (MAD + delta)), returned as an
    (n, T) array. A fully constant group lands exactly on 0.5 everywhere.
    Values lie in the open interval (0, 1) mathematically; float64 rounding
    can reach the endpoints when the sigmoid saturates. When the scale
    gamma / (MAD + delta) overflows, each value takes the sigmoid's limit:
    1 above the median, 0.5 at it and 0 below it.
    """
    if params is None:
        params = NormalizationParams()
    if len(rows) == 0:
        raise EmptyInputError("normalize_joint requires at least one row")
    if any(np.ndim(row) != 1 for row in rows):
        raise RowShapeError("rows must be 2-D: a list of 1-D rows or an (n, T) array")
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise LengthMismatchError(f"row lengths differ: {lengths}")
    group = np.asarray(rows, dtype=np.float64)
    if group.size == 0:  # rows of no frames: nothing to normalize
        return np.empty_like(group)
    med, mad = _median_and_mad(np.sort(group, axis=None))
    # Extreme values, or a huge gamma over a small MAD, overflow the
    # centered values, the scale or the scaled values to inf. The sigmoid of
    # +-inf is exact, but 0 * inf is NaN, so an infinite scale takes the
    # sigmoid's limit instead: 1 above the median, 0.5 at it, 0 below it.
    with np.errstate(over="ignore"):
        centered = np.subtract(group, med)
        scale = params.gamma / (mad + params.delta)
        if scale == math.inf:
            limit = np.sign(centered, out=centered)
            return np.add(np.multiply(limit, 0.5, out=limit), 0.5, out=limit)
        return _sigmoid(np.multiply(centered, scale, out=centered))


def smooth(
    values: np.ndarray, expert: ExpertKind, params: SmoothingParams | None = None
) -> np.ndarray:
    """Gaussian-smooth a normalized row, or each row of an (n, T) group, with
    the expert's bandwidth, computing the renormalizing sums once per call.

    Bandwidth 0 returns the values unchanged.
    """
    if params is None:
        params = SmoothingParams()
    try:
        sigma = params.sigma_by_expert[expert]
    except KeyError:
        raise MissingBandwidthError(f"no bandwidth configured for {expert}") from None
    if sigma == 0:
        return values
    return _kernels.smooth_renorm(values, sigma)
