"""Budgeted frame selection over a satisfaction curve.

The main strategy is peak-and-spread: pick well-separated strict local
maxima first, surround each with its best nearby frames for context, then
fill the remaining budget with the highest-scoring frames left anywhere.
Each selected frame is labeled with the phase that chose it. Top-K and
uniform spacing are provided as baselines. All strategies are
deterministic and return sorted, duplicate-free frame lists.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .compose import SatisfactionCurve


class SelectionPhase(enum.Enum):
    PEAK = "peak"
    NEIGHBOR = "neighbor"
    FILL = "fill"


@dataclass(frozen=True)
class PassParams:
    """Knobs for peak-and-spread selection.

    Every knob defaults from the budget K: max_peaks = floor(sqrt(K)),
    neighbors_per_peak = floor(sqrt(K)) // 2, window = floor(sqrt(K)), and
    min_distance = floor(sqrt(K)). For K = 16 that gives (4, 2, 4, 4).
    """

    budget: int
    max_peaks: int | None = None
    neighbors_per_peak: int | None = None
    window: int | None = None
    min_distance: int | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        root = max(math.isqrt(self.budget), 1)
        if self.max_peaks is None:
            object.__setattr__(self, "max_peaks", root)
        if self.neighbors_per_peak is None:
            object.__setattr__(self, "neighbors_per_peak", root // 2)
        if self.window is None:
            object.__setattr__(self, "window", root)
        if self.min_distance is None:
            object.__setattr__(self, "min_distance", root)
        if self.max_peaks < 1:
            raise ValueError("max_peaks must be >= 1")
        if self.neighbors_per_peak < 0:
            raise ValueError("neighbors_per_peak must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_distance < 1:
            raise ValueError("min_distance must be >= 1")


@dataclass(frozen=True)
class SelectionResult:
    """Selected frames plus the evidence used to pick them."""

    frames: tuple[int, ...]
    scores: tuple[float, ...]
    phase: dict[int, SelectionPhase]
    peaks: tuple[int, ...]
    strategy: str

    def __post_init__(self):
        if len(self.frames) != len(self.scores):
            raise ValueError("frames and scores must align")
        if list(self.frames) != sorted(set(self.frames)):
            raise ValueError("frames must be strictly increasing and unique")
        if set(self.phase) != set(self.frames):
            raise ValueError("phase labels must cover exactly the selected frames")


def _check_curve(curve) -> np.ndarray:
    if isinstance(curve, SatisfactionCurve):
        return curve.values
    values = np.asarray(curve, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 1:
        raise ValueError("curve must be a nonempty 1-D array")
    if not np.isfinite(values).all():
        raise ValueError("curve values must be finite")
    return values


def _best(values: np.ndarray, frames: np.ndarray, k: int) -> np.ndarray:
    """The k best of ``frames`` (ascending indices), best first, ties to the
    lower index: the first k of a stable descending sort, found without
    sorting them all; none if k <= 0. Values must be finite (no NaN to order)."""
    if k <= 0:
        return frames[:0]
    scores = values[frames]
    if k < scores.shape[0]:
        # the k-th largest score; keep every frame above it, then as many
        # frames tied with it as are still needed, lowest index first
        kth = np.partition(scores, scores.shape[0] - k)[scores.shape[0] - k]
        above = scores > kth
        tied = np.flatnonzero(scores == kth)[: k - int(above.sum())]
        above[tied] = True
        frames, scores = frames[above], scores[above]
    return frames[np.argsort(-scores, kind="stable")]


def find_peaks(curve, max_peaks: int, min_distance: int) -> list[int]:
    """At most max_peaks strict local maxima, pairwise >= min_distance apart.

    A frame qualifies only when it strictly exceeds both neighbors, so
    endpoints and plateau members never qualify. Candidates are visited in
    descending score order (ties to the lower index) and kept only when far
    enough from every peak already kept; fewer than max_peaks may exist.
    """
    values = _check_curve(curve)
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    if min_distance < 1:
        raise ValueError("min_distance must be >= 1")
    interior = np.flatnonzero(
        (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    ) + 1
    # Strict maxima are at least 2 frames apart, so each kept peak rules out
    # at most min_distance - 1 other candidates: the walk keeps its last peak
    # within the best max_peaks * min_distance candidates.
    kept: list[int] = []
    for t in _best(values, interior, max_peaks * min_distance).tolist():
        if len(kept) == max_peaks:
            break
        if all(abs(t - p) >= min_distance for p in kept):
            kept.append(t)
    return kept


def _result(values, phase, peaks, strategy):
    frames = tuple(sorted(phase))
    return SelectionResult(
        frames=frames,
        scores=tuple(float(values[t]) for t in frames),
        phase=phase,
        peaks=tuple(peaks),
        strategy=strategy,
    )


def pass_select(curve, params: PassParams) -> SelectionResult:
    """Peak-and-spread selection of min(budget, T) frames.

    Phase 1 keeps the first ``budget`` separated peaks. Phase 2 adds each
    kept peak's best untaken frames within window // 2, at most
    neighbors_per_peak and the budget left. Phase 3 fills the rest with the
    globally best untaken frames. Every phase ranks through ``_best``. A
    budget beyond the timeline returns every frame.
    """
    values = _check_curve(curve)
    T = values.shape[0]
    budget = min(params.budget, T)

    peaks = find_peaks(values, params.max_peaks, params.min_distance)[:budget]
    phase = dict.fromkeys(peaks, SelectionPhase.PEAK)
    taken = np.zeros(T, dtype=bool)
    taken[peaks] = True

    half = params.window // 2
    for p in peaks:
        window = np.arange(max(0, p - half), min(T, p + half + 1))
        k = min(params.neighbors_per_peak, budget - len(phase))
        chosen = _best(values, window[~taken[window]], k)
        taken[chosen] = True
        phase.update(dict.fromkeys(chosen.tolist(), SelectionPhase.NEIGHBOR))

    fill = _best(values, np.flatnonzero(~taken), budget - len(phase))
    phase.update(dict.fromkeys(fill.tolist(), SelectionPhase.FILL))
    return _result(values, phase, peaks, "pass")


def topk_select(curve, budget: int) -> SelectionResult:
    """The budget's highest-scoring frames, ties broken by lower index."""
    values = _check_curve(curve)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    k = min(budget, values.shape[0])
    selected = _best(values, np.arange(values.shape[0]), k).tolist()
    return _result(values, dict.fromkeys(selected, SelectionPhase.FILL), [], "topk")


def uniform_select(curve, budget: int) -> SelectionResult:
    """Evenly spaced frames; the curve supplies only the reported scores.

    With k = min(budget, T) frames, frame i is round(i * (T - 1) / (k - 1)),
    rounding half to even; a single-frame budget takes frame 0. Positions
    before rounding are at least 1 apart, and more than 1 apart when k < T,
    so they round to exactly k distinct frames.
    """
    values = _check_curve(curve)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    T = values.shape[0]
    k = min(budget, T)
    if k == 1:
        chosen = [0]
    else:
        chosen = np.round(np.arange(k) * (T - 1) / (k - 1)).astype(int).tolist()
    return _result(values, dict.fromkeys(chosen, SelectionPhase.FILL), [], "uniform")
