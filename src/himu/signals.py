"""Per-frame score series and the post-processing stack.

Raw expert scores live on incomparable scales (cosine similarities,
detection confidences, binary text matches). ``normalize_joint`` maps each
group of same-expert signals through a sigmoid of the median/MAD-centered
scores, with the statistics taken over the concatenation of the whole group
so relative magnitudes between leaves survive. ``smooth`` then convolves
each normalized signal with a per-expert Gaussian whose bandwidth matches
the modality's temporal resolution, so that e.g. speech peaks widen enough
to co-fire with frame-precise visual peaks under conjunction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    EmptyInputError,
    LengthMismatchError,
    MissingBandwidthError,
)
from .tree import ExpertKind


class Stage(enum.Enum):
    RAW = "raw"
    NORMALIZED = "normalized"
    SMOOTHED = "smoothed"


@dataclass(frozen=True)
class Signal:
    """A length-T score series tagged with its processing stage.

    ``values`` is an immutable float64 array. Normalized values lie in the
    open interval (0, 1) mathematically; float64 rounding can reach the
    endpoints exactly when the sigmoid saturates. Smoothed values lie in
    [0, 1].
    """

    values: np.ndarray
    stage: Stage = Stage.RAW
    source_leaf: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("signal must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.shape[0]


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

SMOOTHING_MODES = ("renormalized", "strict")


@dataclass(frozen=True)
class SmoothingParams:
    """Per-expert Gaussian bandwidths in frames; 0 disables smoothing.

    ``mode`` selects boundary handling: ``renormalized`` (default) truncates
    the kernel at radius ceil(4*sigma) and rescales the in-bounds weights to
    sum to 1 at every position so constant signals are preserved;
    ``strict`` applies the analytically normalized kernel with no boundary
    correction, which depresses boundary frames and is kept only for
    comparison. Strict truncates at radius ceil(38.61*sigma), past which
    every float64 weight is exactly 0, so it equals the sum over the whole
    timeline.
    """

    sigma_by_expert: dict[ExpertKind, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTHS)
    )
    mode: str = "renormalized"

    def __post_init__(self):
        if self.mode not in SMOOTHING_MODES:
            raise ValueError(f"mode must be one of {SMOOTHING_MODES}")
        for expert, sigma in self.sigma_by_expert.items():
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"bandwidth for {expert} must be finite and >= 0")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp() only ever sees non-positive arguments, so it cannot overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def normalize_joint(
    signals: list[Signal], params: NormalizationParams | None = None
) -> list[Signal]:
    """Sigmoid median/MAD normalization with group-joint statistics.

    All inputs must be Raw and share one length (they are expected to share
    one expert; that grouping is the caller's job). The median and MAD are
    computed over the concatenation of every input, then each value maps to
    sigmoid(gamma * (u - med) / (MAD + delta)). A fully constant group
    concatenation lands exactly on 0.5 everywhere.
    """
    if params is None:
        params = NormalizationParams()
    if not signals:
        raise EmptyInputError("normalize_joint requires at least one signal")
    length = len(signals[0])
    for s in signals:
        if s.stage is not Stage.RAW:
            raise ValueError(f"expected Raw signals, got {s.stage}")
        if len(s) != length:
            raise LengthMismatchError(
                f"signal lengths differ: {len(s)} vs {length}"
            )
    pooled = np.concatenate([s.values for s in signals])
    med = np.median(pooled)
    mad = np.median(np.abs(pooled - med))
    scale = params.gamma / (mad + params.delta)
    return [
        Signal(
            values=_sigmoid(scale * (s.values - med)),
            stage=Stage.NORMALIZED,
            source_leaf=s.source_leaf,
        )
        for s in signals
    ]


def smooth(
    signal: Signal, expert: ExpertKind, params: SmoothingParams | None = None
) -> Signal:
    """Gaussian-smooth one normalized signal with its expert's bandwidth.

    Bandwidth 0 returns the values unchanged (stage still advances to
    Smoothed). In strict mode the raw convolution can drift outside [0, 1]
    because the discrete analytic kernel does not sum to exactly 1; the
    result is clamped so downstream fuzzy composition stays bounded.
    """
    if params is None:
        params = SmoothingParams()
    if signal.stage is not Stage.NORMALIZED:
        raise ValueError(f"expected a Normalized signal, got {signal.stage}")
    try:
        sigma = params.sigma_by_expert[expert]
    except KeyError:
        raise MissingBandwidthError(f"no bandwidth configured for {expert}") from None
    if sigma == 0:
        values = signal.values
    elif params.mode == "renormalized":
        values = _kernels.smooth_renorm(signal.values, sigma)
    else:
        values = np.clip(_kernels.smooth_strict(signal.values, sigma), 0.0, 1.0)
    return Signal(values=values, stage=Stage.SMOOTHED, source_leaf=signal.source_leaf)
