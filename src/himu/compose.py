"""Bottom-up fuzzy-logic evaluation of a tree over processed leaf rows.

Leaves return their smoothed score rows; internal nodes combine children
with continuous operators: product t-norm (AND), probabilistic sum (OR),
chronological sequencing (SEQ), and exponential-decay adjacency
(RIGHT_AFTER). The root yields the satisfaction curve, one [0, 1] score per
frame, together with the per-leaf attribution matrix that explains it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels
from .errors import ArityError, LengthMismatchError
from .tree import LogicTree, OperatorKind

DEFAULT_KAPPA = 2.0


@dataclass(frozen=True)
class SatisfactionCurve:
    """Root output: per-frame satisfaction scores, all finite in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("curve must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("curve values must lie in [0, 1]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.shape[0]


class _Fresh(np.ndarray):
    """An (L, T) float64 array that the pipeline built and nothing else
    holds: an attribution matrix takes it as it is, read-only, instead of
    copying it."""


@dataclass(frozen=True)
class AttributionMatrix:
    """Per-leaf processed scores: row = leaf id, column = frame index.

    Rows are bit-identical to the smoothed leaf rows that entered the
    composition, so any selected frame can be explained by reading its
    column. An array a caller passes in is copied, so the matrix never
    shares memory with it; the pipeline's ``_Fresh`` rows are not.
    """

    values: np.ndarray  # shape (L, T)

    def __post_init__(self):
        fresh = type(self.values) is _Fresh
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("attribution matrix must be 2-D")
        if not fresh:
            values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def restrict(self, frames) -> np.ndarray:
        """Columns for the selected frames, in the order given."""
        return self.values[:, np.asarray(frames, dtype=np.intp)]


def _as_curves(children, minimum, op_name):
    if len(children) < minimum:
        raise ArityError(f"{op_name} requires at least {minimum} children, got {len(children)}")
    curves = [np.asarray(c, dtype=np.float64) for c in children]
    length = curves[0].shape[0]
    for c in curves:
        if c.shape != (length,):
            raise LengthMismatchError(
                f"{op_name} children must share one length, got {c.shape[0]} vs {length}"
            )
    return curves


def op_and(children) -> np.ndarray:
    """Product t-norm, applied pairwise left-to-right."""
    return reduce(np.multiply, _as_curves(children, 2, "AND"))


def op_or(children) -> np.ndarray:
    """Probabilistic sum A + B - A*B, applied pairwise left-to-right."""
    return reduce(lambda a, b: a + b - a * b, _as_curves(children, 2, "OR"))


def op_seq(children) -> np.ndarray:
    """Chronological sequence over children ordered earliest first.

    A step contributes at frame t only when every earlier step has already
    peaked strictly before t and every later step still peaks strictly
    after t; the outer max lets each step surface its own peak.
    """
    return _kernels.seq_compose(_as_curves(children, 2, "SEQ"))


def op_right_after(cause, effect, kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Tight temporal adjacency of a cause/effect pair.

    Effect frames are weighted by how recently the cause fired and cause
    frames by how soon the effect follows, both decaying as exp(-kappa *
    gap). The weighted sums can exceed 1 when the partner signal is broadly
    active, so the result is clamped to [0, 1] to keep composition bounded.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and > 0")
    cause, effect = _as_curves([cause, effect], 2, "RIGHT_AFTER")
    paired = _kernels.right_after_compose(cause, effect, kappa)
    return np.clip(paired, 0.0, 1.0, out=paired)


def evaluate(
    tree: LogicTree,
    leaf_rows: np.ndarray,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[SatisfactionCurve, AttributionMatrix]:
    """Evaluate the whole tree bottom-up over its smoothed leaf rows.

    ``leaf_rows`` is an (L, T) array whose row i is leaf id i's smoothed
    scores. It becomes the attribution matrix (a read-only copy, or the
    pipeline's ``_Fresh`` rows themselves), and each leaf reads its row
    from that matrix.
    """
    attribution = AttributionMatrix(leaf_rows)
    rows = attribution.values
    if rows.shape[0] != tree.num_leaves:
        raise LengthMismatchError(
            f"tree has {tree.num_leaves} leaves, got {rows.shape[0]} leaf rows"
        )

    def rec(node):
        if node.is_leaf:
            return rows[node.leaf_id]
        kids = [rec(c) for c in node.children]
        if node.op is OperatorKind.AND:
            return op_and(kids)
        if node.op is OperatorKind.OR:
            return op_or(kids)
        if node.op is OperatorKind.SEQ:
            return op_seq(kids)
        return op_right_after(kids[0], kids[1], kappa)

    return SatisfactionCurve(rec(tree.root)), attribution
