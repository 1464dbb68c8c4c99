"""End-to-end selection: score leaves, condition their rows, compose, select.

The stages run in a fixed order on one (leaves x frames) array. Raw leaf
rows are produced per (expert, query) pair, normalized jointly per expert
so siblings share one scale, smoothed with the expert's bandwidth and
composed bottom-up into the satisfaction curve, once per question
(``satisfaction_curve``). Reducing the curve to a budgeted frame set
(``select_frames``) is the cheap last step, one per selector and budget.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compose import AttributionMatrix, SatisfactionCurve, _Fresh, evaluate
from .config import EngineConfig
from .experts.bundle import ExpertBundle, OvdSource
from .experts.scoring import ProviderCounters, evaluate_leaves
from .select import SelectionResult, pass_select, topk_select, uniform_select
from .signals import normalize_joint, smooth
from .tree import LogicTree, leaves_by_expert

STRATEGIES = ("pass", "topk", "uniform")


@dataclass(frozen=True)
class PipelineResult:
    """Everything one selection run produced."""

    curve: SatisfactionCurve
    attribution: AttributionMatrix
    selection: SelectionResult


def _condition_in_place(tree: LogicTree, rows: np.ndarray, config: EngineConfig) -> np.ndarray:
    """Normalize the raw (L, T) float64 leaf rows jointly per expert, then
    smooth each, writing each expert group's conditioned rows over its raw
    rows in ``rows``, which is returned (row i for leaf id i).

    Joint normalization pools the median and spread over all of one
    expert's rows so sibling queries stay comparable; smoothing then
    applies that expert's bandwidth to the whole group in one call. The
    groups do not overlap, so each is read before it is written.
    """
    norm_params = config.normalization_params()
    smooth_params = config.smoothing_params()
    for expert, leaf_ids in leaves_by_expert(tree).items():
        # One expression, so no group's temporaries outlive its assignment.
        rows[leaf_ids] = smooth(normalize_joint(rows[leaf_ids], norm_params),
                                expert, smooth_params)
    return rows


def select_frames(
    curve: SatisfactionCurve,
    budget: int,
    config: EngineConfig,
    strategy: str = "pass",
) -> SelectionResult:
    if strategy == "pass":
        return pass_select(curve, config.pass_params(budget))
    if strategy == "topk":
        return topk_select(curve, budget)
    if strategy == "uniform":
        return uniform_select(curve, budget)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def satisfaction_curve(
    tree: LogicTree,
    bundle: ExpertBundle,
    config: EngineConfig | None = None,
    ovd_source: OvdSource | None = None,
    counters: ProviderCounters | None = None,
) -> tuple[SatisfactionCurve, AttributionMatrix]:
    """Score, condition and compose a validated tree into its curve."""
    if config is None:
        config = EngineConfig()
    # evaluate_leaves stacks a new array, so its raw rows are conditioned in
    # place and it becomes the attribution matrix without a copy: one
    # (L, T) array where there were three.
    rows = _condition_in_place(tree, evaluate_leaves(tree, bundle, ovd_source, counters), config)
    return evaluate(tree, rows.view(_Fresh), kappa=config.kappa)


def run_pipeline(
    tree: LogicTree,
    bundle: ExpertBundle,
    budget: int,
    config: EngineConfig | None = None,
    ovd_source: OvdSource | None = None,
    counters: ProviderCounters | None = None,
    strategy: str = "pass",
) -> PipelineResult:
    """Full run: ``satisfaction_curve``, then ``select_frames``."""
    if config is None:
        config = EngineConfig()
    curve, attribution = satisfaction_curve(tree, bundle, config, ovd_source, counters)
    selection = select_frames(curve, budget, config, strategy)
    return PipelineResult(curve=curve, attribution=attribution, selection=selection)
