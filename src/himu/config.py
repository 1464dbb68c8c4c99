"""Engine configuration: every tunable in one validated, immutable object.

Defaults reproduce the reference operating point: sigmoid sharpness 3.0,
scale-guard 1e-6, adjacency decay 2.0, and per-expert smoothing bandwidths
of 0.5 for visual experts, 1.5 for speech, and 2.0 for audio events.
Overrides merge in two layers: a config file overrides the defaults, and
explicit flags override the file. Both layers go through ``config_from_obj``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import jsonio
from .compose import DEFAULT_KAPPA
from .errors import SchemaError
from .select import PassParams
from .signals import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_DELTA,
    DEFAULT_GAMMA,
    NormalizationParams,
    SmoothingParams,
)
from .tree import ALL_EXPERTS, DEFAULT_MAX_DEPTH, DEFAULT_MAX_LEAVES, ExpertKind


@dataclass(frozen=True)
class EngineConfig:
    """All knobs for one end-to-end selection run."""

    gamma: float = DEFAULT_GAMMA
    delta: float = DEFAULT_DELTA
    kappa: float = DEFAULT_KAPPA
    sigma_by_expert: dict[ExpertKind, float] = field(
        default_factory=lambda: dict(DEFAULT_BANDWIDTHS)
    )
    active_experts: frozenset[ExpertKind] = ALL_EXPERTS
    strict_schema: bool = True
    max_depth: int = DEFAULT_MAX_DEPTH
    max_leaves: int = DEFAULT_MAX_LEAVES
    max_peaks: int | None = None
    neighbors_per_peak: int | None = None
    window: int | None = None
    min_distance: int | None = None

    def __post_init__(self):
        # Delegate range checks to the owning parameter types.
        self.normalization_params()
        self.smoothing_params()
        self.pass_params(1)
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and > 0")
        if self.max_depth < 1 or self.max_leaves < 1:
            raise ValueError("max_depth and max_leaves must be >= 1")
        if not self.active_experts:
            raise ValueError("active expert set must be nonempty")
        object.__setattr__(self, "active_experts", frozenset(self.active_experts))

    def normalization_params(self) -> NormalizationParams:
        return NormalizationParams(gamma=self.gamma, delta=self.delta)

    def smoothing_params(self) -> SmoothingParams:
        return SmoothingParams(sigma_by_expert=dict(self.sigma_by_expert))

    def pass_params(self, budget: int) -> PassParams:
        return PassParams(
            budget=budget,
            max_peaks=self.max_peaks,
            neighbors_per_peak=self.neighbors_per_peak,
            window=self.window,
            min_distance=self.min_distance,
        )


def _expert(name) -> ExpertKind:
    try:
        return ExpertKind(name.upper())
    except (AttributeError, ValueError):
        raise SchemaError(f"unknown expert {name!r}") from None


SCALAR_KEYS = {
    "gamma": jsonio.number,
    "delta": jsonio.number,
    "kappa": jsonio.number,
    "strict_schema": jsonio.boolean,
    "max_depth": jsonio.integer,
    "max_leaves": jsonio.integer,
    "max_peaks": jsonio.integer,
    "neighbors_per_peak": jsonio.integer,
    "window": jsonio.integer,
    "min_distance": jsonio.integer,
}


def config_from_obj(obj: dict, base: EngineConfig | None = None) -> EngineConfig:
    """Apply a parsed config document on top of a base configuration.

    This is the one place where outside values (a config file, or the CLI
    flags as a document keyed the same way) become an ``EngineConfig``.
    Values are type-checked, never cast: a bool, a non-integral float or a
    string where a number belongs is a :class:`SchemaError`, and so is any
    value ``EngineConfig`` rejects.
    """
    if base is None:
        base = EngineConfig()
    jsonio.mapping(obj, SchemaError, "config document")
    updates: dict = {}
    for key, value in obj.items():
        what = f"config key {key!r}"
        if key in SCALAR_KEYS:
            updates[key] = SCALAR_KEYS[key](value, SchemaError, what)
        elif key == "sigma_by_expert":
            given: dict[ExpertKind, float] = {}
            for name, sigma in jsonio.mapping(value, SchemaError, what).items():
                expert = _expert(name)
                if expert in given:
                    raise SchemaError(f"bandwidth for {expert.value} is given twice")
                given[expert] = jsonio.number(sigma, SchemaError, f"bandwidth for {name!r}")
            updates["sigma_by_expert"] = {**base.sigma_by_expert, **given}
        elif key == "active_experts":
            names = jsonio.array(value, SchemaError, what)
            updates["active_experts"] = frozenset(_expert(name) for name in names)
        else:
            raise SchemaError(f"unknown config key {key!r}")
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_config(path, base: EngineConfig | None = None) -> EngineConfig:
    return config_from_obj(jsonio.load_json(path, SchemaError, "config file"), base)
