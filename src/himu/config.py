"""Engine configuration: every tunable in one validated, immutable object.

Defaults reproduce the reference operating point: sigmoid sharpness 3.0,
scale-guard 1e-6, adjacency decay 2.0, and per-expert smoothing bandwidths
of 0.5 for visual experts, 1.5 for speech, and 2.0 for audio events.
Overrides merge in two layers: a config file overrides the defaults, and
explicit flags override the file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .compose import DEFAULT_KAPPA
from .errors import SchemaError
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
    smoothing_mode: str = "renormalized"
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
        return SmoothingParams(
            sigma_by_expert=dict(self.sigma_by_expert), mode=self.smoothing_mode
        )

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """New config with the given fields replaced."""
        return replace(self, **kwargs)


_SCALAR_KEYS = {
    "gamma": float,
    "delta": float,
    "kappa": float,
    "smoothing_mode": str,
    "strict_schema": bool,
    "max_depth": int,
    "max_leaves": int,
    "max_peaks": int,
    "neighbors_per_peak": int,
    "window": int,
    "min_distance": int,
}


def config_from_obj(obj: dict, base: EngineConfig | None = None) -> EngineConfig:
    """Apply a parsed config document on top of a base configuration."""
    if base is None:
        base = EngineConfig()
    if not isinstance(obj, dict):
        raise SchemaError("config document must be a JSON object")
    updates: dict = {}
    for key, value in obj.items():
        if key in _SCALAR_KEYS:
            caster = _SCALAR_KEYS[key]
            if caster is bool:
                if not isinstance(value, bool):
                    raise SchemaError(f"config key {key!r} must be a boolean")
                updates[key] = value
            else:
                try:
                    updates[key] = caster(value)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"config key {key!r}: {exc}") from exc
        elif key == "sigma_by_expert":
            if not isinstance(value, dict):
                raise SchemaError("sigma_by_expert must be an object")
            sigmas = dict(base.sigma_by_expert)
            for name, sigma in value.items():
                try:
                    expert = ExpertKind(str(name).upper())
                except ValueError as exc:
                    raise SchemaError(f"unknown expert {name!r}") from exc
                try:
                    sigmas[expert] = float(sigma)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"bandwidth for {name!r}: {exc}") from exc
            updates["sigma_by_expert"] = sigmas
        elif key == "active_experts":
            if not isinstance(value, list):
                raise SchemaError("active_experts must be a list of expert names")
            experts = set()
            for name in value:
                try:
                    experts.add(ExpertKind(str(name).upper()))
                except ValueError as exc:
                    raise SchemaError(f"unknown expert {name!r}") from exc
            updates["active_experts"] = frozenset(experts)
        else:
            raise SchemaError(f"unknown config key {key!r}")
    try:
        return base.with_overrides(**updates)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def load_config(path, base: EngineConfig | None = None) -> EngineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config file is not valid JSON: {exc}") from exc
    return config_from_obj(obj, base)
