import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himu.config import EngineConfig, config_from_obj, load_config
from himu.errors import SchemaError
from himu.select import PassParams
from himu.signals import DEFAULT_BANDWIDTHS
from himu.tree import ALL_EXPERTS, ExpertKind


def test_defaults():
    cfg = EngineConfig()
    assert cfg.gamma == 3.0
    assert cfg.delta == 1e-6
    assert cfg.kappa == 2.0
    assert cfg.sigma_by_expert == DEFAULT_BANDWIDTHS
    assert cfg.active_experts == frozenset(ALL_EXPERTS)
    assert cfg.strict_schema is True


def test_with_overrides_returns_new_config():
    base = EngineConfig()
    changed = replace(base, gamma=5.0, kappa=0.5)
    assert changed.gamma == 5.0 and changed.kappa == 0.5
    assert base.gamma == 3.0
    assert changed.sigma_by_expert == base.sigma_by_expert


def test_validation_rejects_bad_values():
    inf, nan = float("inf"), float("nan")
    bad = [
        {"gamma": 0.0}, {"gamma": inf}, {"gamma": nan},
        {"delta": -1.0}, {"delta": inf}, {"delta": nan},
        {"kappa": 0.0}, {"kappa": inf}, {"kappa": nan},
        {"sigma_by_expert": {ExpertKind.CLIP: -0.5}},
        {"sigma_by_expert": {ExpertKind.CLIP: inf}},
        {"sigma_by_expert": {ExpertKind.CLIP: nan}},
        {"max_peaks": 0}, {"neighbors_per_peak": -1},
        {"window": 0}, {"min_distance": 0},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)


def test_config_from_obj_merges_over_base():
    cfg = config_from_obj(
        {
            "gamma": 4.0,
            "sigma_by_expert": {"asr": 2.5},
            "active_experts": ["clip", "ASR"],
            "max_peaks": 6,
        }
    )
    assert cfg.gamma == 4.0
    assert cfg.sigma_by_expert[ExpertKind.ASR] == 2.5
    assert cfg.sigma_by_expert[ExpertKind.CLIP] == DEFAULT_BANDWIDTHS[ExpertKind.CLIP]
    assert cfg.active_experts == frozenset({ExpertKind.CLIP, ExpertKind.ASR})
    assert cfg.max_peaks == 6
    assert cfg.delta == 1e-6


def test_config_from_obj_rejects_unknowns_and_bad_types():
    for doc in ({"gama": 4.0}, {"smoothing_mode": "renormalized"}):
        with pytest.raises(SchemaError, match="unknown config key"):
            config_from_obj(doc)
    with pytest.raises(SchemaError):
        config_from_obj({"gamma": "strong"})
    with pytest.raises(SchemaError):
        config_from_obj({"active_experts": ["clip", "radar"]})
    with pytest.raises(SchemaError):
        config_from_obj({"sigma_by_expert": {"radar": 1.0}})
    for sigma in ("wide", None, float("inf"), True):
        with pytest.raises(SchemaError):
            config_from_obj({"sigma_by_expert": {"clip": sigma}})
    with pytest.raises(SchemaError, match="bandwidth for CLIP is given twice"):
        config_from_obj({"sigma_by_expert": {"clip": 1, "CLIP": 2}})
    with pytest.raises(SchemaError):
        config_from_obj(["gamma", 4.0])
    # Values are checked, not cast.
    for doc in (
        {"max_peaks": 2.7}, {"max_peaks": 2.0}, {"gamma": True}, {"window": "5"},
        {"max_depth": float("inf")}, {"strict_schema": 1}, {"strict_schema": None},
        {"gamma": 10**400}, {"active_experts": [1]},
    ):
        with pytest.raises(SchemaError):
            config_from_obj(doc)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # includes non-integral, +-inf and nan
    st.text(max_size=8),
    st.sampled_from(["CLIP", "asr"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)
SIGMA_DOCS = st.dictionaries(
    st.sampled_from(["clip", "ASR", "ocr", "radar", ""]), JSON_VALUES, max_size=3
)
KNOWN_KEYS = [
    "gamma", "delta", "kappa", "strict_schema", "max_depth",
    "max_leaves", "max_peaks", "neighbors_per_peak", "window", "min_distance",
    "sigma_by_expert", "active_experts",
]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(KNOWN_KEYS), JSON_VALUES | SIGMA_DOCS | st.lists(JSON_SCALARS),
        max_size=4,
    )
)
def test_config_from_obj_returns_config_or_schema_error(doc):
    try:
        cfg = config_from_obj(doc)
    except SchemaError:
        return
    assert isinstance(cfg, EngineConfig)


def test_load_config(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps({"kappa": 1.25, "max_peaks": 6}))
    cfg = load_config(path)
    assert cfg.kappa == 1.25
    assert cfg.max_peaks == 6
    base = EngineConfig(gamma=9.0)
    assert load_config(path, base=base).gamma == 9.0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_config(bad)


def test_param_helpers_mirror_fields():
    sigmas = {**DEFAULT_BANDWIDTHS, ExpertKind.ASR: 3.0}
    cfg = EngineConfig(gamma=4.5, delta=1e-5, sigma_by_expert=sigmas)
    norm = cfg.normalization_params()
    assert norm.gamma == 4.5 and norm.delta == 1e-5
    assert cfg.smoothing_params().sigma_by_expert == sigmas
    assert EngineConfig().pass_params(16) == PassParams(budget=16)
    tuned = EngineConfig(max_peaks=7, window=2).pass_params(16)
    assert tuned == PassParams(budget=16, max_peaks=7, window=2)
