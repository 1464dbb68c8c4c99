import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himu.select import (
    PassParams,
    SelectionPhase,
    find_peaks,
    pass_select,
    topk_select,
    uniform_select,
)
from oracles import pass_reference, topk_reference

RNG = np.random.default_rng(31)


def test_params_derived_from_budget():
    p = PassParams(budget=16)
    assert (p.max_peaks, p.neighbors_per_peak, p.window, p.min_distance) == (4, 2, 4, 4)
    p = PassParams(budget=32)
    assert (p.max_peaks, p.neighbors_per_peak, p.window, p.min_distance) == (5, 2, 5, 5)
    p = PassParams(budget=1)
    assert (p.max_peaks, p.neighbors_per_peak, p.window, p.min_distance) == (1, 0, 1, 1)


def test_params_overrides_and_validation():
    p = PassParams(budget=16, max_peaks=7, window=2)
    assert (p.max_peaks, p.neighbors_per_peak, p.window, p.min_distance) == (7, 2, 2, 4)
    with pytest.raises(ValueError):
        PassParams(budget=0)
    with pytest.raises(ValueError):
        PassParams(budget=8, min_distance=0)
    with pytest.raises(ValueError):
        PassParams(budget=8, neighbors_per_peak=-1)


def test_find_peaks_two_bumps():
    curve = np.zeros(50)
    curve[8:13] = [0.3, 0.6, 0.9, 0.6, 0.3]
    curve[38:43] = [0.2, 0.5, 0.8, 0.5, 0.2]
    assert find_peaks(curve, max_peaks=4, min_distance=4) == [10, 40]


def test_find_peaks_monotone_has_none():
    assert find_peaks(np.linspace(0.0, 1.0, 20), 4, 4) == []
    assert find_peaks(np.linspace(1.0, 0.0, 20), 4, 4) == []
    assert find_peaks(np.full(20, 0.4), 4, 4) == []


def test_find_peaks_min_distance_keeps_higher():
    curve = np.zeros(20)
    curve[5] = 0.9
    curve[8] = 0.8  # 3 apart, suppressed when min_distance=4
    assert find_peaks(curve, 4, 4) == [5]
    assert find_peaks(curve, 4, 3) == [5, 8]


def test_find_peaks_excludes_endpoints_and_plateaus():
    curve = np.zeros(12)
    curve[0] = 1.0
    curve[11] = 1.0
    curve[5] = 0.5
    curve[6] = 0.5  # plateau, not a strict maximum
    assert find_peaks(curve, 8, 1) == []
    bump = np.zeros(12)
    bump[4:7] = [0.2, 0.7, 0.2]
    assert find_peaks(bump, 8, 1) == [5]


def test_find_peaks_orders_by_height():
    curve = np.zeros(30)
    curve[5] = 0.4
    curve[15] = 0.9
    curve[25] = 0.6
    assert find_peaks(curve, 2, 2) == [15, 25]


def test_pass_flat_curve_falls_back_to_fill():
    res = pass_select(np.full(40, 0.3), PassParams(budget=8))
    assert res.frames == tuple(range(8))
    assert res.peaks == ()
    assert all(p is SelectionPhase.FILL for p in res.phase.values())


def test_pass_budget_exceeds_timeline():
    res = pass_select(np.array([0.1, 0.9, 0.2]), PassParams(budget=16))
    assert res.frames == (0, 1, 2)


def test_pass_phase_labels_on_simple_bump():
    curve = np.zeros(30)
    curve[9:14] = [0.3, 0.6, 0.9, 0.6, 0.3]
    res = pass_select(curve, PassParams(budget=6, max_peaks=2, neighbors_per_peak=2,
                                        window=4, min_distance=4))
    assert res.peaks == (11,)
    assert res.phase[11] is SelectionPhase.PEAK
    assert res.phase[10] is SelectionPhase.NEIGHBOR
    assert res.phase[12] is SelectionPhase.NEIGHBOR
    fills = [f for f, p in res.phase.items() if p is SelectionPhase.FILL]
    assert len(fills) == 3
    assert len(res.frames) == 6
    assert res.strategy == "pass"


def _oracle_draws():
    # continuous curves (no ties) with the knobs derived from the budget
    for _ in range(300):
        curve = RNG.random(int(RNG.integers(1, 120)))
        yield curve, PassParams(budget=int(RNG.choice([1, 2, 4, 8, 16, 32])))
    # small-integer curves, full of ties and plateaus, with drawn knobs and
    # budgets both below and above the number of peaks kept
    for _ in range(600):
        curve = RNG.integers(0, int(RNG.integers(2, 9)), int(RNG.integers(1, 120)))
        max_peaks = int(RNG.integers(1, 7))
        budget = int(RNG.integers(1, max_peaks + 1)) if RNG.random() < 0.3 else int(
            RNG.integers(1, 41))
        yield curve.astype(np.float64), PassParams(
            budget=budget,
            max_peaks=max_peaks,
            neighbors_per_peak=int(RNG.integers(0, 5)),
            window=int(RNG.integers(1, 10)),
            min_distance=int(RNG.integers(1, 9)),
        )


def test_pass_matches_reference_oracle():
    for curve, params in _oracle_draws():
        res = pass_select(curve, params)
        frames, phase, peaks = pass_reference(
            curve, params.budget, params.max_peaks, params.neighbors_per_peak,
            params.window, params.min_distance,
        )
        assert list(res.frames) == frames
        assert [p.value for _, p in sorted(res.phase.items())] == [
            phase[f] for f in frames
        ]
        assert list(res.peaks) == peaks


def test_pass_selection_invariants_random():
    for _ in range(100):
        T = int(RNG.integers(1, 200))
        curve = RNG.random(T)
        budget = int(RNG.choice([4, 8, 16]))
        res = pass_select(curve, PassParams(budget=budget))
        assert len(res.frames) == min(budget, T)
        assert len(set(res.frames)) == len(res.frames)
        assert list(res.frames) == sorted(res.frames)
        assert set(res.phase) == set(res.frames)
        assert all(0 <= f < T for f in res.frames)
        np.testing.assert_array_equal(res.scores, curve[list(res.frames)])


def test_topk_tie_break_prefers_earlier_frame():
    res = topk_select(np.array([0.1, 0.9, 0.5, 0.9]), budget=2)
    assert res.frames == (1, 3)
    assert all(p is SelectionPhase.FILL for p in res.phase.values())
    assert res.strategy == "topk"


def test_topk_matches_reference():
    for _ in range(200):
        T = int(RNG.integers(1, 150))
        curve = np.round(RNG.random(T), 2)  # coarse grid forces ties
        budget = int(RNG.integers(1, 20))
        res = topk_select(curve, budget)
        assert list(res.frames) == topk_reference(curve, budget)


def test_uniform_spacing():
    res = uniform_select(np.zeros(10), 2)
    assert res.frames == (0, 9)
    res = uniform_select(np.zeros(600), 16)
    assert res.frames[0] == 0 and res.frames[-1] == 599
    assert len(res.frames) == 16
    gaps = np.diff(res.frames)
    assert gaps.max() - gaps.min() <= 1
    assert res.strategy == "uniform"
    res = uniform_select(np.ones(5), 3)
    assert res.frames == (0, 2, 4)
    assert res.scores == (1.0, 1.0, 1.0)


def test_uniform_single_frame_budget():
    assert uniform_select(np.zeros(100), 1).frames == (0,)


def test_uniform_handles_collisions():
    res = uniform_select(np.zeros(5), 5)
    assert res.frames == (0, 1, 2, 3, 4)
    res = uniform_select(np.zeros(3), 16)
    assert res.frames == (0, 1, 2)


def test_uniform_rounds_ideal_positions_to_distinct_frames():
    # Ideal positions are at least one frame apart, so rounding them (half
    # to even) never collides: every budget gets min(budget, T) frames.
    for T in range(1, 301):
        for budget in range(1, T + 3):
            k = min(budget, T)
            if k == 1:
                expected = [0]
            else:
                expected = np.round(np.arange(k) * (T - 1) / (k - 1)).astype(int).tolist()
            frames = uniform_select(np.zeros(T), budget).frames
            assert list(frames) == expected
            assert len(set(frames)) == k


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=40),
)
def test_pass_property_budget_and_order(values, budget):
    curve = np.array(values)
    res = pass_select(curve, PassParams(budget=budget))
    assert len(res.frames) == min(budget, len(curve))
    assert list(res.frames) == sorted(set(res.frames))
    assert set(res.phase) == set(res.frames)
    for peak in res.peaks:
        assert res.phase[peak] is SelectionPhase.PEAK


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_selectors_reject_non_finite_curves(bad):
    curve = np.array([0.1, 0.2, 0.3, 0.9, 0.2, 0.4, 0.05])
    curve[5] = bad
    with pytest.raises(ValueError, match="finite"):
        pass_select(curve, PassParams(budget=3))
    with pytest.raises(ValueError, match="finite"):
        topk_select(curve, 3)
    with pytest.raises(ValueError, match="finite"):
        uniform_select(curve, 3)
    with pytest.raises(ValueError, match="finite"):
        find_peaks(curve, 2, 1)


def _stable_prefix(curve, excluded, n):
    """The first n frames of a stable descending sort, skipping ``excluded``."""
    order = np.argsort(-curve, kind="stable")
    return [int(t) for t in order if int(t) not in excluded][:n]


# few distinct levels, so most frames tie; -0.0 ties with 0.0
_TIED_CURVES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5 + 2**-53, 1.0]), min_size=1, max_size=150
)


@settings(max_examples=300, deadline=None)
@given(_TIED_CURVES, st.integers(min_value=1, max_value=160))
def test_fill_and_topk_equal_stable_sort_prefix(values, budget):
    curve = np.array(values)
    k = min(budget, len(values))
    top = topk_select(curve, budget)
    assert list(top.frames) == sorted(_stable_prefix(curve, set(), k))

    res = pass_select(curve, PassParams(budget=budget))
    fills = {t for t, p in res.phase.items() if p is SelectionPhase.FILL}
    earlier = set(res.frames) - fills
    assert fills == set(_stable_prefix(curve, earlier, k - len(earlier)))

