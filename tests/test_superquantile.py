"""Core tail-statistics tests: quantiles, superquantiles, smoothing."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfed import (
    WeightedValues,
    plus_objective,
    smoothed_device_coefficients,
    smoothed_eta_minimizers,
    smoothed_eta_star,
    smoothed_objective,
    smoothed_objective_slope,
    smoothed_plus,
    smoothed_plus_derivative,
    superquantile,
    weighted_quantile,
)
from tailfed.superquantile import _stable_order, check_conformity, check_smoothing

from oracles import (
    grid_eta_minimum,
    max_reweighted_mean,
    plus_objective_naive,
    quantile_naive,
    smoothed_eta_minimizers_naive,
    smoothed_objective_naive,
    smoothed_slope_naive,
    tail_average_naive,
)


def random_instance(rng, n=None, scale=None):
    n = n or int(rng.integers(1, 9))
    scale = scale or float(rng.uniform(0.5, 20.0))
    values = rng.normal(size=n) * scale
    weights = rng.uniform(0.1, 1.0, size=n)
    return WeightedValues(values, weights / weights.sum())


# ---------------------------------------------------------------------------
# input validation


def test_conformity_level_bounds():
    assert check_conformity(1.0) == 1.0
    assert check_conformity(0.05) == 0.05
    for bad in (0.0, -0.2, 1.2, float("nan")):
        with pytest.raises(ValueError):
            check_conformity(bad)


def test_smoothing_param_positive():
    assert check_smoothing(1e-9) == 1e-9
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            check_smoothing(bad)


def test_weighted_values_rejects_bad_inputs():
    with pytest.raises(ValueError):
        WeightedValues([1.0, np.inf], [0.5, 0.5])
    with pytest.raises(ValueError):
        WeightedValues([1.0, 2.0], [1.0, -0.1])
    with pytest.raises(ValueError):
        WeightedValues([1.0, 2.0], [0.9, 0.3])  # off by too much to renormalize


def test_weighted_values_renormalizes_small_drift():
    wv = WeightedValues([1.0, 2.0], [0.5 + 2e-10, 0.5])
    assert abs(float(wv.weights.sum()) - 1.0) <= 1e-15


def test_weighted_values_holds_read_only_copies():
    values = np.array([3.0, 1.0, 2.0])
    weights = np.full(3, 1.0 / 3.0)
    wv = WeightedValues(values, weights)
    for arr in (wv.values, wv.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the caller's arrays are neither frozen nor shared
    assert values.flags.writeable and weights.flags.writeable
    assert not np.shares_memory(wv.values, values)
    assert not np.shares_memory(wv.weights, weights)
    assert weighted_quantile(wv, 1.0) == 1.0
    values[1] = -5.0
    assert wv.values[1] == 1.0
    assert weighted_quantile(wv, 1.0) == 1.0
    # a profile built from another profile's arrays copies them too, as it
    # copies a read-only view of an array whose owner can still write it
    again = WeightedValues(wv.values, wv.weights)
    assert not np.shares_memory(again.values, wv.values)
    assert not np.shares_memory(again.weights, wv.weights)
    assert again.values.tobytes() == wv.values.tobytes()
    view = values.view()
    view.setflags(write=False)
    assert not np.shares_memory(WeightedValues(view, weights).values, values)


# ---------------------------------------------------------------------------
# the one sorted view of a profile

@st.composite
def tied_values(draw):
    """Values with heavy ties: a few dyadic levels (with -0.0 beside 0.0),
    one repeated value, or distinct lognormal draws."""
    n = draw(st.sampled_from([1, 2, 3, 5, 17, 64, 300, 1000, 5000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "equal", "distinct"]))
    if kind == "distinct":
        return rng.lognormal(size=n)
    grid = np.array([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, -1.5, 2.0])
    if kind == "equal":
        return np.full(n, grid[draw(st.integers(0, grid.size - 1))])
    return rng.choice(grid[: draw(st.integers(1, grid.size))], size=n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_values())
@example(np.array([0.0, -0.0, 0.0, -0.0]))
@example(np.array([-0.0, 0.0]))
@example(np.array([7.0]))
def test_stable_order_equals_the_stable_argsort(values):
    assert np.array_equal(_stable_order(values), np.argsort(values, kind="stable"))


def test_one_profile_is_sorted_once(monkeypatch):
    # the package attribute tailfed.superquantile is the function of that name
    module = importlib.import_module("tailfed.superquantile")
    sorted_sizes = []
    exact = module._stable_order

    def counted(values):
        sorted_sizes.append(values.size)
        return exact(values)

    monkeypatch.setattr(module, "_stable_order", counted)
    wv = WeightedValues(np.random.default_rng(5).lognormal(size=1000), np.full(1000, 1e-3))
    weighted_quantile(wv, 0.5)
    superquantile(wv, 0.5)
    smoothed_eta_star(wv, 0.5, 0.1)
    assert sorted_sizes == [1000]


# ---------------------------------------------------------------------------
# quantile and superquantile


def test_quantile_four_point_example():
    wv = WeightedValues([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    assert weighted_quantile(wv, 0.5) == 2.0


def test_quantile_single_value():
    assert weighted_quantile(WeightedValues([3.7], [1.0]), 0.9) == 3.7


def test_quantile_skewed_weights():
    wv = WeightedValues([5.0, 1.0], [0.9, 0.1])
    assert weighted_quantile(wv, 0.2) == 5.0


def test_quantile_matches_naive_rule():
    rng = np.random.default_rng(1)
    for _ in range(300):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        assert weighted_quantile(wv, theta) == quantile_naive(
            wv.values, wv.weights, theta
        )


def test_quantile_tied_values_merge():
    # two copies of the boundary value; either index gives the same answer
    wv = WeightedValues([1.0, 2.0, 2.0, 9.0], [0.25] * 4)
    assert weighted_quantile(wv, 0.5) == 2.0


def test_superquantile_four_point_example():
    wv = WeightedValues([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    assert superquantile(wv, 0.5) == pytest.approx(3.5, abs=1e-12)


def test_superquantile_constant_sample():
    wv = WeightedValues([2.5] * 5, [0.2] * 5)
    for theta in (0.1, 0.5, 1.0):
        assert superquantile(wv, theta) == pytest.approx(2.5, abs=1e-12)


def test_superquantile_theta_one_is_mean():
    rng = np.random.default_rng(2)
    for _ in range(100):
        wv = random_instance(rng)
        mean = float(np.dot(wv.weights, wv.values))
        assert superquantile(wv, 1.0) == pytest.approx(mean, abs=1e-10)


def test_superquantile_matches_tail_average():
    rng = np.random.default_rng(3)
    for _ in range(300):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        want = tail_average_naive(wv.values, wv.weights, theta)
        assert superquantile(wv, theta) == pytest.approx(want, abs=1e-9)


def test_superquantile_duality_small_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        wv = random_instance(rng, n=n)
        for theta in (0.1, 0.5, 0.8):
            dual = max_reweighted_mean(wv.values, wv.weights, theta)
            assert abs(superquantile(wv, theta) - dual) <= 1e-9


def test_superquantile_nonincreasing_in_theta():
    rng = np.random.default_rng(5)
    for _ in range(100):
        wv = random_instance(rng)
        thetas = np.sort(rng.uniform(0.05, 1.0, size=4))
        vals = [superquantile(wv, float(t)) for t in thetas]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-10


def test_plus_objective_matches_naive():
    rng = np.random.default_rng(6)
    for _ in range(200):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        eta = float(rng.normal() * 10)
        want = plus_objective_naive(wv.values, wv.weights, theta, eta)
        assert plus_objective(wv, theta, eta) == pytest.approx(want, abs=1e-10)


def test_superquantile_is_min_of_plus_objective():
    # evaluating at the quantile must beat any other eta
    rng = np.random.default_rng(7)
    for _ in range(200):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        s = superquantile(wv, theta)
        eta = float(rng.normal() * 10)
        assert s <= plus_objective(wv, theta, eta) + 1e-9


# ---------------------------------------------------------------------------
# hinge smoothing


def test_smoothed_plus_branch_values():
    assert smoothed_plus(-1.0, 0.5) == 0.25
    assert smoothed_plus(2.0, 0.5) == 2.0
    assert smoothed_plus(0.25, 0.5) == pytest.approx(0.3125, abs=1e-15)


def test_smoothed_plus_derivative_branches():
    assert smoothed_plus_derivative(-3.0, 0.5) == 0.0
    assert smoothed_plus_derivative(0.25, 0.5) == pytest.approx(0.5)
    assert smoothed_plus_derivative(4.0, 0.5) == 1.0
    # The clipped ratio equals the three branches written out, at both
    # breakpoints, beside them and on subnormals.
    tiny = float(np.nextafter(0.0, 1.0))
    for nu in (0.5, 1e-3, 3.0):
        r = np.array([-3.0, -tiny, -0.0, 0.0, tiny, 2.5e-308, nu / 2, nu, float(np.nextafter(nu, np.inf)), 4.0])
        branches = np.where(r <= 0.0, 0.0, np.where(r <= nu, r / nu, 1.0))
        assert np.array_equal(smoothed_plus_derivative(r, nu), branches)


def test_smoothed_plus_is_continuously_differentiable():
    # value and slope agree across both breakpoints
    nu = 0.3
    for brk in (0.0, nu):
        lo = smoothed_plus(brk - 1e-9, nu)
        hi = smoothed_plus(brk + 1e-9, nu)
        assert abs(hi - lo) <= 1e-8
        dlo = smoothed_plus_derivative(brk - 1e-9, nu)
        dhi = smoothed_plus_derivative(brk + 1e-9, nu)
        assert abs(dhi - dlo) <= 1e-8


def test_smoothed_plus_lipschitz_and_envelope():
    rng = np.random.default_rng(8)
    for _ in range(500):
        nu = float(rng.uniform(1e-3, 2.0))
        a, b = rng.normal(size=2) * 3
        assert abs(smoothed_plus(a, nu) - smoothed_plus(b, nu)) <= abs(a - b) + 1e-15
        da = smoothed_plus_derivative(a, nu)
        db = smoothed_plus_derivative(b, nu)
        assert abs(da - db) <= abs(a - b) / nu + 1e-12
        gap = smoothed_plus(a, nu) - max(a, 0.0)
        assert -1e-15 <= gap <= nu / 2 + 1e-15


def test_smoothed_plus_derivative_matches_fd():
    rng = np.random.default_rng(9)
    h = 1e-7
    for _ in range(200):
        nu = float(rng.uniform(0.05, 2.0))
        rho = float(rng.normal() * 2)
        fd = (smoothed_plus(rho + h, nu) - smoothed_plus(rho - h, nu)) / (2 * h)
        assert smoothed_plus_derivative(rho, nu) == pytest.approx(fd, abs=1e-6)


def test_smoothed_plus_vectorized_matches_scalar():
    rng = np.random.default_rng(10)
    rho = rng.normal(size=50)
    nu = 0.4
    vec = smoothed_plus(rho, nu)
    der = smoothed_plus_derivative(rho, nu)
    for i, r in enumerate(rho):
        assert vec[i] == smoothed_plus(float(r), nu)
        assert der[i] == smoothed_plus_derivative(float(r), nu)


# ---------------------------------------------------------------------------
# smoothed objective in eta


def test_smoothed_objective_saturated_region():
    wv = WeightedValues([1.0, 2.0], [0.5, 0.5])
    theta, nu, eta = 0.4, 0.2, 50.0
    assert smoothed_objective(wv, theta, nu, eta) == pytest.approx(
        eta + nu / (2 * theta), abs=1e-12
    )


def test_smoothed_objective_small_nu_recovers_tail_value():
    wv = WeightedValues([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    got = smoothed_objective(wv, 0.5, 1e-6, 2.0)
    assert got == pytest.approx(3.5, abs=1e-6)


def test_smoothed_objective_single_point_middle_branch():
    # eta at distance nu below the value sits on the quadratic/linear seam:
    # eta + g(nu) = eta + nu, which lands back on the value itself
    x, nu = 3.0, 0.25
    wv = WeightedValues([x], [1.0])
    assert smoothed_objective(wv, 1.0, nu, x - nu) == pytest.approx(x, abs=1e-12)


def test_smoothed_objective_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(300):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(1e-3, 2.0))
        eta = float(rng.normal() * 10)
        want = smoothed_objective_naive(wv.values, wv.weights, theta, nu, eta)
        assert smoothed_objective(wv, theta, nu, eta) == pytest.approx(want, abs=1e-10)
        wslope = smoothed_slope_naive(wv.values, wv.weights, theta, nu, eta)
        assert smoothed_objective_slope(wv, theta, nu, eta) == pytest.approx(
            wslope, abs=1e-10
        )


def test_smoothing_sandwich_random_tuples():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(1e-3, 2.0))
        eta = float(rng.normal() * 10)
        gap = smoothed_objective(wv, theta, nu, eta) - plus_objective(wv, theta, eta)
        assert -1e-12 <= gap <= nu / (2 * theta) + 1e-12


def test_eta_smoothness_bound():
    # second difference of the objective stays under the curvature bound
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(200):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.1, 1.0))
        nu = float(rng.uniform(0.05, 2.0))
        eta = float(rng.normal() * 5)
        f = lambda e: smoothed_objective(wv, theta, nu, e)
        second = (f(eta + h) - 2 * f(eta) + f(eta - h)) / (h * h)
        assert second <= 1.0 / (nu * theta) + 1e-3


# ---------------------------------------------------------------------------
# eta minimizer interval


def test_eta_interval_two_point_flat_stretch():
    # the stated minimizer 0 is the left end of a genuinely flat interval:
    # between 0 and 9 the low value contributes slope 0 and the high value
    # slope 1, cancelling exactly at theta = 1/2
    wv = WeightedValues([0.0, 10.0], [0.5, 0.5])
    lo, hi = smoothed_eta_minimizers(wv, 0.5, 1.0)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(9.0, abs=1e-12)
    _, best, flat_lo, flat_hi = grid_eta_minimum(wv.values, wv.weights, 0.5, 1.0, num=120001)
    assert abs(flat_lo - lo) <= 1e-3
    assert abs(flat_hi - hi) <= 1e-3
    assert smoothed_objective(wv, 0.5, 1.0, lo) == pytest.approx(best, abs=1e-8)
    assert smoothed_objective(wv, 0.5, 1.0, hi) == pytest.approx(best, abs=1e-8)


def test_eta_interval_four_point_flat_stretch():
    # closed form gives 2; the full minimizing set runs to 2.9 because the
    # third value only starts bending the slope once eta + nu crosses it
    wv = WeightedValues([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
    lo, hi = smoothed_eta_minimizers(wv, 0.5, 0.1)
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.9, abs=1e-12)
    _, best, flat_lo, flat_hi = grid_eta_minimum(wv.values, wv.weights, 0.5, 0.1, num=120001)
    assert abs(flat_lo - lo) <= 1e-3
    assert abs(flat_hi - hi) <= 1e-3


def test_eta_interval_single_point_closed_form():
    # lone device: slope vanishes where the hinge derivative equals theta
    x, nu, theta = 3.0, 1.0, 0.5
    wv = WeightedValues([x], [1.0])
    lo, hi = smoothed_eta_minimizers(wv, theta, nu)
    assert lo == pytest.approx(x - nu * theta, abs=1e-12)
    assert hi == pytest.approx(x - nu * theta, abs=1e-12)
    assert lo <= x - 0.5 <= hi  # the advertised point sits inside


def test_eta_interval_slope_signs():
    rng = np.random.default_rng(14)
    for _ in range(200):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(0.01, 2.0))
        lo, hi = smoothed_eta_minimizers(wv, theta, nu)
        assert lo <= hi
        span = float(wv.values.max() - wv.values.min()) + nu + 1.0
        delta = 1e-7 * span
        assert smoothed_slope_naive(wv.values, wv.weights, theta, nu, lo - delta) <= 1e-9
        assert smoothed_slope_naive(wv.values, wv.weights, theta, nu, hi + delta) >= -1e-9
        mid = 0.5 * (lo + hi)
        assert abs(smoothed_objective_slope(wv, theta, nu, mid)) <= 1e-7


def test_eta_interval_beats_grid():
    rng = np.random.default_rng(15)
    for _ in range(25):
        wv = random_instance(rng, n=int(rng.integers(1, 6)), scale=3.0)
        theta = float(rng.uniform(0.1, 0.95))
        nu = float(rng.uniform(0.05, 1.0))
        lo, hi = smoothed_eta_minimizers(wv, theta, nu)
        _, best, _, _ = grid_eta_minimum(wv.values, wv.weights, theta, nu, num=40001)
        for eta in (lo, hi, 0.5 * (lo + hi)):
            assert smoothed_objective(wv, theta, nu, eta) <= best + 1e-6


def test_eta_interval_stays_in_bounds():
    rng = np.random.default_rng(16)
    for _ in range(300):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(0.01, 2.0))
        lo, hi = smoothed_eta_minimizers(wv, theta, nu)
        assert lo >= float(wv.values.min()) - nu - 1e-12
        assert hi <= float(wv.values.max()) + 1e-12


def test_eta_star_is_interval_midpoint():
    rng = np.random.default_rng(17)
    for _ in range(100):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(0.01, 2.0))
        lo, hi = smoothed_eta_minimizers(wv, theta, nu)
        assert smoothed_eta_star(wv, theta, nu) == pytest.approx(
            0.5 * (lo + hi), abs=1e-12
        )


def test_eta_interval_theta_one_gives_mean_value():
    # theta = 1 pushes the minimizer below every value; the attained value is
    # exactly the weighted mean
    rng = np.random.default_rng(18)
    for _ in range(100):
        wv = random_instance(rng)
        nu = float(rng.uniform(0.01, 2.0))
        lo, hi = smoothed_eta_minimizers(wv, 1.0, nu)
        assert lo == hi
        mean = float(np.dot(wv.weights, wv.values))
        assert smoothed_objective(wv, 1.0, nu, lo) == pytest.approx(mean, abs=1e-10)


# ---------------------------------------------------------------------------
# the sorted threshold search against the slope-at-every-breakpoint oracle

@st.composite
def threshold_profiles(draw):
    """(values, weights, theta, nu) with ties, count weights and flat stretches.

    "grid" values are integer multiples of a dyadic nu, so x_j - nu lands
    exactly on x_i; "boundary" puts theta on a cumulative-weight boundary,
    which makes the slope exactly 0 on a stretch.
    """
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 13, 40, 200, 3000]))
    nu = draw(st.sampled_from([1e-3, 0.1, 0.25, 0.5, 1.0, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "lognormal", "ties", "grid"]))
    if kind == "normal":
        values = rng.normal(size=n) * draw(st.sampled_from([0.01, 1.0, 50.0]))
    elif kind == "lognormal":
        values = rng.lognormal(size=n)
    elif kind == "ties":
        values = rng.integers(0, max(2, n // 3), size=n) * 0.7 - 1.0
    else:
        step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        nu = step * draw(st.sampled_from([1, 2]))
        values = rng.integers(-6, 7, size=n) * step
    weighting = draw(st.sampled_from(["uniform", "counts", "random"]))
    if weighting == "uniform":
        raw = np.ones(n)
    elif weighting == "counts":
        raw = rng.integers(1, 6, size=n).astype(np.float64)
    else:
        raw = rng.uniform(0.05, 1.0, size=n)
    weights = raw / raw.sum()
    how = draw(st.sampled_from(["level", "uniform", "boundary"]))
    if how == "level":
        theta = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
    elif how == "uniform":
        theta = draw(st.floats(0.01, 1.0))
    else:
        # the weight of the m largest values, m < n
        m = draw(st.integers(1, max(1, n - 1)))
        theta = float(min(1.0, weights[np.argsort(values, kind="stable")[::-1][:m]].sum()))
    return values, weights, theta, nu


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(threshold_profiles())
@example(([1.0, 2.0, 3.0, 4.0], [0.25] * 4, 0.5, 0.1))
@example(([0.0, 10.0], [0.5, 0.5], 0.5, 1.0))
@example(([0.0, 1.0, 1.0, 2.0, 3.0], [0.2] * 5, 0.4, 1.0))
@example(([3.0], [1.0], 0.5, 1.0))
@example(([3.0], [1.0], 1.0, 0.1))
@example(([1.0, 5.0, 2.0], [0.5, 0.25, 0.25], 1.0, 1e-3))
def test_eta_minimizers_equal_the_breakpoint_oracle(case):
    values, weights, theta, nu = case
    wv = WeightedValues(values, weights)
    lo, hi = smoothed_eta_minimizers(wv, theta, nu)
    want_lo, want_hi = smoothed_eta_minimizers_naive(wv.values, wv.weights, theta, nu)
    assert lo == want_lo
    assert hi == want_hi


@pytest.mark.parametrize(
    "values, weights, theta, nu",
    [
        ("lognormal", None, 0.5, 0.1),
        ([0.0, 10.0], [0.5, 0.5], 0.5, 1.0),
        ([1.0, 2.0, 3.0, 4.0], [0.25] * 4, 0.5, 0.1),
    ],
)
def test_eta_minimizers_make_a_constant_number_of_exact_slope_calls(monkeypatch, values, weights, theta, nu):
    # the package attribute tailfed.superquantile is the function of that name
    module = importlib.import_module("tailfed.superquantile")
    if values == "lognormal":
        values = np.random.default_rng(19).lognormal(size=10_000)
        weights = np.full(values.size, 1.0 / values.size)
    wv = WeightedValues(values, weights)
    calls = []
    exact = module.smoothed_objective_slope

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(module, "smoothed_objective_slope", counted)
    module.smoothed_eta_minimizers(wv, theta, nu)
    assert 1 <= len(calls) <= 8


@st.composite
def window_profiles(draw):
    """(values, weights, theta, nu) whose minimizers sit at or past the edges
    of the search window around the quantile q, [q - nu, q + nu].

    "narrow" and "wide" draw nu far below the value spacing and far above
    the spread; "clusters" puts theta on the weight of a far cluster, so a
    flat stretch runs from q to far right of it; "low_end" makes the
    smallest value q heavy and theta near 1, so the root sits near q - nu;
    "high_end" sets theta just under the weight above q, inside the
    quantile's EPS slack, so the slope stays negative past q and crosses
    zero near the next value up, or further up past values of tiny weight,
    where the search has to widen; "ties" stacks equal values at q; "zeros"
    mixes -0.0 and 0.0 with values equal to a dyadic nu, so x - nu lands
    on 0.
    """
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 40, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["narrow", "wide", "clusters", "low_end", "high_end", "ties", "zeros"]))
    nu = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    theta = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    raw = rng.uniform(0.05, 1.0, size=n) if draw(st.booleans()) else np.ones(n)
    if kind == "narrow":
        values, nu = rng.lognormal(size=n), 1e-6
    elif kind == "wide":
        values, nu = rng.normal(size=n), 1e3
    elif kind == "clusters":
        far = draw(st.integers(1, max(1, n - 1)))
        values = rng.normal(size=n) * 0.01
        values[n - far :] += 100.0
    elif kind == "low_end":
        values = rng.normal(size=n)
        raw[np.argmin(values)] = 10.0 * n
        theta = draw(st.sampled_from([0.99, 0.999999]))
    elif kind == "high_end":
        values = np.sort(rng.integers(-20, 40, size=n)) * 0.5
        nu = draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0]))
    elif kind == "ties":
        values = np.where(rng.random(n) < 0.6, 1.0, rng.normal(size=n))
    else:
        nu = draw(st.sampled_from([0.25, 0.5]))
        values = rng.choice(np.array([-0.0, 0.0, nu, -nu, 2.0 * nu]), size=n)
    weights = raw / raw.sum()
    if kind == "clusters":
        theta = float(min(1.0, weights[n - far :].sum()))
    elif kind == "high_end" and n > 1:
        # just under the weight of the m largest values, inside the
        # quantile's slack; the first t of them weigh 2e-13 each, so the
        # slope stays below 0 until eta passes the t-th (often past the
        # window once t > 2)
        m = draw(st.integers(1, n - 1))
        t = draw(st.integers(0, min(m - 1, 5)))
        weights[n - m : n - m + t] = 2e-13
        weights /= weights.sum()
        theta = float(weights[n - m :].sum()) - 0.5e-12
    return values, weights, theta, nu


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(window_profiles())
@example(([-0.0, 0.0, 0.5, 0.5], [0.25] * 4, 0.5, 0.5))
@example(([0.0, -0.0, 0.25, -0.25], [0.4, 0.3, 0.2, 0.1], 0.75, 0.25))
@example(([0.0, 0.01, 100.0, 100.01], [0.25] * 4, 0.5, 1e-3))
def test_windowed_eta_minimizers_equal_the_breakpoint_oracle(case):
    values, weights, theta, nu = case
    wv = WeightedValues(values, weights)
    want = smoothed_eta_minimizers_naive(wv.values, wv.weights, theta, nu)
    assert smoothed_eta_minimizers(wv, theta, nu) == want


@pytest.mark.parametrize(
    "values, weights, theta, nu, window_end",
    [
        # a crossing near 29.5, in the ramp of 30, once 10 and 20 are passed
        ([0.0, 10.0, 20.0, 30.0, 40.0], [0.5 - 5e-13, 2e-13, 2e-13, 2e-13, 0.5 - 1e-13], 0.5, 1.0, 19.0),
        # a flat stretch [20, 29] that starts at the window's last breakpoint
        ([0.0, 1.5, 20.0, 30.0], [0.5 - 5e-13, 2e-13, 3e-13, 0.5], 0.5, 1.0, 20.0),
        # a crossing between 12.5 = 15.5 - nu and 15 = 18 - nu; the window
        # holds 15.5 but not 15, so it has to end at 12.5
        ([-9.0, 0.0, 15.5, 18.0], [0.4, 3e-13, 3e-13, 0.6 - 6e-13], 0.6 - 5e-13, 3.0, 12.5),
    ],
)
def test_minimizers_past_the_window_widen_it_with_few_exact_slopes(monkeypatch, values, weights, theta, nu, window_end):
    # q is the smallest value: its cumulative weight is within the quantile's
    # EPS slack of 1 - theta, while the weight above it exceeds theta by a
    # few 1e-13, so values weighing 2e-13 or 3e-13 keep the slope below 0
    # far past q + nu. The answer lies past window_end, the last breakpoint
    # of the window around q, so the search must widen to every breakpoint.
    module = importlib.import_module("tailfed.superquantile")
    wv = WeightedValues(values, weights)
    etas = []
    exact = module.smoothed_objective_slope

    def counted(*args):
        etas.append(args[-1])
        return exact(*args)

    monkeypatch.setattr(module, "smoothed_objective_slope", counted)
    lo, hi = module.smoothed_eta_minimizers(wv, theta, nu)
    assert (lo, hi) == smoothed_eta_minimizers_naive(wv.values, wv.weights, theta, nu)
    assert hi > window_end
    assert 1 <= len(etas) <= 8
    assert max(etas) > window_end


# ---------------------------------------------------------------------------
# device coefficients


def test_coefficients_zero_below_eta():
    wv = WeightedValues([1.0, 2.0], [0.5, 0.5])
    c = smoothed_device_coefficients(wv, 0.5, 0.3, 5.0)
    assert np.all(c == 0.0)


def test_coefficients_saturate_above():
    wv = WeightedValues([10.0, 11.0], [0.4, 0.6])
    c = smoothed_device_coefficients(wv, 0.5, 0.3, 1.0)
    assert np.allclose(c, np.array([0.4, 0.6]) / 0.5)


def test_coefficients_two_point_example():
    wv = WeightedValues([1.0, 3.0], [0.5, 0.5])
    c = smoothed_device_coefficients(wv, 0.5, 1.0, 2.5)
    assert c[0] == 0.0
    assert c[1] == pytest.approx(0.5, abs=1e-12)


def test_coefficients_sum_to_one_at_minimizer():
    # at an exact stationary point of eta the coefficients form a convex
    # combination; that identity is what makes the model update an average
    rng = np.random.default_rng(19)
    for _ in range(200):
        wv = random_instance(rng)
        theta = float(rng.uniform(0.05, 0.95))
        nu = float(rng.uniform(0.01, 1.0))
        lo, hi = smoothed_eta_minimizers(wv, theta, nu)
        for eta in {lo, hi}:
            c = smoothed_device_coefficients(wv, theta, nu, eta)
            assert np.all(c >= 0.0)
            assert float(c.sum()) <= 1.0 / theta + 1e-12
            if abs(smoothed_objective_slope(wv, theta, nu, eta)) <= 1e-12:
                assert float(c.sum()) == pytest.approx(1.0, abs=1e-9)


def test_coefficients_match_fd_in_values():
    # moving one sample value moves the objective by its coefficient
    rng = np.random.default_rng(20)
    h = 1e-7
    for _ in range(100):
        wv = random_instance(rng, n=4)
        theta, nu = 0.5, 0.3
        eta = float(rng.normal() * 2)
        c = smoothed_device_coefficients(wv, theta, nu, eta)
        for k in range(4):
            bumped_hi = wv.values.copy()
            bumped_lo = wv.values.copy()
            bumped_hi[k] += h
            bumped_lo[k] -= h
            fd = (
                smoothed_objective(WeightedValues(bumped_hi, wv.weights), theta, nu, eta)
                - smoothed_objective(WeightedValues(bumped_lo, wv.weights), theta, nu, eta)
            ) / (2 * h)
            assert fd == pytest.approx(c[k], abs=1e-5)


def test_joint_convexity_midpoint():
    # quadratic per-device losses keep the tail objective convex in (w, eta)
    rng = np.random.default_rng(21)
    centers = rng.normal(size=(4, 3))
    alpha = np.full(4, 0.25)
    theta, nu = 0.6, 0.2

    def tail_obj(w, eta):
        losses = np.array([float(np.sum((w - c) ** 2)) for c in centers])
        return smoothed_objective(WeightedValues(losses, alpha), theta, nu, eta)

    for _ in range(100):
        w1, w2 = rng.normal(size=(2, 3))
        e1, e2 = rng.normal(size=2) * 3
        mid = tail_obj(0.5 * (w1 + w2), 0.5 * (e1 + e2))
        assert mid <= 0.5 * (tail_obj(w1, e1) + tail_obj(w2, e2)) + 1e-12
