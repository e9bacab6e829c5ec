"""Weighted quantiles, tail means, and their smooth surrogates.

The central object is a finite loss profile: values ``x_k`` carrying
probability weights ``a_k``. The tail objective at conformity level
``theta`` is

    eta + (1/theta) * sum_k a_k * max(x_k - eta, 0)

minimized over ``eta``; the minimum value is the superquantile (the mean of
the worst ``theta``-fraction of the profile) and a minimizer is the
``(1-theta)``-quantile. The smooth variants replace the positive part with a
quadratically rounded hinge of width ``nu``, which keeps every quantity
differentiable while staying within ``nu/(2*theta)`` of the exact objective.
"""

from __future__ import annotations

import functools

import numpy as np

# Tolerance for probability mass checks and tie decisions.
EPS = 1e-12
# Weight vectors whose sum is further than this from 1 are rejected outright;
# anything closer is silently renormalized.
RENORM_TOL = 1e-9


def check_conformity(theta: float) -> float:
    theta = float(theta)
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"conformity level must lie in (0, 1], got {theta!r}")
    return theta


def check_smoothing(nu: float) -> float:
    nu = float(nu)
    if not (nu > 0.0) or not np.isfinite(nu):
        raise ValueError(f"smoothing width must be positive, got {nu!r}")
    return nu


class WeightedValues:
    """A finite distribution: values with strictly positive probability weights.

    Weights must sum to 1 within ``RENORM_TOL``; small drift is renormalized
    on construction. ``values`` and ``weights`` are read-only copies of what
    was passed, so no caller can write them. The profile sorted by value is
    built on first use and kept, with its prefix sums; every threshold
    function reads that one view.
    """

    __slots__ = ("values", "weights", "_sorted", "_moment")

    def __init__(self, values, weights) -> None:
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        w = np.array(weights, dtype=np.float64)
        if w.shape != v.shape:
            raise ValueError("values and weights must have matching length")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w <= 0.0).any():
            raise ValueError("weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if abs(total - 1.0) > EPS:
            w /= total
        v.setflags(write=False)
        w.setflags(write=False)
        self.values, self.weights = v, w
        self._sorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._moment: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(np.dot(self.values, self.weights))


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, element for element, but faster.

    The default (SIMD) argsort orders the values but not equal values among
    themselves; each run of equal values (-0.0 and 0.0 are equal) is then put
    back in original index order by sorting the keys run * n + index.
    """
    order = np.argsort(values)
    s = values[order]
    tied = s[1:] == s[:-1]
    if not tied.any():
        return order
    run = np.concatenate(([0], np.cumsum(~tied)))
    n = order.size
    return np.sort(run * n + order) % n


def _sorted_profile(wv: WeightedValues) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Stable order keeps equal values in original order, which makes every
    # downstream tie decision deterministic. mass[j] is the weight of the j
    # smallest values.
    if wv._sorted is None:
        order = _stable_order(wv.values)
        x, a = wv.values[order], wv.weights[order]
        mass = np.concatenate(([0.0], np.cumsum(a)))
        for arr in (x, a, mass):
            arr.setflags(write=False)
        wv._sorted = (x, a, mass)
    return wv._sorted


def _quantile_index(mass: np.ndarray, theta: float) -> int:
    # EPS slack absorbs cumulative-sum dust at exact-tie boundaries.
    j = int(np.searchsorted(mass[1:], (1.0 - theta) - EPS, side="left"))
    return min(j, mass.size - 2)


def weighted_quantile(wv: WeightedValues, theta: float) -> float:
    """The (1-theta)-quantile: smallest value whose cumulative weight reaches 1-theta.

    theta = 1 returns the minimum value.
    """
    theta = check_conformity(theta)
    x, _, mass = _sorted_profile(wv)
    return float(x[_quantile_index(mass, theta)])


def superquantile(wv: WeightedValues, theta: float) -> float:
    """Mean of the worst theta-fraction of the profile. theta = 1 is the plain mean."""
    theta = check_conformity(theta)
    if theta == 1.0:
        return wv.mean()
    eta = weighted_quantile(wv, theta)
    excess = np.maximum(wv.values - eta, 0.0)
    return eta + float(np.dot(wv.weights, excess)) / theta


def smoothed_plus(rho, nu: float):
    """Quadratically rounded positive part.

    Equal to nu/2 for rho <= 0, rho^2/(2 nu) + nu/2 on (0, nu], and rho
    beyond nu. Continuously differentiable, 1-Lipschitz, and dominates the
    hinge max(rho, 0) by at most nu/2.
    """
    nu = check_smoothing(nu)
    r = np.asarray(rho, dtype=np.float64)
    out = np.where(r <= 0.0, nu / 2.0, np.where(r <= nu, r * r / (2.0 * nu) + nu / 2.0, r))
    if out.ndim == 0:
        return float(out)
    return out


def smoothed_plus_derivative(rho, nu: float):
    """Derivative of smoothed_plus: 0 below 0, rho/nu on (0, nu], then 1."""
    nu = check_smoothing(nu)
    r = np.asarray(rho, dtype=np.float64)
    out = np.clip(r / nu, 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def plus_objective(wv: WeightedValues, theta: float, eta: float) -> float:
    """The exact (nonsmooth) tail objective at a fixed threshold eta."""
    theta = check_conformity(theta)
    excess = np.maximum(wv.values - float(eta), 0.0)
    return float(eta) + float(np.dot(wv.weights, excess)) / theta


def smoothed_objective(wv: WeightedValues, theta: float, nu: float, eta: float) -> float:
    """Smooth tail objective: eta + (1/theta) sum_k a_k g_nu(x_k - eta)."""
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    g = smoothed_plus(wv.values - float(eta), nu)
    return float(eta) + float(np.dot(wv.weights, g)) / theta


def smoothed_objective_slope(wv: WeightedValues, theta: float, nu: float, eta: float) -> float:
    """d/d eta of the smooth tail objective."""
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    gp = smoothed_plus_derivative(wv.values - float(eta), nu)
    return 1.0 - float(np.dot(wv.weights, gp)) / theta


def smoothed_eta_minimizers(wv: WeightedValues, theta: float, nu: float) -> tuple[float, float]:
    """Closed interval of minimizers of eta -> smoothed_objective(wv, theta, nu, eta).

    The slope is continuous, nondecreasing, and piecewise linear with
    breakpoints at every x_k and x_k - nu, so the minimizers lie between the
    last breakpoint where it is negative and the first where it is not.

    Those lie near q, the (1-theta)-quantile: below q - nu the slope is
    negative, since the weight of x >= q (more than theta) counts in full,
    and from q up it is at least -EPS/theta. So the search takes a window:
    the breakpoints in [q - nu, q + nu], two more beyond each end, and all
    between its ends. The profile's prefix sums of weight and weight x value
    give the slope at each window breakpoint c (the weight above c + nu
    counts fully, the weight in (c, c + nu] counts (x_k - c)/nu), and so the
    first one with a nonnegative slope. Prefix sums round differently from
    the exact slope, so that bracket is confirmed with
    ``smoothed_objective_slope`` at its neighbours, walking while its sign
    says so; the exact slope rounds monotonically in eta, so the walks end
    at the same breakpoints from any start. A flat stretch (slope exactly 0)
    ends at the last breakpoint whose exact slope is still <= 0; otherwise
    the root is interpolated on the one linear piece between the bracketing
    breakpoints. A walk that reaches an open end of the window widens the
    search to all ~2n breakpoints, reusing the exact slopes taken. Past the
    sort and prefix sums, a solve costs O(log n), the window's size and a
    constant number of O(n) exact slopes.

    For theta = 1 the objective is flat on (-inf, min x - nu]; the right
    endpoint of that ray is returned as the canonical (degenerate) interval.
    """
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    if theta == 1.0:
        lo = float(wv.values.min() - nu)
        return (lo, lo)
    x, a, mass = _sorted_profile(wv)
    if wv._moment is None:
        wv._moment = np.concatenate(([0.0], np.cumsum(a * x)))
        wv._moment.setflags(write=False)
    moment, n = wv._moment, x.size

    @functools.cache
    def slope(c: float) -> float:
        return smoothed_objective_slope(wv, theta, nu, c)

    def bracket(cand: np.ndarray, open_lo: bool, open_hi: bool) -> tuple[float, float] | None:
        below = np.searchsorted(x, cand, side="right")
        ramp_end = np.searchsorted(x, cand + nu, side="right")
        ramp = (moment[ramp_end] - moment[below] - cand * (mass[ramp_end] - mass[below])) / nu
        nonneg = 1.0 - (mass[-1] - mass[ramp_end] + ramp) / theta >= 0.0
        # Over all breakpoints the slope is 1 - 1/theta < 0 at the first,
        # min(x) - nu, and exactly 1 at the last, max(x).
        k = int(np.argmax(nonneg)) if nonneg.any() else cand.size - 1
        while k < cand.size and slope(float(cand[k])) < 0.0:
            k += 1
        while 0 < k < cand.size and slope(float(cand[k - 1])) >= 0.0:
            k -= 1
        if k == cand.size or (k == 0 and open_lo):
            return None
        a_end = float(cand[k])
        if slope(a_end) > 0.0:
            # Unique root strictly between the bracketing breakpoints; the
            # slope is linear there.
            b_end = float(cand[k - 1])
            root = b_end + (-slope(b_end)) * (a_end - b_end) / (slope(a_end) - slope(b_end))
            return (root, root)
        j = k
        while j + 1 < cand.size and slope(float(cand[j + 1])) <= 0.0:
            j += 1
        if j + 1 == cand.size and open_hi:
            return None
        return (a_end, float(cand[j]))

    q = x[_quantile_index(mass, theta)]
    i0, j0 = np.maximum(np.searchsorted(x, (q - nu, q), side="left") - 2, 0)
    i1, j1 = np.minimum(np.searchsorted(x, (q + nu, q + 2.0 * nu), side="right") + 2, n)
    near, shifted = x[i0:i1], x[j0:j1] - nu
    lo_end = max(near[0] if i0 else -np.inf, shifted[0] if j0 else -np.inf)
    hi_end = min(near[-1] if i1 < n else np.inf, shifted[-1] if j1 < n else np.inf)
    cand = np.sort(np.concatenate([near, shifted]), kind="stable")
    cand = cand[(cand >= lo_end) & (cand <= hi_end)]
    # Repeats are harmless; -0.0 beside 0.0 is not, as np.unique's pick varies.
    signed_zero = cand[0] <= 0.0 <= cand[-1] and np.signbit(x[x == 0.0]).any()
    windowed = not signed_zero and bracket(cand, i0 + j0 > 0, i1 + j1 < 2 * n)
    return windowed or bracket(np.unique(np.concatenate([x, x - nu])), False, False)


def smoothed_eta_star(wv: WeightedValues, theta: float, nu: float) -> float:
    """Midpoint of the minimizer interval, the canonical scalar threshold."""
    lo, hi = smoothed_eta_minimizers(wv, theta, nu)
    return 0.5 * (lo + hi)


def smoothed_device_coefficients(wv: WeightedValues, theta: float, nu: float, eta: float) -> np.ndarray:
    """Per-value gradient weights c_k = (a_k / theta) g_nu'(x_k - eta).

    These are the coefficients the tail objective places on each device's
    gradient: nonnegative, zero exactly on values at or below eta, and
    summing to at most 1/theta.
    """
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    gp = smoothed_plus_derivative(wv.values - float(eta), nu)
    return wv.weights * gp / theta
