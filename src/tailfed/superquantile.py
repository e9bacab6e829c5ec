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
    on construction. ``values`` and ``weights`` are read-only arrays that no
    caller can write: an array passed in that the caller could still edit is
    copied, while one that is already read-only and owns its memory (another
    profile's, say) is taken as is. The profile sorted by value is built on
    first use and kept; every threshold function reads that one view.
    """

    __slots__ = ("values", "weights", "_sorted")

    def __init__(self, values, weights) -> None:
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != v.shape:
            raise ValueError("values and weights must have matching length")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if abs(total - 1.0) > EPS:
            w = w / total
        self.values = _read_only(v, values)
        self.weights = _read_only(w, weights)
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(np.dot(self.values, self.weights))


def _read_only(arr: np.ndarray, given) -> np.ndarray:
    # arr is np.asarray(given) or computed from it. It is frozen without a
    # copy when no one else can write it: made here (from a list, from an
    # array of another dtype, or by renormalizing), or passed in already
    # read-only and owning its memory, as another profile's arrays are.
    made_here = arr is not given and isinstance(given, (np.ndarray, list, tuple))
    frozen = arr is given and not arr.flags.writeable
    if not (arr.flags.owndata and (made_here or frozen)):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


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


def _sorted_profile(wv: WeightedValues) -> tuple[np.ndarray, np.ndarray]:
    # Stable order keeps equal values in original order, which makes every
    # downstream tie decision deterministic.
    if wv._sorted is None:
        order = _stable_order(wv.values)
        x, a = wv.values[order], wv.weights[order]
        x.setflags(write=False)
        a.setflags(write=False)
        wv._sorted = (x, a)
    return wv._sorted


def weighted_quantile(wv: WeightedValues, theta: float) -> float:
    """The (1-theta)-quantile: smallest value whose cumulative weight reaches 1-theta.

    theta = 1 returns the minimum value.
    """
    theta = check_conformity(theta)
    x, a = _sorted_profile(wv)
    cum = np.cumsum(a)
    # EPS slack absorbs cumulative-sum dust at exact-tie boundaries.
    j = int(np.searchsorted(cum, (1.0 - theta) - EPS, side="left"))
    j = min(j, x.size - 1)
    return float(x[j])


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
    out = np.where(r <= 0.0, 0.0, np.where(r <= nu, r / nu, 1.0))
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

    It reads the profile's sorted view, which is built once per profile (a
    stable order) and shared with ``weighted_quantile`` and ``superquantile``;
    the profile's arrays are read-only, so the view cannot go stale. The
    weights and weight x value are summed as prefixes. Two ``searchsorted``
    passes then give the slope at every breakpoint c at once: the weight
    above c + nu counts fully, the weight in (c, c + nu] counts
    (x_k - c)/nu. That locates the first breakpoint with a nonnegative
    slope. Prefix sums round differently from the exact slope, so the
    bracket is confirmed with ``smoothed_objective_slope`` at the
    breakpoints next to it, walking left or right while its sign says so. A
    flat stretch (slope exactly 0) ends at the last breakpoint whose exact
    slope is still <= 0; otherwise the root is interpolated on the one
    linear piece between the bracketing breakpoints. The cost is O(n log n)
    plus a constant number of O(n) exact slope evaluations, and O(n) memory.

    For theta = 1 the objective is flat on (-inf, min x - nu]; the right
    endpoint of that ray is returned as the canonical (degenerate) interval.
    """
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    if theta == 1.0:
        lo = float(wv.values.min() - nu)
        return (lo, lo)
    x, a = _sorted_profile(wv)
    cand = np.unique(np.concatenate([x, x - nu]))
    mass = np.concatenate(([0.0], np.cumsum(a)))
    moment = np.concatenate(([0.0], np.cumsum(a * x)))
    below = np.searchsorted(x, cand, side="right")
    ramp_end = np.searchsorted(x, cand + nu, side="right")
    ramp = (moment[ramp_end] - moment[below] - cand * (mass[ramp_end] - mass[below])) / nu
    approx = 1.0 - (mass[-1] - mass[ramp_end] + ramp) / theta

    @functools.cache
    def slope(j: int) -> float:
        return smoothed_objective_slope(wv, theta, nu, float(cand[j]))

    # The slope is 1 - 1/theta < 0 at min(x) - nu and exactly 1 at max(x),
    # the last breakpoint, so the walks below stay inside cand.
    k = int(np.argmax(approx >= 0.0))
    while slope(k) < 0.0:
        k += 1
    while k > 0 and slope(k - 1) >= 0.0:
        k -= 1
    a_end = float(cand[k])
    if slope(k) > 0.0:
        # Unique root strictly between the bracketing breakpoints; the slope
        # is linear there.
        b_end, slope_a, slope_b = float(cand[k - 1]), slope(k), slope(k - 1)
        root = b_end + (-slope_b) * (a_end - b_end) / (slope_a - slope_b)
        return (root, root)
    j = k
    while j + 1 < cand.size and slope(j + 1) <= 0.0:
        j += 1
    return (a_end, float(cand[j]))


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
