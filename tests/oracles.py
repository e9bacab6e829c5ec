"""Independent reference implementations used to cross-check the package.

Everything here is intentionally naive: explicit loops, dense grids, and
combinatorial enumeration over small instances. Slow, but hard to get wrong,
and sharing no code with the implementations under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# tail objective and its smoothed variant, evaluated pointwise


def hinge_smooth_naive(rho: float, nu: float) -> float:
    if rho <= 0.0:
        return nu / 2.0
    if rho <= nu:
        return rho * rho / (2.0 * nu) + nu / 2.0
    return rho


def hinge_smooth_slope_naive(rho: float, nu: float) -> float:
    if rho <= 0.0:
        return 0.0
    if rho <= nu:
        return rho / nu
    return 1.0


def plus_objective_naive(values, weights, theta: float, eta: float) -> float:
    total = 0.0
    for x, a in zip(values, weights):
        total += a * max(x - eta, 0.0)
    return eta + total / theta


def smoothed_objective_naive(values, weights, theta: float, nu: float, eta: float) -> float:
    total = 0.0
    for x, a in zip(values, weights):
        total += a * hinge_smooth_naive(x - eta, nu)
    return eta + total / theta


def smoothed_slope_naive(values, weights, theta: float, nu: float, eta: float) -> float:
    total = 0.0
    for x, a in zip(values, weights):
        total += a * hinge_smooth_slope_naive(x - eta, nu)
    return 1.0 - total / theta


def grid_eta_minimum(values, weights, theta: float, nu: float, num: int = 200001):
    """Dense-grid minimum of the smoothed objective.

    Returns (eta at the grid minimum, minimal value, flat_lo, flat_hi) where
    the flat endpoints bracket every grid point within 1e-9 of the minimum.
    The grid spans all breakpoints of the piecewise-quadratic objective.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min()) - nu - 1.0
    hi = float(values.max()) + 1.0
    grid = np.linspace(lo, hi, num)
    vals = np.array([smoothed_objective_naive(values, weights, theta, nu, e) for e in grid])
    best = vals.min()
    flat = grid[vals <= best + 1e-9]
    return float(grid[int(vals.argmin())]), float(best), float(flat.min()), float(flat.max())


def _smoothed_slope_dot(values, weights, theta: float, nu: float, eta: float) -> float:
    # The package's slope formula, copied so the search below shares no code
    # with it. It sums with np.dot, as the package does, so that its result
    # can be compared with ==; a loop like smoothed_slope_naive rounds
    # differently.
    r = values - float(eta)
    gp = np.where(r <= 0.0, 0.0, np.where(r <= nu, r / nu, 1.0))
    return 1.0 - float(np.dot(weights, gp)) / theta


def smoothed_eta_minimizers_naive(values, weights, theta: float, nu: float) -> tuple[float, float]:
    """Minimizer interval of the smoothed objective by evaluating the slope at every breakpoint.

    O(n^2): the exact slope at each of the ~2n breakpoints x_k and x_k - nu,
    then the first nonnegative and the last nonpositive one, interpolated on
    the linear piece between them when the slope crosses zero there. Pass
    the values and weights of a WeightedValues (weights already normalized).
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if theta == 1.0:
        lo = float(values.min() - nu)
        return (lo, lo)
    cand = np.unique(np.concatenate([values, values - nu]))
    slopes = np.array([_smoothed_slope_dot(values, weights, theta, nu, c) for c in cand])
    nonneg = cand[slopes >= 0.0]
    nonpos = cand[slopes <= 0.0]
    a = float(nonneg.min())
    b = float(nonpos.max())
    slope_a = _smoothed_slope_dot(values, weights, theta, nu, a)
    if slope_a > 0.0:
        slope_b = _smoothed_slope_dot(values, weights, theta, nu, b)
        root = b + (-slope_b) * (a - b) / (slope_a - slope_b)
        return (root, root)
    return (a, b)


# ---------------------------------------------------------------------------
# quantiles


def quantile_naive(values, weights, theta: float) -> float:
    """Smallest sample value whose cumulative weight reaches 1 - theta."""
    pairs = sorted(zip(values, weights), key=lambda p: p[0])
    cum = 0.0
    for x, a in pairs:
        cum += a
        if cum >= (1.0 - theta) - 1e-12:
            return float(x)
    return float(pairs[-1][0])


def tail_average_naive(values, weights, theta: float) -> float:
    """Average of the largest values carrying total weight theta.

    Walks the sample from the top down and splits the boundary atom
    fractionally. This is a different route to the superquantile than the
    threshold formula the library uses.
    """
    pairs = sorted(zip(values, weights), key=lambda p: p[0], reverse=True)
    remaining = theta
    acc = 0.0
    for x, a in pairs:
        take = min(a, remaining)
        acc += take * x
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / theta


def pinball_naive(values, weights, tau: float, mu: float) -> float:
    total = 0.0
    for x, a in zip(values, weights):
        rho = x - mu
        total += a * (tau * rho if rho >= 0.0 else (tau - 1.0) * rho)
    return total


def grid_pinball_minimum(values, weights, tau: float, lo: float, hi: float, step: float):
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([pinball_naive(values, weights, tau, m) for m in grid])
    return float(grid[int(vals.argmin())]), float(vals.min())


# ---------------------------------------------------------------------------
# worst-case reweighting polytope {pi in simplex : pi_k <= alpha_k / theta}


def feasible_vertices(alpha, theta: float) -> list[np.ndarray]:
    """All vertices of the capped simplex, by direct enumeration.

    A vertex pins every coordinate except at most one to either 0 or its cap;
    the leftover coordinate absorbs the remaining mass. Intended for small
    instances (a handful of coordinates) only.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    caps = alpha / theta
    n = alpha.size
    out: list[np.ndarray] = []
    tol = 1e-12
    for upper in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        s = float(caps[list(upper)].sum()) if upper else 0.0
        if s > 1.0 + tol:
            continue
        if abs(s - 1.0) <= tol:
            v = np.zeros(n)
            v[list(upper)] = caps[list(upper)]
            out.append(v)
            continue
        r = 1.0 - s
        for j in range(n):
            if j in upper:
                continue
            if r <= caps[j] + tol:
                v = np.zeros(n)
                v[list(upper)] = caps[list(upper)]
                v[j] = r
                out.append(v)
    return out


def max_reweighted_mean(values, alpha, theta: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    best = -math.inf
    for v in feasible_vertices(alpha, theta):
        best = max(best, float(np.dot(v, values)))
    return best


# ---------------------------------------------------------------------------
# calculus and model-loss oracles


def fd_gradient(f, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def point_loss_naive(kind: str, w, x, y, l2: float = 0.0, num_classes: int = 2) -> float:
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if kind == "squared_distance":
        base = float(np.sum((x - w) ** 2))
    elif kind == "binary_logistic":
        m = float(y) * float(np.dot(w, x))
        # log(1 + exp(-m)) via the stable split
        base = math.log1p(math.exp(-abs(m))) + max(-m, 0.0)
    elif kind == "multinomial_logistic":
        W = w.reshape(num_classes, x.size)
        scores = W @ x
        scores = scores - scores.max()
        base = math.log(np.exp(scores).sum()) - float(scores[int(y)])
    else:
        raise ValueError(kind)
    return base + 0.5 * l2 * float(np.dot(w, w))


def device_loss_naive(kind: str, w, X, ys, l2: float = 0.0, num_classes: int = 2) -> float:
    total = 0.0
    for x, y in zip(X, ys):
        total += point_loss_naive(kind, w, x, y, l2, num_classes)
    return total / len(ys)


def device_error_naive(kind: str, w, X, ys, num_classes: int = 2) -> float:
    w = np.asarray(w, dtype=np.float64)
    wrong = 0
    for x, y in zip(X, ys):
        if kind == "binary_logistic":
            pred = 1 if float(np.dot(w, x)) > 0 else -1
        else:
            W = w.reshape(num_classes, -1)
            scores = W @ np.asarray(x, dtype=np.float64)
            pred = int(np.argmax(scores))
        if pred != int(y):
            wrong += 1
    return wrong / len(ys)


def _log_softmax_reference(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_grad_reference(spec, w, X, y) -> np.ndarray:
    """Gradient of the mean loss over the batch, ridge term included, for a
    tailfed LossSpec: the closed-form per-batch formula of each loss kind."""
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    w = np.asarray(w, dtype=np.float64)
    expected = spec.num_classes * p if spec.kind == "multinomial_logistic" else p
    if w.shape != (expected,):
        raise ValueError(f"parameter vector must have shape ({expected},), got {w.shape}")
    if spec.kind == "squared_distance":
        grad = 2.0 * (w - X.mean(axis=0))
    elif spec.kind == "binary_logistic":
        yv = np.asarray(y, dtype=np.float64)
        margins = yv * (X @ w)
        # d/dm log(1+exp(-m)) = -sigmoid(-m)
        sig = 1.0 / (1.0 + np.exp(np.clip(margins, -500.0, 500.0)))
        grad = -(X * (yv * sig)[:, None]).mean(axis=0)
    else:
        W = w.reshape(spec.num_classes, p)
        probs = np.exp(_log_softmax_reference(X @ W.T))
        idx = np.asarray(y, dtype=np.int64)
        probs[np.arange(n), idx] -= 1.0
        grad = (probs.T @ X / n).reshape(-1)
    return grad + spec.l2_reg * w
