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


# ---------------------------------------------------------------------------
# a whole training run


def _round_stream(seed: int, t: int) -> np.random.Generator:
    # The round stream (tag 2, t) of the README's Reproducibility table.
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), 2, t)))


def run_reference(pop, cfg, algorithm: str = "deltafl"):
    """``run_federated(pop, cfg, algorithm)`` from zeros, one device, batch and row at a time.

    Written from the documentation of ``deltafl_round`` and ``run_federated``.
    Round t draws from its stream, in order: ``devices_per_round`` uniform
    device indices (duplicates collapse, the sample is sorted); then in epoch
    mode one uniform key per row of the sample, device after device, each
    device visiting its rows by (slot in the sample + key), a tie in row
    order, or in point mode ``n_local`` uniform rows per device; then the
    mask seed, if aggregation is masked. At theta < 1 the threshold is the
    sample's (1-theta)-quantile, taken every ``eta_period`` rounds and kept
    in between; devices at or above it train, or the worst device alone if
    none is. fedavg is theta 1: no threshold, every sampled device trains.
    Survivors run SGD from the round's parameters and are averaged under
    their population weights, renormalized over the survivors. A masked
    average equals the plain one up to roundoff, so it is not simulated.

    Returns the final parameters and, per round, a dict of the round log's
    fields (``sampled_ids``, ``eta``, ``filtered_ids``, ``pre_objective``,
    ``post_objective``, ``update_norm``).
    """
    spec = cfg.loss
    theta = 1.0 if algorithm == "fedavg" else cfg.theta
    shards = pop.shards

    def loss(w, shard):
        return device_loss_naive(spec.kind, w, shard.features, shard.labels, spec.l2_reg, spec.num_classes)

    w = np.zeros(spec.param_dim(pop.feature_dim))
    eta = None
    logs = []
    for t in range(cfg.num_rounds):
        rng = _round_stream(cfg.seed, t)
        sample = sorted(set(int(k) for k in rng.integers(0, len(shards), size=cfg.devices_per_round)))
        orders = []
        if cfg.local_epoch:
            keys = rng.random(sum(int(pop.sizes[k]) for k in sample))
            first = 0
            for slot, k in enumerate(sample):
                n = int(pop.sizes[k])
                orders.append(sorted(range(n), key=lambda i: slot + float(keys[first + i])))
                first += n
            batch = cfg.batch_size
        else:
            for k in sample:
                orders.append([int(rng.integers(int(pop.sizes[k]))) for _ in range(cfg.n_local)])
            batch = 1
        if cfg.aggregation == "masked":
            rng.integers(1 << 62)

        weights = [float(pop.weights[k]) for k in sample]
        total = sum(weights)
        probs = [a / total for a in weights]
        losses = [loss(w, shards[k]) for k in sample]
        if theta < 1.0:
            if t % cfg.eta_period == 0:
                eta = quantile_naive(losses, probs, theta)
            keep = [x >= eta - 1e-12 for x in losses]
            if not any(keep):
                keep[losses.index(max(losses))] = True
        else:
            eta, keep = None, [True] * len(sample)

        lr = cfg.lr0 * cfg.lr_decay ** (t // cfg.lr_decay_every)
        num, den = np.zeros_like(w), 0.0
        for k, order, a, kept in zip(sample, orders, weights, keep):
            if not kept:
                continue
            v = w.copy()
            for start in range(0, len(order), batch):
                rows = order[start : start + batch]
                v = v - lr * batch_grad_reference(spec, v, shards[k].features[rows], shards[k].labels[rows])
            num = num + a * v
            den += a
        w_next = num / den

        ids = [pop.device_ids[k] for k in sample]
        logs.append(
            {
                "sampled_ids": ids,
                "eta": eta,
                "filtered_ids": [d for d, kept in zip(ids, keep) if kept],
                "pre_objective": tail_average_naive(losses, probs, theta),
                "post_objective": tail_average_naive([loss(w_next, shards[k]) for k in sample], probs, theta),
                "update_norm": float(np.linalg.norm(w_next - w)),
            }
        )
        w = w_next
    return w, logs
