"""Simulated secure aggregation and a quantile protocol built on top of it.

The server only ever needs weighted averages. In masked mode each client
perturbs its contribution with pairwise antisymmetric noise derived from a
shared seed; the noise cancels in the sum, so the server learns the average
while every individual payload it sees is masked. A transcript records what
crossed the wire so tests can audit exactly that.

The quantile protocol reformulates quantile estimation as minimization of
the pinball loss and runs a majorize-minimize iteration whose numerator and
denominator sums travel together as one weighted sum per step, so one step
is one secure-aggregation round trip and composes with masking.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import stream
from .superquantile import WeightedValues

Contribution = tuple[np.ndarray, float]

# Floor for majorize-minimize denominators; also the coincidence tolerance
# for snapping onto a data point.
MM_CLIP = 1e-12
# Majorize-minimize stops once an iterate moves by no more than this.
MM_TOL = 1e-10
# Standard deviation of every pairwise mask entry.
MASK_SCALE = 1e3


class AggregationTranscript:
    """The (n, dim+1) payloads the server summed, one row per client, and any flags."""

    def __init__(self, payloads: np.ndarray, flags: list[str] | None = None) -> None:
        self.payloads = payloads
        self.flags = [] if flags is None else flags


def _check_contributions(contributions: Sequence[Contribution]) -> tuple[np.ndarray, np.ndarray]:
    """The contributions as one (n, dim) matrix and one (n,) weight vector."""
    if len(contributions) == 0:
        raise ValueError("aggregation needs at least one contribution")
    try:
        vectors = np.array([v for v, _ in contributions], dtype=np.float64)
    except ValueError as exc:
        if len({np.shape(v) for v, _ in contributions}) > 1:
            raise ValueError("contributions must share one dimension") from exc
        raise
    if vectors.ndim != 2:
        raise ValueError("contributions must be vectors")
    weights = np.array([w for _, w in contributions], dtype=np.float64)
    bad = ~(weights > 0.0)
    if bad.any():
        raise ValueError(f"contribution weights must be positive, got {float(weights[bad][0])!r}")
    return vectors, weights


def plain_weighted_sum(contributions: Sequence[Contribution]) -> np.ndarray:
    """Weighted average of the contributions, weights renormalized over the set."""
    return _weighted_mean(*_check_contributions(contributions))


def _weighted_mean(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # plain_weighted_sum of checked rows and weights; a round passes the
    # matrix it trained. A running sum from zero, row by row in order, as a
    # loop adds them: .sum(axis=0) adds a single column pairwise, which
    # changes the last bits of the result.
    rows = np.concatenate([np.zeros((1, vectors.shape[1])), weights[:, None] * vectors])
    return rows.cumsum(axis=0)[-1] / weights.sum()


def masked_weighted_sum(
    contributions: Sequence[Contribution], pairwise_seed: int
) -> tuple[np.ndarray, AggregationTranscript]:
    """Weighted average computed from masked payloads.

    Client k's payload is [w_k * v_k, w_k] plus one mask per pair i < j,
    added by client i and subtracted by client j, so the masks cancel when
    the server adds the payloads and leave the exact numerator and
    denominator. Every mask of one call comes from ``stream(pairwise_seed)``.
    A single contributor cannot be masked, so that case degenerates to the
    plain path and is flagged on the transcript.
    """
    vectors, weights = _check_contributions(contributions)
    n, dim = vectors.shape
    payloads = np.column_stack([weights[:, None] * vectors, weights])
    if n == 1:
        return vectors[0].copy(), AggregationTranscript(payloads, ["single_contributor_unmasked"])
    rng = stream(pairwise_seed)
    for i in range(n - 1):
        # Client i's masks for every j > i, one row each.
        masks = rng.normal(0.0, MASK_SCALE, size=(n - i - 1, dim + 1))
        payloads[i] += masks.sum(axis=0)
        payloads[i + 1 :] -= masks
    total = payloads.sum(axis=0)
    return total[:dim] / total[dim], AggregationTranscript(payloads)


def audit_transcript(
    transcript: AggregationTranscript, contributions: Sequence[Contribution]
) -> dict:
    """Compare the payloads the server received against raw contributions.

    Returns the smallest relative distance between any payload and any raw
    contribution (both the bare vector and its weighted form are checked).
    A healthy unflagged transcript keeps this far above 1e-9.
    """
    vectors, weights = _check_contributions(contributions)
    raws = np.column_stack([np.vstack([weights[:, None] * vectors, vectors]), np.tile(weights, 2)])
    denom = np.maximum(np.linalg.norm(raws, axis=1), 1.0)
    min_rel = float((np.linalg.norm(transcript.payloads[:, None, :] - raws, axis=2) / denom).min())
    leaked = not transcript.flags and min_rel <= 1e-9
    return {"min_relative_distance": min_rel, "leaked": bool(leaked), "flags": list(transcript.flags)}


class PinballSpec:
    """A weighted sample plus the quantile level tau in (0, 1); read-only once built."""

    def __init__(self, values: np.ndarray, weights: np.ndarray, tau: float) -> None:
        wv = WeightedValues(values, weights)
        if not (0.0 < tau < 1.0):
            raise ValueError(f"tau must lie strictly inside (0, 1), got {tau!r}")
        object.__setattr__(self, "values", wv.values)
        object.__setattr__(self, "weights", wv.weights)
        object.__setattr__(self, "tau", tau)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: PinballSpec is read-only")


def pinball_loss(spec: PinballSpec, mu: float) -> float:
    """Weighted pinball (quantile regression) loss at threshold mu."""
    rho = spec.values - float(mu)
    per = np.where(rho >= 0.0, spec.tau * rho, (spec.tau - 1.0) * rho)
    return float(np.dot(spec.weights, per))


class MMQuantileResult:
    def __init__(self, value: float, converged: bool, iterations: int, trace: list[float]) -> None:
        self.value = value
        self.converged = converged
        self.iterations = iterations
        self.trace = trace


def _step_off(spec: PinballSpec, c: float) -> float | None:
    """None if c minimizes the pinball loss over the sample, else a step off c.

    A point is a tau-quantile exactly when the weight strictly below it does
    not exceed tau and the weight at-or-below it reaches tau; every
    comparison gets an MM_CLIP collar so float dust in cumulative sums cannot
    flip the verdict. Otherwise the step goes halfway toward c's neighbor on
    the side the loss decreases. The loss is linear between adjacent data
    points, so the half-gap step strictly decreases it.
    """
    x, a = spec.values, spec.weights
    below, at_or_below = x < c - MM_CLIP, x <= c + MM_CLIP
    if spec.tau > float(a[at_or_below].sum()) + MM_CLIP:
        return 0.5 * (c + float(x[~at_or_below].min()))
    if float(a[below].sum()) - MM_CLIP > spec.tau:
        return 0.5 * (c + float(x[below].max()))
    return None


def mm_quantile(
    spec: PinballSpec,
    max_iters: int = 500,
    mask_seed: int | None = None,
    init: float | None = None,
) -> MMQuantileResult:
    """Majorize-minimize iteration for the tau-quantile of a weighted sample.

    Each step solves the quadratic majorizer of the pinball loss at the
    current iterate:

        mu <- (sum_k beta_k x_k + (2 tau - 1)) / sum_k beta_k,
        beta_k = a_k / |x_k - mu|.

    Both sums come from one weighted sum of the rows [beta_k x_k, beta_k],
    one secure-aggregation round trip per step: plain_weighted_sum, or, given
    a mask_seed, masked_weighted_sum under the step's draw from
    ``stream(mask_seed, 1)`` (apart from the masks of
    ``masked_weighted_sum(..., mask_seed)``), so the server never sees a row.
    An iterate that lands on a data point stays there under the update rule,
    so it is returned once it passes the optimality check and stepped off
    otherwise. Non-convergence within max_iters returns the best iterate with
    converged=False.

    init overrides the default starting point (the weighted mean, nudged off
    the data points); starting exactly on a minimizing data point returns it
    immediately.
    """
    sub_seeds = None if mask_seed is None else stream(mask_seed, 1)
    x, a = spec.values, spec.weights
    span = float(x.max() - x.min())
    if span == 0.0:
        return MMQuantileResult(float(x[0]), True, 0, [float(x[0])])
    mu = float(init) if init is not None else float(np.dot(a, x)) + 1e-9 * span
    trace = [mu]
    for it in range(1, max_iters + 1):
        dist = np.abs(x - mu)
        nearest = int(np.argmin(dist))
        if dist[nearest] <= MM_CLIP:
            hit = float(x[nearest])
            # A non-minimizer is not returned, and the beta clip alone cannot
            # pull the iterate off the point. A half-gap step in the descent
            # direction restarts the iteration cleanly.
            mu = _step_off(spec, hit)
            if mu is None:
                trace.append(hit)
                return MMQuantileResult(hit, True, it, trace)
            trace.append(mu)
            continue
        beta = a / np.maximum(dist, MM_CLIP)
        rows = [(row, 1.0) for row in np.column_stack([beta * x, beta])]
        sums = masked_weighted_sum(rows, int(sub_seeds.integers(1 << 63)))[0] if sub_seeds else plain_weighted_sum(rows)
        num, den = (sums * x.size).tolist()
        mu_next = (num + (2.0 * spec.tau - 1.0)) / den
        # A minimizer of a discrete pinball loss is always a data point, and
        # the plain iteration only crawls into it geometrically. Once the
        # nearest point passes the quantile optimality check, finishing there
        # is exact and cannot increase the loss. (Comparing the two losses
        # as well would let roundoff in the sums decide on a flat stretch.)
        near = float(x[np.argmin(np.abs(x - mu_next))])
        if _step_off(spec, near) is None:
            trace.append(near)
            return MMQuantileResult(near, True, it, trace)
        trace.append(mu_next)
        if abs(mu_next - mu) <= MM_TOL:
            return MMQuantileResult(mu_next, True, it, trace)
        mu = mu_next
    best = min(trace, key=lambda m: pinball_loss(spec, m))
    return MMQuantileResult(best, False, max_iters, trace)


def secure_quantile_for_round(
    losses: Sequence[float],
    weights: Sequence[float],
    theta: float,
    mask_seed: int | None = None,
) -> float:
    """(1-theta)-quantile of reported losses via the MM protocol, masked under
    mask_seed when one is given.

    theta = 1 short-circuits to the minimum loss, the 0-quantile, which every
    reported loss reaches; training rounds at theta = 1 take no threshold and
    do not call this.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if float(theta) == 1.0:
        return float(losses.min())
    w = np.asarray(weights, dtype=np.float64)
    spec = PinballSpec(losses, w / w.sum(), tau=1.0 - float(theta))
    return mm_quantile(spec, mask_seed=mask_seed).value
