"""Federated training loops: the tail-focused method, whose theta = 1 case
is uniform averaging, and an idealized alternating-minimization variant.

One communication round samples devices, filters them at theta < 1 to those
whose reported loss reaches the round threshold (the sample's
(1-theta)-quantile), runs local SGD on the survivors, and aggregates the
resulting parameters by a weighted average, plain or masked.

The alternating-minimization path works on full-batch device objectives:
an exact closed-form threshold step alternates with an inexact parameter
step whose suboptimality is driven below a summable tolerance sequence.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Callable

import numpy as np

from . import models
from .data import Population, stream
from .models import LossSpec
from .secure_agg import _weighted_mean, masked_weighted_sum, secure_quantile_for_round
from .superquantile import (
    WeightedValues,
    _stable_order,
    check_conformity,
    check_smoothing,
    plus_objective,
    smoothed_device_coefficients,
    smoothed_eta_star,
    smoothed_objective,
    smoothed_objective_slope,
    superquantile,
    weighted_quantile,
)

AGGREGATION_MODES = ("plain", "masked")
ETA_PROTOCOLS = ("server_direct", "secure_mm")


class FederationConfig:
    def __init__(
        self,
        theta: float = 1.0,
        nu: float = 1e-3,
        devices_per_round: int = 10,
        n_local: int = 1,
        local_epoch: bool = True,  # one shuffled pass of mini-batch SGD instead of n_local point steps
        batch_size: int = 10,
        lr0: float = 0.1,
        lr_decay: float = 1.0,
        lr_decay_every: int = 1,
        num_rounds: int = 100,
        eta_period: int = 1,
        seed: int = 0,
        loss: LossSpec | None = None,  # binary_logistic, a fresh one per config
        aggregation: str = "plain",
        eta_protocol: str = "server_direct",
    ) -> None:
        self.theta = theta
        self.nu = nu
        self.devices_per_round = devices_per_round
        self.n_local = n_local
        self.local_epoch = local_epoch
        self.batch_size = batch_size
        self.lr0 = lr0
        self.lr_decay = lr_decay
        self.lr_decay_every = lr_decay_every
        self.num_rounds = num_rounds
        self.eta_period = eta_period
        self.seed = seed
        self.loss = LossSpec("binary_logistic") if loss is None else loss
        self.aggregation = aggregation
        self.eta_protocol = eta_protocol
        check_conformity(self.theta)
        check_smoothing(self.nu)
        if self.devices_per_round < 1:
            raise ValueError("devices_per_round must be >= 1")
        if self.n_local < 1:
            raise ValueError("n_local must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 < self.lr0 < math.inf):
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0!r}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.num_rounds < 0:
            raise ValueError("num_rounds must be >= 0")
        if self.eta_period < 1:
            raise ValueError("eta_period must be >= 1")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
        if self.eta_protocol not in ETA_PROTOCOLS:
            raise ValueError(f"eta_protocol must be one of {ETA_PROTOCOLS}")


class RoundLog:
    def __init__(
        self,
        round_index: int,
        sampled_ids: list[str],
        eta: float | None,
        filtered_ids: list[str],
        pre_objective: float,
        post_objective: float,
        update_norm: float,
    ) -> None:
        self.round_index = round_index
        self.sampled_ids = sampled_ids
        self.eta = eta
        self.filtered_ids = filtered_ids
        self.pre_objective = pre_objective
        self.post_objective = post_objective
        self.update_norm = update_norm

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "sampled_ids": list(self.sampled_ids),
            "eta": self.eta,
            "filtered_ids": list(self.filtered_ids),
            "pre_objective": self.pre_objective,
            "post_objective": self.post_objective,
            "update_norm": self.update_norm,
        }


class EvalSnapshot:
    def __init__(self, round_index: int, params: np.ndarray) -> None:
        self.round_index = round_index
        self.params = params


class FederatedRun:
    def __init__(self, params: np.ndarray, rounds: list[RoundLog], snapshots: list[EvalSnapshot]) -> None:
        self.params = params
        self.rounds = rounds
        self.snapshots = snapshots


def lr_schedule(cfg: FederationConfig, t: int) -> float:
    """Step size for round t: lr0 * lr_decay ** floor(t / lr_decay_every)."""
    return cfg.lr0 * cfg.lr_decay ** (t // cfg.lr_decay_every)


def _visiting_orders(cfg: FederationConfig, sizes: np.ndarray, offsets: np.ndarray, rng: np.random.Generator) -> tuple:
    # Every device's visiting order in one draw on rng: one flat array of
    # packed rows grouped by device, and each device's visit count, for
    # devices of the given sizes whose rows start at the given offsets. Point
    # mode draws n_local rows per device with replacement. Epoch mode sorts one
    # uniform key per row within its device: keys lie in [0, 1), so device +
    # key keeps devices apart, and a stable sort breaks a rounding tie by row.
    n = cfg.n_local
    if not cfg.local_epoch:
        return offsets.repeat(n) + rng.integers(sizes.repeat(n)), np.full(sizes.size, n)
    device = np.arange(sizes.size).repeat(sizes)
    return _stable_order(device + rng.random(device.size)), sizes


def _batch_size(cfg: FederationConfig) -> int:
    # Point mode takes single-example steps.
    return cfg.batch_size if cfg.local_epoch else 1


def local_update(
    shard: Population,
    w: np.ndarray,
    lr: float,
    cfg: FederationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Local SGD pass on one device, starting from the broadcast parameters.

    ``shard`` is a one-device population, such as ``pop.shards[k]``. Epoch
    mode shuffles its rows once and walks them in mini-batches; point mode
    performs n_local single-example steps sampled with replacement. This is
    the one-device case of a round's local training: the order is drawn from
    rng as a round draws from its stream, with the same kernel.
    """
    if len(shard) != 1:
        raise ValueError(f"local_update trains one device, got a population of {len(shard)}")
    w = models._check_params(cfg.loss, w, shard.feature_dim)
    y = models._labels_for(cfg.loss, shard.labels)
    order, counts = _visiting_orders(cfg, shard.sizes, shard.offsets, rng)
    return models._local_sgd(cfg.loss, w, shard.features, y, order, counts, lr, _batch_size(cfg))[0]


def _finite_losses(evaluate: Callable[[], np.ndarray], ids: list[str], t: int, which: str) -> np.ndarray:
    # The sampled devices' losses, from evaluate(). A non-finite loss means
    # training diverged: name the round and the device here, instead of
    # numpy's overflow warning on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        losses = evaluate()
    if not np.isfinite(losses).all():
        k = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise FloatingPointError(
            f"round {t} diverged: device {ids[k]!r} has a non-finite {which} loss ({float(losses[k])})"
        )
    return losses


def deltafl_round(
    pop: Population,
    w: np.ndarray,
    cfg: FederationConfig,
    t: int,
    eta_override: float | None = None,
) -> tuple[np.ndarray, RoundLog]:
    """One round of tail-filtered training, the only round body.

    Sampled devices report losses. At theta < 1 the round threshold eta is
    the sample's (1-theta)-quantile (or a frozen value passed by the caller),
    and only devices at or above eta run local updates and are averaged. At
    theta = 1 the round takes no threshold (eta is None, eta_override is
    ignored) and every sampled device trains: federated averaging. The round
    stream stream(cfg.seed, 2, t) draws the sample, then every sampled
    device's visiting order, then the mask seed.
    """
    spec, rng = cfg.loss, stream(cfg.seed, 2, t)
    w = models._check_params(spec, w, pop.feature_dim)
    # Uniform sampling with replacement; duplicates collapse to one slot. A
    # count sorts them: np.unique's first call adds ~1.7 MB of peak memory.
    idx = np.bincount(rng.integers(0, len(pop), size=cfg.devices_per_round), minlength=len(pop)).nonzero()[0]
    # The sample's rows, gathered once: both loss passes and local SGD read them.
    rows, sizes, offsets = pop._rows(idx)
    X, y = pop.features.take(rows, axis=0), models._labels_for(spec, pop.labels.take(rows))
    ids = [pop.device_ids[k] for k in idx.tolist()]
    # Orders come before filtering, so a survivor's order does not depend on who
    # else survived, and before the mask seed, so plain and masked rounds agree.
    order, counts = _visiting_orders(cfg, sizes, offsets, rng)
    mask_seed = int(rng.integers(1 << 62)) if cfg.aggregation == "masked" else None
    weights = pop.weights[idx]
    sample_weights = weights / weights.sum()
    losses = _finite_losses(lambda: models._device_losses(spec, w, X, y, offsets, sizes), ids, t, "reported")
    # One profile of the reported losses serves the threshold and
    # pre_objective, so the losses are sorted at most once.
    reported = WeightedValues(losses, sample_weights)

    if cfg.theta < 1.0:
        if eta_override is not None:
            eta = float(eta_override)
        elif cfg.eta_protocol == "secure_mm":
            eta = secure_quantile_for_round(reported.values, reported.weights, cfg.theta, mask_seed)
        else:
            eta = weighted_quantile(reported, cfg.theta)
        keep = losses >= eta
        if not keep.any():
            # No device reaches the threshold. A fresh quantile is one of these
            # losses, so only protocol noise empties it; a threshold frozen from
            # an earlier round (eta_period > 1) empties it whenever every loss
            # has since fallen below it. Train the single worst device instead,
            # so the round still makes progress.
            keep[np.argmax(losses)] = True
    else:
        eta, keep = None, np.ones(len(idx), dtype=bool)

    # The sample trains as drawn, but a dropped device has no visits: it takes
    # no step and has no row in the result.
    visits = keep.repeat(counts)
    lr = lr_schedule(cfg, t)
    trained = models._local_sgd(spec, w, X, y, order[visits], counts * keep, lr, _batch_size(cfg))
    if cfg.aggregation == "masked":
        w_next = masked_weighted_sum(list(zip(trained, weights[keep])), mask_seed)[0]
    else:
        w_next = _weighted_mean(trained, weights[keep])

    post_losses = _finite_losses(
        lambda: models._device_losses(spec, w_next, X, y, offsets, sizes), ids, t, "post-round"
    )
    step = w_next - w  # its norm as np.linalg.norm computes it, without the wrapper
    log = RoundLog(
        round_index=t,
        sampled_ids=ids,
        eta=eta,
        filtered_ids=list(compress(ids, keep)),
        pre_objective=superquantile(reported, cfg.theta),
        post_objective=superquantile(WeightedValues(post_losses, sample_weights), cfg.theta),
        update_norm=math.sqrt(step.dot(step)),
    )
    return w_next, log


def run_federated(
    pop: Population,
    cfg: FederationConfig,
    algorithm: str = "deltafl",
    eval_every: int = 0,
    w0: np.ndarray | None = None,
    on_round: Callable[[RoundLog], None] | None = None,
    on_snapshot: Callable[[EvalSnapshot], None] | None = None,
) -> FederatedRun:
    """Drive num_rounds rounds of the chosen algorithm from w0 (zeros by default).

    fedavg is the theta = 1 round, so it runs with cfg.theta replaced by 1.
    At theta < 1 the round threshold is recomputed every eta_period rounds
    and frozen in between (the sampled set still changes each round).
    Snapshots of the parameters are recorded every eval_every rounds when
    requested; on_round, if given, gets each round's log as the round ends,
    and on_snapshot each snapshot as it is taken.
    A round whose reported or post-round losses are non-finite raises
    FloatingPointError naming the round and the first such device.
    """
    if algorithm not in ("deltafl", "fedavg"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "fedavg":
        cfg = FederationConfig(**vars(cfg) | {"theta": 1.0})  # a checked copy: its attributes are its fields
    w = (
        np.array(w0, dtype=np.float64)
        if w0 is not None
        else models.init_params(cfg.loss, pop.feature_dim)
    )
    logs: list[RoundLog] = []
    snapshots: list[EvalSnapshot] = []
    frozen_eta: float | None = None
    for t in range(cfg.num_rounds):
        w, log = deltafl_round(pop, w, cfg, t, eta_override=frozen_eta if t % cfg.eta_period else None)
        frozen_eta = log.eta
        logs.append(log)
        if on_round is not None:
            on_round(log)
        if eval_every > 0 and (t + 1) % eval_every == 0:
            snapshots.append(EvalSnapshot(round_index=t, params=w.copy()))
            if on_snapshot is not None:
                on_snapshot(snapshots[-1])
    return FederatedRun(params=w, rounds=logs, snapshots=snapshots)


# ---------------------------------------------------------------------------
# Alternating minimization on full-batch device objectives.


class PopulationObjective:
    """Full-batch objectives F_k of every device, evaluated together.

    ``point(w)`` evaluates every device once at w. It returns every F_k(w)
    in device order and a function coeff -> sum_k coeff[k] * grad F_k(w)
    that reads what the value pass computed (for the logistic losses, the
    margins), so a value and any number of weighted gradients at one w cost
    one pass over the population. Read-only once built.
    """

    def __init__(
        self,
        point: Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]],
        weights: np.ndarray,
    ) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: PopulationObjective is read-only")


def population_objectives(pop: Population, spec: LossSpec) -> PopulationObjective:
    return PopulationObjective(point=models._packed_point(spec, pop), weights=pop.weights)


def quadratic_objectives(centers, offsets=None, weights=None) -> PopulationObjective:
    """Analytic devices F_k(w) = ||w - c_k||^2 + b_k, handy for exact studies."""
    centers = np.asarray(centers, dtype=np.float64)
    n = centers.shape[0]
    offsets = np.zeros(n) if offsets is None else np.asarray(offsets, dtype=np.float64)
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=np.float64)

    def point(w: np.ndarray):
        w = np.array(w, dtype=np.float64)
        diff = w - centers

        def weighted_grad(coeff: np.ndarray) -> np.ndarray:
            coeff = np.asarray(coeff, dtype=np.float64)
            return 2.0 * (coeff.sum() * w - coeff @ centers)

        return np.einsum("kp,kp->k", diff, diff) + offsets, weighted_grad

    return PopulationObjective(point=point, weights=weights)


class PowerLawSchedule:
    """Inexactness budgets eps_t = eps0 * (t + 1) ** (-exponent), exponent > 1.

    The exponent restriction keeps the series summable (by integral
    comparison its total is at most eps0 * (1 + 1/(exponent - 1))), which is
    what the convergence guarantee of the alternating scheme needs.
    Read-only once built.
    """

    def __init__(self, eps0: float, exponent: float = 1.5) -> None:
        if not (0.0 < eps0 < math.inf):
            raise ValueError(f"eps0 must be positive and finite, got {eps0!r}")
        if not (1.0 < exponent < math.inf):
            raise ValueError(f"exponent must be finite and exceed 1 for a summable budget, got {exponent!r}")
        object.__setattr__(self, "eps0", eps0)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: PowerLawSchedule is read-only")

    def __call__(self, t: int) -> float:
        return self.eps0 * (t + 1) ** (-self.exponent)


class CertifiedGradientDescent:
    """Parameter-step solver: monotone gradient descent with a stopping certificate.

    Stops once ||grad||^2 / (2 * strong_convexity) <= margin * eps. The
    modulus is caller-supplied (exact for quadratic devices, an estimate
    otherwise) and the margin buys slack against misestimation, so the
    returned point typically lands well inside the requested suboptimality.
    """

    def __init__(
        self, strong_convexity: float = 1.0, initial_step: float = 0.25, margin: float = 1e-3, max_iters: int = 200_000
    ) -> None:
        self.strong_convexity = strong_convexity
        self.initial_step = initial_step
        self.margin = margin
        self.max_iters = max_iters
        for name in ("strong_convexity", "initial_step", "margin", "max_iters"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")

    def solve(
        self,
        value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
        w0: np.ndarray,
        eps: float,
    ) -> np.ndarray:
        target = 2.0 * self.strong_convexity * self.margin * eps
        w = np.array(w0, dtype=np.float64)
        f, g = value_grad(w)
        step = self.initial_step
        for _ in range(self.max_iters):
            sq = float(np.dot(g, g))
            if sq <= target:
                return w
            while True:
                w_try = w - step * g
                f_try, g_try = value_grad(w_try)
                if f_try <= f - 1e-4 * step * sq:
                    break
                step *= 0.5
                if step < 1e-18:
                    raise RuntimeError(
                        "parameter step stalled: no descent direction at "
                        f"gradient norm {math.sqrt(sq):.3e}"
                    )
            w, f, g = w_try, f_try, g_try
            step *= 2.0
        raise RuntimeError(
            f"parameter step failed to certify eps={eps:.3e} within "
            f"{self.max_iters} iterations (gradient norm {float(np.linalg.norm(g)):.3e})"
        )


class AMIterate:
    # values: every device's objective value at params, in device order.
    def __init__(
        self,
        params: np.ndarray,
        eta: float,
        grad_norm: float,
        eta_slope: float,
        smoothed_value: float,
        nonsmooth_value: float,
        values: np.ndarray,
    ) -> None:
        self.params = params
        self.eta = eta
        self.grad_norm = grad_norm
        self.eta_slope = eta_slope
        self.smoothed_value = smoothed_value
        self.nonsmooth_value = nonsmooth_value
        self.values = values

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "grad_norm": self.grad_norm,
            "eta_slope": self.eta_slope,
            "smoothed_value": self.smoothed_value,
            "nonsmooth_value": self.nonsmooth_value,
        }


class AMResult:
    def __init__(self, iterates: list[AMIterate]) -> None:
        self.iterates = iterates

    @property
    def params(self) -> np.ndarray:
        return self.iterates[-1].params


def _objective_state(objectives: PopulationObjective, w: np.ndarray) -> tuple[WeightedValues, Callable]:
    # One point evaluation: the device values as a profile, and the weighted gradient at w.
    values, weighted_grad = objectives.point(w)
    return WeightedValues(values, objectives.weights / objectives.weights.sum()), weighted_grad


def _memo_last(fn: Callable) -> Callable:
    # fn, remembering its last call: a one-entry memo of a deterministic
    # function, keyed on the exact bytes of its array or float arguments.
    # The old result is dropped before fn runs, so two are never held.
    last: list = [None, None]

    def call(*args):
        key = [np.asarray(a).tobytes() for a in args]
        if key != last[0]:
            last[:] = None, None
            last[:] = key, fn(*args)
        return last[1]

    return call


def smoothed_full_gradient(
    pop: Population, spec: LossSpec, w: np.ndarray, eta: float, theta: float, nu: float
) -> tuple[np.ndarray, float]:
    """Gradient of the smoothed tail objective over a population.

    Returns (parameter gradient, threshold partial derivative). The parameter
    gradient is the coefficient-weighted sum of device gradients.
    """
    wv, weighted_grad = _objective_state(population_objectives(pop, spec), w)
    coeff = smoothed_device_coefficients(wv, theta, nu, eta)
    return weighted_grad(coeff), smoothed_objective_slope(wv, theta, nu, eta)


def am_meta(
    objectives: PopulationObjective,
    theta: float,
    nu: float,
    schedule: Callable[[int], float],
    solver: CertifiedGradientDescent,
    num_iters: int,
    w0: np.ndarray,
    on_iterate: Callable[[AMIterate], None] | None = None,
) -> AMResult:
    """Alternating minimization of the smoothed tail objective.

    Each iteration takes the exact closed-form threshold step, records the
    joint gradient norm at the fresh pair, then runs the certified parameter
    step against the inexactness budget schedule(t). The recorded threshold
    slope is zero after every threshold step up to roundoff, and the smoothed
    objective never increases by more than the budget between iterations.
    on_iterate, if given, gets each iterate as it is recorded (the start
    point first).

    Each distinct parameter vector is evaluated once (one
    ``objectives.point`` call): the record of an iterate reuses the point
    the parameter step accepted, and the step's first value and gradient
    are the ones the record computed at the same w and threshold.
    """
    theta = check_conformity(theta)
    nu = check_smoothing(nu)
    w = np.array(w0, dtype=np.float64)
    iterates: list[AMIterate] = []
    state = _memo_last(lambda w_cur: _objective_state(objectives, w_cur))

    @_memo_last
    def value_grad(w_cur: np.ndarray, eta: float) -> tuple[float, np.ndarray]:
        wv, weighted_grad = state(w_cur)
        coeff = smoothed_device_coefficients(wv, theta, nu, eta)
        return smoothed_objective(wv, theta, nu, eta), weighted_grad(coeff)

    def record(w_cur: np.ndarray) -> float:
        wv, _ = state(w_cur)
        eta = smoothed_eta_star(wv, theta, nu)
        value, grad_w = value_grad(w_cur, eta)
        slope = smoothed_objective_slope(wv, theta, nu, eta)
        iterates.append(
            AMIterate(
                params=w_cur.copy(),
                eta=eta,
                grad_norm=float(np.sqrt(np.dot(grad_w, grad_w) + slope * slope)),
                eta_slope=slope,
                smoothed_value=value,
                nonsmooth_value=plus_objective(wv, theta, eta),
                values=wv.values,
            )
        )
        if on_iterate is not None:
            on_iterate(iterates[-1])
        return eta

    eta = record(w)
    for t in range(num_iters):
        w = solver.solve(lambda w_try, eta_t=eta: value_grad(w_try, eta_t), w, schedule(t))
        eta = record(w)
    return AMResult(iterates)
