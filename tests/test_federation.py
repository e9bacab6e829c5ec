"""Round mechanics, the two training loops, and alternating minimization."""

import numpy as np
import pytest

from tailfed import (
    CertifiedGradientDescent,
    FederationConfig,
    LossSpec,
    Population,
    PopulationObjective,
    PowerLawSchedule,
    WeightedValues,
    am_meta,
    deltafl_round,
    gen_hetero_logistic,
    lr_schedule,
    plus_objective,
    population_objectives,
    quadratic_objectives,
    run_federated,
    smoothed_device_coefficients,
    smoothed_eta_star,
    smoothed_full_gradient,
    smoothed_objective,
    smoothed_objective_slope,
    superquantile,
)
from tailfed.federation import local_update
from tailfed import models

from oracles import batch_grad_reference, fd_gradient


def small_population(seed=2, num_devices=12):
    return gen_hetero_logistic(
        num_devices=num_devices, n_range=(5, 15), feature_dim=3, num_classes=2,
        heterogeneity=0.8, seed=seed,
    )


def base_config(**kw):
    defaults = dict(
        theta=0.5, nu=1e-3, devices_per_round=8, lr0=0.5, num_rounds=10,
        seed=0, loss=LossSpec("binary_logistic"),
    )
    defaults.update(kw)
    return FederationConfig(**defaults)


# ---------------------------------------------------------------------------
# config and schedule


def test_config_validation():
    with pytest.raises(ValueError):
        FederationConfig(theta=0.0)
    with pytest.raises(ValueError):
        FederationConfig(nu=0.0)
    with pytest.raises(ValueError):
        FederationConfig(devices_per_round=0)
    with pytest.raises(ValueError):
        FederationConfig(lr_decay=0.0)
    with pytest.raises(ValueError):
        FederationConfig(num_rounds=-1)
    with pytest.raises(ValueError):
        FederationConfig(aggregation="carrier_pigeon")
    with pytest.raises(ValueError):
        FederationConfig(eta_protocol="telepathy")


def test_lr_schedule_staircase():
    cfg = base_config(lr0=0.5, lr_decay=0.5, lr_decay_every=10)
    assert lr_schedule(cfg, 0) == 0.5
    assert lr_schedule(cfg, 9) == 0.5
    assert lr_schedule(cfg, 10) == 0.25
    assert lr_schedule(cfg, 25) == 0.125


def test_lr_schedule_constant_when_decay_one():
    cfg = base_config(lr0=0.3, lr_decay=1.0)
    assert lr_schedule(cfg, 1000) == 0.3


# ---------------------------------------------------------------------------
# local updates


def test_local_update_deterministic_given_rng_seed():
    pop = small_population()
    cfg = base_config()
    w = np.zeros(3)
    a = local_update(pop.shards[0], w, 0.1, cfg, np.random.default_rng(5))
    b = local_update(pop.shards[0], w, 0.1, cfg, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_local_update_single_full_batch_is_one_gradient_step():
    pop = small_population()
    shard = pop.shards[0]
    cfg = base_config(batch_size=1000)  # one batch covers the shard
    w = np.array([0.1, -0.2, 0.3])
    got = local_update(shard, w, 0.25, cfg, np.random.default_rng(0))
    want = w - 0.25 * batch_grad_reference(cfg.loss, w, shard.features, shard.labels)
    assert np.allclose(got, want, atol=1e-12)


def test_local_update_point_mode_runs_n_steps():
    pop = small_population()
    cfg = base_config(local_epoch=False, n_local=5)
    w = np.zeros(3)
    out = local_update(pop.shards[0], w, 0.1, cfg, np.random.default_rng(1))
    assert not np.array_equal(out, w)


# ---------------------------------------------------------------------------
# single rounds


def test_deltafl_filter_respects_threshold():
    pop = small_population()
    cfg = base_config(theta=0.4)
    w = np.zeros(3)
    _, log = deltafl_round(pop, w, cfg, t=0)
    losses = {d: models.device_loss(cfg.loss, w, s) for d, s in zip(pop.device_ids, pop.shards)}
    assert log.eta is not None
    for dev in log.filtered_ids:
        assert losses[dev] >= log.eta - 1e-12
    dropped = set(log.sampled_ids) - set(log.filtered_ids)
    for dev in dropped:
        assert losses[dev] < log.eta


def test_deltafl_empty_filter_falls_back_to_worst_device():
    pop = small_population()
    cfg = base_config()
    w = np.zeros(3)
    _, log = deltafl_round(pop, w, cfg, t=0, eta_override=1e9)
    assert len(log.filtered_ids) == 1
    losses = {d: models.device_loss(cfg.loss, w, s) for d, s in zip(pop.device_ids, pop.shards)}
    worst = max(log.sampled_ids, key=lambda d: losses[d])
    assert log.filtered_ids == [worst]


@pytest.mark.parametrize("local_epoch", [True, False])
def test_survivor_order_does_not_depend_on_who_else_survived(monkeypatch, local_epoch):
    pop = small_population()
    cfg = base_config(theta=0.5, local_epoch=local_epoch, n_local=4, batch_size=3)
    w = np.full(3, 0.2)
    captured = []
    kernel = models._local_sgd  # the round trains through the unchecked core

    def capture(spec, w, X, y, order, counts, lr, batch_size):
        # Each device's visits (rows of the sample's gathered rows), keyed by
        # its slot in the sample; a filtered device has none.
        ends = np.cumsum(counts)
        captured.append({k: order[e - c : e] for k, (c, e) in enumerate(zip(counts, ends)) if c})
        return kernel(spec, w, X, y, order, counts, lr, batch_size)

    monkeypatch.setattr(models, "_local_sgd", capture)
    _, fresh = deltafl_round(pop, w, cfg, t=4)
    _, everyone = deltafl_round(pop, w, cfg, t=4, eta_override=0.0)  # every loss is positive
    assert set(fresh.filtered_ids) < set(everyone.filtered_ids) == set(everyone.sampled_ids)
    few, all_visits = (
        {log.sampled_ids[k]: v for k, v in visits.items()} for log, visits in zip((fresh, everyone), captured)
    )
    assert list(few) == fresh.filtered_ids
    for device, visits in few.items():
        assert np.array_equal(visits, all_visits[device])


def test_round_log_objectives_are_sample_superquantiles():
    pop = small_population()
    cfg = base_config(theta=0.5)
    w = np.zeros(3)
    w_next, log = deltafl_round(pop, w, cfg, t=3)
    by_id = {d: k for k, d in enumerate(pop.device_ids)}
    sampled = [pop.shards[by_id[d]] for d in log.sampled_ids]
    wts = np.array([pop.weights[by_id[d]] for d in log.sampled_ids])
    wts = wts / wts.sum()
    pre = superquantile(
        WeightedValues(np.array([models.device_loss(cfg.loss, w, s) for s in sampled]), wts),
        cfg.theta,
    )
    post = superquantile(
        WeightedValues(np.array([models.device_loss(cfg.loss, w_next, s) for s in sampled]), wts),
        cfg.theta,
    )
    assert log.pre_objective == pytest.approx(pre, abs=1e-12)
    assert log.post_objective == pytest.approx(post, abs=1e-12)
    assert log.update_norm == pytest.approx(float(np.linalg.norm(w_next - w)), abs=1e-12)


def test_fedavg_keeps_every_sampled_device():
    pop = small_population()
    cfg = base_config(theta=1.0)
    w_next, log = deltafl_round(pop, np.zeros(3), cfg, t=0)
    assert log.filtered_ids == log.sampled_ids
    assert log.eta is None
    # theta = 1 takes no threshold, so a frozen one passed in changes nothing
    w_frozen, frozen = deltafl_round(pop, np.zeros(3), cfg, t=0, eta_override=1e9)
    assert np.array_equal(w_frozen, w_next)
    assert frozen.to_dict() == log.to_dict()


@pytest.mark.parametrize("eta_period", [1, 3])
def test_theta_one_reduction_is_path_identical(eta_period):
    pop = small_population()
    a = run_federated(pop, base_config(theta=1.0, num_rounds=10, eta_period=eta_period), algorithm="deltafl")
    # fedavg is the theta = 1 round whatever theta its config carries
    b = run_federated(pop, base_config(theta=0.4, num_rounds=10, eta_period=eta_period), algorithm="fedavg")
    assert np.array_equal(a.params, b.params)
    assert len(a.rounds) == len(b.rounds) == 10
    for la, lb in zip(a.rounds, b.rounds):
        assert la.sampled_ids == lb.sampled_ids
        assert la.filtered_ids == lb.filtered_ids
        assert la.to_dict() == lb.to_dict()


def test_sampling_is_seed_deterministic_and_round_dependent():
    pop = small_population()
    cfg = base_config()
    _, l1 = deltafl_round(pop, np.zeros(3), cfg, t=0)
    _, l2 = deltafl_round(pop, np.zeros(3), cfg, t=0)
    _, l3 = deltafl_round(pop, np.zeros(3), cfg, t=1)
    assert l1.sampled_ids == l2.sampled_ids
    assert l1.sampled_ids != l3.sampled_ids


def test_masked_aggregation_matches_plain_rounds():
    pop = small_population()
    plain_cfg = base_config(aggregation="plain", num_rounds=5)
    masked_cfg = base_config(aggregation="masked", num_rounds=5)
    a = run_federated(pop, plain_cfg, algorithm="deltafl")
    b = run_federated(pop, masked_cfg, algorithm="deltafl")
    for la, lb in zip(a.rounds, b.rounds):
        assert la.sampled_ids == lb.sampled_ids
        assert la.filtered_ids == lb.filtered_ids
    assert np.allclose(a.params, b.params, rtol=1e-8, atol=1e-10)


def test_secure_mm_threshold_matches_direct_quantile():
    pop = small_population()
    direct_cfg = base_config(eta_protocol="server_direct", num_rounds=4)
    mm_cfg = base_config(eta_protocol="secure_mm", num_rounds=4)
    a = run_federated(pop, direct_cfg, algorithm="deltafl")
    b = run_federated(pop, mm_cfg, algorithm="deltafl")
    for la, lb in zip(a.rounds, b.rounds):
        assert lb.eta == pytest.approx(la.eta, abs=1e-9)
        assert la.filtered_ids == lb.filtered_ids
    assert np.allclose(a.params, b.params, rtol=1e-12, atol=1e-12)


def test_divergence_names_the_device_whose_loss_is_not_finite():
    # ||x - w||^2 overflows on the third device's rows only, so its loss is the
    # first non-finite one of the sample but not the first sampled device's.
    X = np.ones((8, 2))
    X[4:6] = 1e200
    pop = Population(X, np.zeros(8), np.full(4, 2), ["a", "b", "bad", "d"], np.full(4, 0.25))
    cfg = base_config(loss=LossSpec("squared_distance"), devices_per_round=40)
    with pytest.raises(FloatingPointError) as info:
        deltafl_round(pop, np.zeros(2), cfg, 3)
    assert str(info.value) == "round 3 diverged: device 'bad' has a non-finite reported loss (inf)"


# ---------------------------------------------------------------------------
# full runs


def test_zero_rounds_returns_initial_params():
    pop = small_population()
    cfg = base_config(num_rounds=0)
    w0 = np.array([1.0, 2.0, 3.0])
    run = run_federated(pop, cfg, algorithm="deltafl", w0=w0)
    assert np.array_equal(run.params, w0)
    assert run.rounds == []


def test_unknown_algorithm_rejected():
    pop = small_population()
    with pytest.raises(ValueError):
        run_federated(pop, base_config(), algorithm="gossip")


def test_run_is_reproducible():
    pop = small_population()
    cfg = base_config(num_rounds=6)
    a = run_federated(pop, cfg, algorithm="deltafl")
    b = run_federated(pop, cfg, algorithm="deltafl")
    assert np.array_equal(a.params, b.params)


def test_eta_period_freezes_threshold():
    pop = small_population()
    cfg = base_config(num_rounds=9, eta_period=3)
    run = run_federated(pop, cfg, algorithm="deltafl")
    etas = [log.eta for log in run.rounds]
    for block in range(3):
        vals = etas[3 * block : 3 * block + 3]
        assert vals[1] == vals[0]
        assert vals[2] == vals[0]
    # refreshes actually happen: parameters move, so thresholds should too
    assert len(set(etas)) > 1


def test_snapshots_recorded_on_schedule():
    pop = small_population()
    cfg = base_config(num_rounds=6)
    seen = []
    run = run_federated(pop, cfg, algorithm="fedavg", eval_every=2, on_snapshot=seen.append)
    assert [s.round_index for s in run.snapshots] == [1, 3, 5]
    assert seen == run.snapshots  # handed over as each is taken
    # each snapshot holds the parameters right after its round
    for snap in run.snapshots:
        short = run_federated(pop, base_config(num_rounds=snap.round_index + 1), algorithm="fedavg")
        assert np.array_equal(snap.params, short.params)


def test_training_actually_improves_tail_objective():
    pop = small_population(seed=7, num_devices=10)
    cfg = base_config(
        theta=0.5, devices_per_round=10, num_rounds=40, lr0=1.0,
        loss=LossSpec("binary_logistic", l2_reg=1e-3),
    )
    run = run_federated(pop, cfg, algorithm="deltafl")

    def tail_objective(w):
        losses = np.array([models.device_loss(cfg.loss, w, s) for s in pop.shards])
        return superquantile(WeightedValues(losses, pop.weights), cfg.theta)

    w0 = models.init_params(cfg.loss, pop.feature_dim)
    assert tail_objective(run.params) < tail_objective(w0)


# ---------------------------------------------------------------------------
# alternating minimization


def test_power_law_schedule():
    sched = PowerLawSchedule(0.1, 1.5)
    assert sched(0) == pytest.approx(0.1)
    assert sched(3) == pytest.approx(0.1 * 4 ** -1.5)
    # summable: the budgets total at most eps0 * (1 + 1/(exponent - 1))
    assert sum(sched(t) for t in range(10_000)) <= 0.1 * 3.0
    with pytest.raises(ValueError):
        PowerLawSchedule(0.0)
    with pytest.raises(ValueError):
        PowerLawSchedule(0.1, exponent=1.0)


def test_certified_gd_meets_its_certificate():
    a = np.array([1.0, -2.0, 0.5])

    def value_grad(w):
        d = w - a
        return float(np.dot(d, d)), 2.0 * d

    solver = CertifiedGradientDescent(strong_convexity=2.0, initial_step=0.25)
    for eps in (1e-2, 1e-5):
        w = solver.solve(value_grad, np.zeros(3), eps)
        _, g = value_grad(w)
        assert float(np.dot(g, g)) <= 2.0 * 2.0 * solver.margin * eps + 1e-18
        # certificate implies suboptimality below margin * eps
        assert float(np.dot(w - a, w - a)) <= solver.margin * eps + 1e-18


def test_certified_gd_reports_stall():
    solver = CertifiedGradientDescent(max_iters=2)

    def value_grad(w):
        return float(np.sum(np.abs(w))) + 1.0, np.sign(w) + 0.1  # not a gradient field

    with pytest.raises(RuntimeError):
        solver.solve(value_grad, np.ones(3), 1e-12)


def test_quadratic_objectives_evaluate():
    objs = quadratic_objectives([[0.0, 0.0], [2.0, 0.0]], offsets=[1.0, 3.0])
    w = np.array([1.0, 1.0])
    values, weighted_grad = objs.point(w)
    assert np.allclose(values, [3.0, 5.0])
    assert np.allclose(weighted_grad(np.array([0.0, 1.0])), [-2.0, 2.0])
    assert np.allclose(weighted_grad(np.array([1.0, 0.0])), [2.0, 2.0])
    assert objs.weights.sum() == pytest.approx(1.0)


def test_am_descent_inequality_and_flat_threshold():
    rng = np.random.default_rng(50)
    centers = rng.normal(size=(5, 4))
    offsets = rng.uniform(0, 2, size=5)
    objs = quadratic_objectives(centers, offsets)
    sched = PowerLawSchedule(0.1, 1.5)
    solver = CertifiedGradientDescent(strong_convexity=2.0, initial_step=0.25)
    seen = []
    res = am_meta(objs, theta=0.6, nu=0.05, schedule=sched, solver=solver,
                  num_iters=25, w0=np.zeros(4), on_iterate=seen.append)
    assert seen == res.iterates
    vals = [it.smoothed_value for it in res.iterates]
    for t in range(len(vals) - 1):
        assert vals[t + 1] <= vals[t] + sched(t) + 1e-12
    for it in res.iterates:
        assert abs(it.eta_slope) <= 1e-10
        gap = it.smoothed_value - it.nonsmooth_value
        assert -1e-12 <= gap <= 0.05 / (2 * 0.6) + 1e-12
    grad_norms = [it.grad_norm for it in res.iterates]
    assert grad_norms[-1] < grad_norms[0]
    assert grad_norms[-1] <= 1e-2


def test_am_single_device_reaches_its_center():
    # the parameter step only drives the loss down to the frozen threshold,
    # so start close enough that the first threshold already undercuts the
    # minimal loss; the step then has to land on the exact center
    c = np.array([1.5, -0.5])
    objs = quadratic_objectives([c], offsets=[2.0])
    sched = PowerLawSchedule(1e-6, 1.5)
    solver = CertifiedGradientDescent(strong_convexity=2.0)
    res = am_meta(objs, theta=0.5, nu=0.2, schedule=sched, solver=solver,
                  num_iters=2, w0=c + np.array([0.2, -0.1]))
    assert np.linalg.norm(res.params - c) <= 1e-4
    # lone device: threshold settles nu * theta below the loss at the center
    assert res.iterates[-1].eta == pytest.approx(2.0 - 0.2 * 0.5, abs=1e-3)


def am_two_pass(values, weighted_grad, weights, theta, nu, schedule, solver, num_iters, w0):
    """am_meta's iterates from a loop that evaluates afresh every time it needs
    a value or a gradient, each in its own pass: (params, eta, grad_norm,
    eta_slope, smoothed_value, nonsmooth_value) per iterate."""
    p = weights / weights.sum()

    def at(w, eta):
        wv = WeightedValues(values(w), p)
        coeff = smoothed_device_coefficients(wv, theta, nu, eta)
        return wv, smoothed_objective(wv, theta, nu, eta), weighted_grad(w, coeff)

    w = np.array(w0, dtype=np.float64)
    iterates = []
    for t in range(num_iters + 1):
        if t > 0:
            w = solver.solve(lambda v, e=eta: at(v, e)[1:], w, schedule(t - 1))
        eta = smoothed_eta_star(WeightedValues(values(w), p), theta, nu)
        wv, value, g = at(w, eta)
        slope = smoothed_objective_slope(wv, theta, nu, eta)
        norm = float(np.sqrt(np.dot(g, g) + slope * slope))
        iterates.append((w.tobytes(), eta, norm, slope, value, plus_objective(wv, theta, eta)))
    return iterates


@pytest.mark.parametrize(
    "spec",
    [
        LossSpec("binary_logistic", l2_reg=0.01),
        LossSpec("multinomial_logistic", num_classes=3),
        LossSpec("squared_distance", l2_reg=0.1),
    ],
)
def test_am_meta_evaluates_each_parameter_vector_once(spec):
    classes = 3 if spec.kind == "multinomial_logistic" else 2
    pop = gen_hetero_logistic(
        num_devices=12, n_range=(5, 15), feature_dim=3, num_classes=classes, heterogeneity=0.8, seed=4
    )
    objs = population_objectives(pop, spec)
    points, grads, per_iterate = [], [], []

    def point(w):
        points.append(w.tobytes())
        values, weighted_grad = objs.point(w)

        def counted(coeff):
            grads.append((w.tobytes(), np.asarray(coeff).tobytes()))
            return weighted_grad(coeff)

        return values, counted

    counting = PopulationObjective(point=point, weights=objs.weights)
    settings = dict(
        theta=0.5, nu=0.1, schedule=PowerLawSchedule(0.01, 1.5),
        solver=CertifiedGradientDescent(strong_convexity=2.0), num_iters=6, w0=np.zeros(spec.param_dim(3)),
    )
    res = am_meta(counting, **settings, on_iterate=lambda it: per_iterate.append(len(points)))
    # Each parameter vector has one point evaluation: the record of an
    # accepted point and the next step's start reuse what the step computed
    # there. A point has one gradient per threshold it is taken at, so at
    # most one per point plus one per record after the start.
    assert len(set(points)) == len(points) == per_iterate[-1] > len(res.iterates)
    assert len(set(grads)) == len(grads) <= len(points) + settings["num_iters"]
    assert per_iterate[0] == 1
    # The same iterates, bit for bit, as a loop that evaluates values and
    # gradients separately and afresh at every use.
    want = am_two_pass(
        lambda w: models.packed_losses(spec, w, pop),
        lambda w, coeff: objs.point(w)[1](coeff),
        pop.weights, **settings,
    )
    got = [
        (it.params.tobytes(), it.eta, it.grad_norm, it.eta_slope, it.smoothed_value, it.nonsmooth_value)
        for it in res.iterates
    ]
    assert got == want


def test_am_population_objectives_agree_with_device_loss():
    pop = small_population(num_devices=4)
    spec = LossSpec("binary_logistic", l2_reg=0.01)
    objs = population_objectives(pop, spec)
    w = np.array([0.2, -0.1, 0.4])
    values, weighted_grad = objs.point(w)
    for k, shard in enumerate(pop.shards):
        assert values[k] == pytest.approx(models.device_loss(spec, w, shard), rel=1e-12)
        e_k = np.eye(len(pop))[k]
        want = batch_grad_reference(spec, w, shard.features, shard.labels)
        assert np.allclose(weighted_grad(e_k), want, rtol=1e-12, atol=0)
    assert np.array_equal(objs.weights, pop.weights)


def test_smoothed_full_gradient_matches_fd():
    pop = small_population(num_devices=5)
    spec = LossSpec("binary_logistic", l2_reg=0.05)
    theta, nu, eta = 0.5, 0.1, 0.6
    w = np.array([0.3, -0.2, 0.1])

    def obj(v):
        losses = np.array([models.device_loss(spec, v, s) for s in pop.shards])
        return smoothed_objective(WeightedValues(losses, pop.weights), theta, nu, eta)

    grad_w, slope = smoothed_full_gradient(pop, spec, w, eta, theta, nu)
    fd = fd_gradient(obj, w)
    assert np.allclose(grad_w, fd, atol=1e-6)

    losses = np.array([models.device_loss(spec, w, s) for s in pop.shards])
    wv = WeightedValues(losses, pop.weights)
    h = 1e-7
    fd_slope = (
        smoothed_objective(wv, theta, nu, eta + h) - smoothed_objective(wv, theta, nu, eta - h)
    ) / (2 * h)
    assert slope == pytest.approx(fd_slope, abs=1e-6)


def test_am_theta_one_minimizes_weighted_mean():
    # the vanilla setting must land on the weighted centroid of the centers
    centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
    weights = np.array([0.5, 0.25, 0.25])
    objs = quadratic_objectives(centers, weights=weights)
    sched = PowerLawSchedule(1e-4, 1.5)
    solver = CertifiedGradientDescent(strong_convexity=2.0)
    res = am_meta(objs, theta=1.0, nu=0.05, schedule=sched, solver=solver,
                  num_iters=10, w0=np.zeros(2))
    centroid = weights @ centers
    assert np.linalg.norm(res.params - centroid) <= 1e-3
