"""Packed population kernels against the per-device functions and the oracles.

The gradient references (``batch_grad_reference`` and the loops built on
it) live in tests/oracles.py and share no code with the package. The
packed kernels sum in a different order than they do, so values are
compared to 1e-12 relative to the largest entry compared.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfed import (
    FederationConfig,
    LossSpec,
    Population,
    deltafl_round,
    lr_schedule,
    models,
    population_objectives,
)
from tailfed.data import stream
from tailfed.federation import _visiting_orders, local_update

from oracles import batch_grad_reference, device_error_naive, device_loss_naive

REL = 1e-12
KINDS = ("squared_distance", "binary_logistic", "multinomial_logistic")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_close(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= REL * scale


@st.composite
def populations(draw):
    """A loss spec, a population with ragged devices (1-example devices included), and parameters."""
    kind = draw(st.sampled_from(KINDS))
    num_classes = draw(st.integers(2, 4)) if kind == "multinomial_logistic" else 2
    spec = LossSpec(kind, l2_reg=draw(st.sampled_from([0.0, 1e-3, 0.5])), num_classes=num_classes)
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Xs, ys = [], []
    for n in sizes:
        Xs.append(rng.normal(size=(n, p)) * 2.0)
        if kind == "binary_logistic":
            ys.append(rng.choice([-1, 1], size=n))
        elif kind == "multinomial_logistic":
            ys.append(rng.integers(0, num_classes, size=n))
        else:
            ys.append(np.zeros(n))
    w = rng.normal(size=spec.param_dim(p))
    pop = Population(np.concatenate(Xs), np.concatenate(ys), sizes, [f"d{k}" for k in range(len(sizes))], sizes)
    return spec, pop, w, rng


@SETTINGS
@given(populations())
def test_packed_losses_match_device_loss_and_oracle(case):
    spec, pop, w, _ = case
    got = models.packed_losses(spec, w, pop)
    assert_close(got, [models.device_loss(spec, w, s) for s in pop.shards])
    naive = [
        device_loss_naive(spec.kind, w, s.features, s.labels, spec.l2_reg, spec.num_classes)
        for s in pop.shards
    ]
    assert_close(got, naive)


@SETTINGS
@given(populations())
def test_packed_errors_match_device_error_and_oracle(case):
    spec, pop, w, _ = case
    if spec.kind == "squared_distance":
        with pytest.raises(ValueError):
            models.packed_errors(spec, w, pop)
        return
    got = models.packed_errors(spec, w, pop)
    assert got.tolist() == [models.device_error(spec, w, s) for s in pop.shards]
    assert got.tolist() == [
        device_error_naive(spec.kind, w, s.features, s.labels, spec.num_classes) for s in pop.shards
    ]


@SETTINGS
@given(populations())
def test_weighted_grad_matches_sum_of_device_grads(case):
    spec, pop, w, rng = case
    coeff = rng.uniform(0.0, 2.0, size=len(pop)) * (rng.random(len(pop)) < 0.7)
    want = sum(c * batch_grad_reference(spec, w, s.features, s.labels) for c, s in zip(coeff, pop.shards))
    assert_close(population_objectives(pop, spec).point(w)[1](coeff), want)
    # The one-example gradient is the same formula on a single row.
    X, y = pop.features, pop.labels
    for i in range(len(y)):
        assert_close(models.point_grad(spec, w, X[i], y[i]), batch_grad_reference(spec, w, X[i : i + 1], y[i : i + 1]))


@SETTINGS
@given(populations())
def test_point_evaluation_equals_the_separate_value_and_gradient_passes(case):
    # The fused point shares the value pass's margins and labels with every
    # gradient taken at it; that must not change a byte against a gradient
    # pass that computes the margins afresh.
    spec, pop, w, rng = case
    values, weighted_grad = population_objectives(pop, spec).point(w)
    assert np.array_equal(values, models.packed_losses(spec, w, pop))
    y = models._labels_for(spec, pop.labels)
    n = len(pop)
    for coeff in (
        rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.6),
        np.zeros(n),
        np.eye(n)[rng.integers(n)],
        rng.uniform(0.0, 2.0, size=n),
    ):
        row_coeff = np.repeat(coeff / pop.sizes, pop.sizes)
        separate = models._row_grads(spec, w, pop.features, y, row_coeff) + float(coeff.sum()) * spec.l2_reg * w
        assert np.array_equal(weighted_grad(coeff), separate)


def sgd_reference(spec, w, shard, order, lr, batch_size):
    """One device's local SGD as a plain loop over its mini-batches."""
    w = np.array(w, dtype=np.float64)
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        w = w - lr * batch_grad_reference(spec, w, shard.features[idx], shard.labels[idx])
    return w


def flat_order(packed, orders):
    """Per-device local row orders as the kernel's flat packed rows and visit counts."""
    order = np.concatenate([packed.offsets[k] + o for k, o in enumerate(orders)])
    return order, [len(o) for o in orders]


@SETTINGS
@given(populations(), st.integers(1, 15), st.booleans(), st.floats(0.01, 0.5))
def test_local_sgd_matches_per_device_loop(case, batch_size, epoch, lr):
    # The core trains the devices with visits in lockstep, as a round does.
    spec, pop, w, rng = case
    if epoch:
        # batch_size runs past the device size too: one full-batch step
        orders = [rng.permutation(n) for n in pop.sizes]
    else:
        # point mode: single-example steps drawn with replacement
        batch_size = 1
        orders = [rng.integers(n, size=int(rng.integers(1, 6))) for n in pop.sizes]
    # A device with no visits, as a round gives a filtered device, has no row.
    idle = rng.random(len(pop)) < 0.3
    orders = [o[:0] if skip else o for o, skip in zip(orders, idle)]
    got = models._local_sgd(spec, w, pop, *map(np.asarray, flat_order(pop, orders)), lr, batch_size)
    assert got.shape == (int((~idle).sum()), w.size)
    for row, k in zip(got, np.flatnonzero(~idle)):
        assert_close(row, sgd_reference(spec, w, pop.shards[k], orders[k], lr, batch_size))


@SETTINGS
@given(populations(), st.integers(1, 15), st.booleans(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_local_update_matches_the_per_device_loop(case, batch_size, epoch, n_local, seed):
    # local_update walks the order it draws from its generator as the loop does.
    spec, pop, w, _ = case
    cfg = FederationConfig(loss=spec, batch_size=batch_size, local_epoch=epoch, n_local=n_local)
    for shard in pop.shards:
        order, _ = _visiting_orders(cfg, shard, np.random.default_rng(seed))
        got = local_update(shard, w, 0.2, cfg, np.random.default_rng(seed))
        assert_close(got, sgd_reference(spec, w, shard, order, 0.2, batch_size if epoch else 1))


@SETTINGS
@given(
    populations(), st.integers(1, 15), st.booleans(), st.integers(1, 5), st.integers(0, 2**62), st.integers(0, 9)
)
def test_local_update_matches_the_round_path(case, batch_size, epoch, n_local, seed, t):
    # On a one-device population at theta 1 the round trains that device
    # alone, with the order it draws from the round stream after sampling.
    spec, pop, w, _ = case
    cfg = FederationConfig(
        loss=spec, batch_size=batch_size, local_epoch=epoch, n_local=n_local, seed=seed, devices_per_round=3
    )
    for shard in pop.shards:
        got, _ = deltafl_round(shard, w, cfg, t)
        rng = stream(seed, 2, t)
        rng.integers(0, 1, size=cfg.devices_per_round)
        assert_close(got, local_update(shard, w, lr_schedule(cfg, t), cfg, rng))


@SETTINGS
@given(populations())
def test_select_packs_the_chosen_shards_in_order(case):
    _, pop, _, rng = case
    devices = rng.permutation(len(pop))[: int(rng.integers(1, len(pop) + 1))]
    got = pop.select(devices)
    shards = [pop.shards[k] for k in devices]
    want = Population(
        np.concatenate([s.features for s in shards]),
        np.concatenate([s.labels for s in shards]),
        [int(s.sizes[0]) for s in shards],
        [s.device_ids[0] for s in shards],
        pop.weights[devices],
    )
    assert got.device_ids == want.device_ids
    for field in ("features", "labels", "offsets", "sizes", "weights"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


class _Keys:
    """Stands in for a round stream whose next uniform draws are the given keys."""

    def __init__(self, keys):
        self.keys = keys

    def random(self, size):
        assert size == self.keys.size
        return self.keys


# Keys that tie once a device index is added: from device 1 on, 0.5 and the
# float above it round to one sum, as do 0.75 and the float below it; the
# float below 1 rounds onto the next device's key 0.
TIE_KEYS = [0.0, 0.5, float(np.nextafter(0.5, 1.0)), 0.75, float(np.nextafter(0.75, 0.0)), float(np.nextafter(1.0, 0.0))]


@st.composite
def sizes_and_keys(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    key = st.one_of(st.sampled_from(TIE_KEYS), st.floats(0.0, 1.0, exclude_max=True))
    return sizes, draw(st.lists(key, min_size=sum(sizes), max_size=sum(sizes)))


@SETTINGS
@given(sizes_and_keys())
@example(([1, 3, 2], [0.5, TIE_KEYS[5], 0.5, TIE_KEYS[2], 0.0, 0.5]))
def test_epoch_visiting_orders_are_the_stable_argsort(case):
    sizes, keys = case
    keys = np.array(keys)
    n = sum(sizes)
    packed = Population(np.zeros((n, 1)), np.zeros(n), sizes, [f"d{k}" for k in range(len(sizes))], np.ones(len(sizes)))
    order, counts = _visiting_orders(FederationConfig(), packed, _Keys(keys))
    device = np.repeat(np.arange(len(sizes)), sizes)
    assert np.array_equal(order, np.argsort(device + keys, kind="stable"))
    assert np.array_equal(counts, sizes)


def test_padded_steps_leave_a_finished_device_alone():
    # A 1-example device next to a 12-example one, batch size 4: the short
    # device takes one step, the long one three.
    spec = LossSpec("binary_logistic", l2_reg=0.1)
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(13, 2)), np.concatenate([[1], rng.choice([-1, 1], size=12)])
    packed = Population(X, y, [1, 12], ("a", "b"), [1.0, 1.0])
    short, long = packed.shards
    w = np.array([0.3, -0.4])
    order, counts = flat_order(packed, [np.array([0]), np.arange(12)])
    got = models._local_sgd(spec, w, packed, order, np.array(counts), 0.5, 4)
    assert np.array_equal(got[0], w - 0.5 * batch_grad_reference(spec, w, short.features, short.labels))
    assert_close(got[1], sgd_reference(spec, w, long, np.arange(12), 0.5, 4))


def test_kernels_reject_out_of_range_inputs():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    packed = Population(np.ones((2, 2)), np.array([0, 3]), [2], ("a",), [1.0])
    w = np.zeros(6)
    with pytest.raises(ValueError, match="class labels"):
        models.packed_losses(spec, w, packed)
    with pytest.raises(ValueError, match="class labels"):
        population_objectives(packed, spec)
    with pytest.raises(ValueError, match="class labels"):
        local_update(packed, w, 0.1, FederationConfig(loss=spec), np.random.default_rng(0))
    ok = LossSpec("binary_logistic")
    good = Population(np.ones((2, 2)), np.array([1, -1]), [2], ("a",), [1.0])
    with pytest.raises(ValueError, match="one coefficient per device"):
        population_objectives(good, ok).point(np.zeros(2))[1]([1.0, 2.0])
    with pytest.raises(ValueError, match=r"parameter vector must have shape \(2,\)"):
        local_update(good, np.zeros(3), 0.1, FederationConfig(loss=ok), np.random.default_rng(0))


def test_local_update_trains_one_device_only():
    # A longer population is an error, not a silent update of its first device.
    cfg = FederationConfig(loss=LossSpec("binary_logistic"))
    pair = Population(np.ones((4, 2)), np.array([1, -1, 1, -1]), [2, 2], ("a", "b"), [1.0, 1.0])
    with pytest.raises(ValueError, match="trains one device, got a population of 2"):
        local_update(pair, np.zeros(2), 0.1, cfg, np.random.default_rng(0))
    assert local_update(pair.shards[1], np.zeros(2), 0.1, cfg, np.random.default_rng(0)).shape == (2,)
