"""Packed population kernels against the per-shard functions and the oracles.

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
    DeviceShard,
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
    """A loss spec, a population with ragged shards (1-example shards included), and parameters."""
    kind = draw(st.sampled_from(KINDS))
    num_classes = draw(st.integers(2, 4)) if kind == "multinomial_logistic" else 2
    spec = LossSpec(kind, l2_reg=draw(st.sampled_from([0.0, 1e-3, 0.5])), num_classes=num_classes)
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shards = []
    for k, n in enumerate(sizes):
        X = rng.normal(size=(n, p)) * 2.0
        if kind == "binary_logistic":
            y = rng.choice([-1, 1], size=n)
        elif kind == "multinomial_logistic":
            y = rng.integers(0, num_classes, size=n)
        else:
            y = np.zeros(n)
        shards.append(DeviceShard(f"d{k}", X, y, float(n)))
    w = rng.normal(size=spec.param_dim(p))
    return spec, Population.from_shards(shards), w, rng


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
def test_packed_weighted_grad_matches_sum_of_device_grads(case):
    spec, pop, w, rng = case
    coeff = rng.uniform(0.0, 2.0, size=len(pop)) * (rng.random(len(pop)) < 0.7)
    want = sum(c * batch_grad_reference(spec, w, s.features, s.labels) for c, s in zip(coeff, pop.shards))
    assert_close(models.packed_weighted_grad(spec, w, pop, coeff), want)
    # The one-example gradient is the same formula on a single row.
    X, y = pop.features, pop.labels
    for i in range(len(y)):
        assert_close(models.point_grad(spec, w, X[i], y[i]), batch_grad_reference(spec, w, X[i : i + 1], y[i : i + 1]))


@SETTINGS
@given(populations())
def test_point_evaluation_equals_the_separate_value_and_gradient_passes(case):
    # The fused point shares the value pass's margins and labels with every
    # gradient taken at it; that must not change a byte.
    spec, pop, w, rng = case
    values, weighted_grad = population_objectives(pop, spec).point(w)
    assert np.array_equal(values, models.packed_losses(spec, w, pop))
    n = len(pop)
    for coeff in (
        rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.6),
        np.zeros(n),
        np.eye(n)[rng.integers(n)],
        rng.uniform(0.0, 2.0, size=n),
    ):
        assert np.array_equal(weighted_grad(coeff), models.packed_weighted_grad(spec, w, pop, coeff))


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
def test_packed_local_sgd_matches_per_device_loop(case, batch_size, epoch, lr):
    spec, pop, w, rng = case
    if epoch:
        # batch_size runs past the shard size too: one full-batch step
        orders = [rng.permutation(len(s)) for s in pop.shards]
    else:
        # point mode: single-example steps drawn with replacement
        batch_size = 1
        orders = [rng.integers(len(s), size=int(rng.integers(1, 6))) for s in pop.shards]
    # A device with no visits, as a round gives a filtered device, takes no step.
    idle = rng.random(len(pop)) < 0.3
    orders = [o[:0] if skip else o for o, skip in zip(orders, idle)]
    got = models.packed_local_sgd(spec, w, pop, *flat_order(pop, orders), lr, batch_size)
    assert got.shape == (len(pop), w.size)
    for k, shard in enumerate(pop.shards):
        if idle[k]:
            assert got[k].tobytes() == w.tobytes()
        else:
            assert_close(got[k], sgd_reference(spec, w, shard, orders[k], lr, batch_size))


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
        one = Population.from_shards([DeviceShard(shard.device_id, shard.features, shard.labels)])
        got, _ = deltafl_round(one, w, cfg, t)
        rng = stream(seed, 2, t)
        rng.integers(0, 1, size=cfg.devices_per_round)
        assert_close(got, local_update(shard, w, lr_schedule(cfg, t), cfg, rng))


@SETTINGS
@given(populations())
def test_select_packs_the_chosen_shards_in_order(case):
    _, pop, _, rng = case
    devices = rng.permutation(len(pop))[: int(rng.integers(1, len(pop) + 1))]
    got = pop.select(devices)
    want = Population.from_shards([pop.shards[k] for k in devices])
    for field in ("features", "labels", "offsets", "sizes"):
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
    packed = Population.from_shards([DeviceShard(f"d{k}", np.zeros((n, 1)), np.zeros(n)) for k, n in enumerate(sizes)])
    order, counts = _visiting_orders(FederationConfig(), packed, _Keys(keys))
    device = np.repeat(np.arange(len(sizes)), sizes)
    assert np.array_equal(order, np.argsort(device + keys, kind="stable"))
    assert np.array_equal(counts, sizes)


def test_padded_steps_leave_a_finished_device_alone():
    # A 1-example device next to a 12-example one, batch size 4: the short
    # device takes one step, the long one three.
    spec = LossSpec("binary_logistic", l2_reg=0.1)
    rng = np.random.default_rng(3)
    short = DeviceShard("a", rng.normal(size=(1, 2)), np.array([1]))
    long = DeviceShard("b", rng.normal(size=(12, 2)), rng.choice([-1, 1], size=12))
    packed = Population.from_shards([short, long])
    w = np.array([0.3, -0.4])
    order, counts = flat_order(packed, [np.array([0]), np.arange(12)])
    got = models.packed_local_sgd(spec, w, packed, order, counts, 0.5, 4)
    assert np.array_equal(got[0], w - 0.5 * batch_grad_reference(spec, w, short.features, short.labels))
    assert_close(got[1], sgd_reference(spec, w, long, np.arange(12), 0.5, 4))


def test_kernels_reject_out_of_range_inputs():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    packed = Population.from_shards([DeviceShard("a", np.ones((2, 2)), np.array([0, 3]))])
    w = np.zeros(6)
    with pytest.raises(ValueError, match="class labels"):
        models.packed_losses(spec, w, packed)
    with pytest.raises(ValueError, match="class labels"):
        models.packed_weighted_grad(spec, w, packed, [1.0])
    with pytest.raises(ValueError, match="class labels"):
        models.packed_local_sgd(spec, w, packed, np.arange(2), [2], 0.1, 1)
    ok = LossSpec("binary_logistic")
    good = Population.from_shards([DeviceShard("a", np.ones((2, 2)), np.array([1, -1]))])
    with pytest.raises(ValueError, match="own device"):
        models.packed_local_sgd(ok, np.zeros(2), good, np.array([2]), [1], 0.1, 1)
    # Two 2-row devices: rows 0-1 are device 0's, rows 2-3 device 1's.
    pair = Population.from_shards([DeviceShard(d, np.ones((2, 2)), np.array([1, -1])) for d in "ab"])
    with pytest.raises(ValueError, match="own device"):
        models.packed_local_sgd(ok, np.zeros(2), pair, np.array([2, 3, 1]), [1, 2], 0.1, 1)
    with pytest.raises(ValueError, match=r"sum to the flat order's length \(3\)"):
        models.packed_local_sgd(ok, np.zeros(2), pair, np.array([0, 1, 2]), [2, 2], 0.1, 1)
    with pytest.raises(ValueError, match="one visit count per device"):
        models.packed_local_sgd(ok, np.zeros(2), pair, np.array([0, 1]), [2], 0.1, 1)
    with pytest.raises(ValueError, match="one coefficient per device"):
        models.packed_weighted_grad(ok, np.zeros(2), good, [1.0, 2.0])
