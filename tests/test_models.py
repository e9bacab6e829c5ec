"""Loss, gradient, and per-device evaluation tests."""

import math
import re

import numpy as np
import pytest

from tailfed import (
    FederationConfig,
    LossSpec,
    device_error,
    device_loss,
    init_params,
    point_grad,
    point_loss,
    population_objectives,
)
from tailfed.data import Population
from tailfed.federation import local_update
from tailfed.models import packed_errors, packed_losses, predict

from oracles import device_error_naive, device_loss_naive, fd_gradient, point_loss_naive

KINDS = ("squared_distance", "binary_logistic", "multinomial_logistic")


def random_example(rng, spec, p):
    x = rng.normal(size=p)
    if spec.kind == "squared_distance":
        y = 0.0
    elif spec.kind == "binary_logistic":
        y = int(rng.choice([-1, 1]))
    else:
        y = int(rng.integers(0, spec.num_classes))
    return x, y


def random_spec(rng, kind):
    l2 = float(rng.choice([0.0, 1e-3, 0.5]))
    if kind == "multinomial_logistic":
        return LossSpec(kind, l2_reg=l2, num_classes=int(rng.integers(2, 5)))
    return LossSpec(kind, l2_reg=l2)


def one_device(X, y, device_id="a"):
    """A one-device population of the given rows."""
    return Population(X, y, [len(y)], (device_id,), [1.0])


def make_shard(rng, spec, p, n, device_id="d0"):
    X = rng.normal(size=(n, p))
    if spec.kind == "squared_distance":
        y = np.zeros(n)
    elif spec.kind == "binary_logistic":
        y = rng.choice([-1, 1], size=n)
    else:
        y = rng.integers(0, spec.num_classes, size=n)
    return one_device(X, y, device_id)


# ---------------------------------------------------------------------------
# spec validation and trivial values


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("nonsense")
    with pytest.raises(ValueError):
        LossSpec("binary_logistic", l2_reg=-1.0)
    with pytest.raises(ValueError):
        LossSpec("multinomial_logistic", num_classes=1)


def test_param_dim_by_kind():
    assert init_params(LossSpec("squared_distance"), 4).shape == (4,)
    assert init_params(LossSpec("binary_logistic"), 4).shape == (4,)
    assert init_params(LossSpec("multinomial_logistic", num_classes=3), 4).shape == (12,)


def test_squared_distance_at_the_point_is_zero():
    spec = LossSpec("squared_distance")
    x = np.array([1.0, -2.0, 0.5])
    assert point_loss(spec, x.copy(), x, 0.0) == 0.0


def test_squared_distance_regularization_added():
    spec = LossSpec("squared_distance", l2_reg=0.2)
    x = np.array([1.0, 2.0])
    assert point_loss(spec, x.copy(), x, 0.0) == pytest.approx(
        0.1 * float(np.dot(x, x)), abs=1e-14
    )


def test_binary_logistic_at_zero_is_log2():
    spec = LossSpec("binary_logistic")
    w = np.zeros(3)
    x = np.array([5.0, -1.0, 2.0])
    for y in (-1, 1):
        assert point_loss(spec, w, x, y) == pytest.approx(math.log(2.0), abs=1e-12)


def test_multinomial_at_zero_is_log_num_classes():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    w = np.zeros(6)
    x = np.array([0.3, -0.7])
    for y in range(3):
        assert point_loss(spec, w, x, y) == pytest.approx(math.log(3.0), abs=1e-12)


def test_point_loss_matches_naive():
    rng = np.random.default_rng(30)
    for kind in KINDS:
        for _ in range(100):
            spec = random_spec(rng, kind)
            p = int(rng.integers(1, 6))
            w = rng.normal(size=init_params(spec, p).shape)
            x, y = random_example(rng, spec, p)
            want = point_loss_naive(kind, w, x, y, spec.l2_reg, spec.num_classes)
            assert point_loss(spec, w, x, y) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_point_loss_large_margin_stability():
    spec = LossSpec("binary_logistic")
    w = np.array([1000.0])
    x = np.array([1.0])
    assert point_loss(spec, w, x, 1) == pytest.approx(0.0, abs=1e-12)
    assert point_loss(spec, w, x, -1) == pytest.approx(1000.0, rel=1e-12)
    assert np.isfinite(point_grad(spec, w, x, -1)).all()


# ---------------------------------------------------------------------------
# gradients


def test_squared_distance_grad_at_center_is_reg_only():
    spec = LossSpec("squared_distance", l2_reg=0.3)
    x = np.array([1.0, -1.0])
    assert np.allclose(point_grad(spec, x.copy(), x, 0.0), 0.3 * x)


def test_binary_grad_at_zero():
    spec = LossSpec("binary_logistic")
    x = np.array([2.0, 4.0, -6.0])
    assert np.allclose(point_grad(spec, np.zeros(3), x, 1), -x / 2)


def test_point_grad_matches_fd():
    rng = np.random.default_rng(31)
    for kind in KINDS:
        for _ in range(100):
            spec = random_spec(rng, kind)
            p = int(rng.integers(1, 5))
            w = rng.normal(size=init_params(spec, p).shape)
            x, y = random_example(rng, spec, p)
            g = point_grad(spec, w, x, y)
            fd = fd_gradient(lambda v: point_loss(spec, v, x, y), w)
            denom = max(1.0, float(np.linalg.norm(fd)))
            assert float(np.linalg.norm(g - fd)) / denom <= 1e-5


def test_device_grad_matches_fd():
    rng = np.random.default_rng(32)
    for kind in KINDS:
        spec = random_spec(rng, kind)
        p = 3
        shard = make_shard(rng, spec, p, 7)
        w = rng.normal(size=init_params(spec, p).shape)
        g = population_objectives(shard, spec).point(w)[1]([1.0])
        fd = fd_gradient(lambda v: device_loss(spec, v, shard), w)
        assert float(np.linalg.norm(g - fd)) <= 1e-5 * max(1.0, float(np.linalg.norm(fd)))


def test_convexity_midpoint_in_params():
    rng = np.random.default_rng(33)
    for kind in KINDS:
        spec = random_spec(rng, kind)
        p = 3
        x, y = random_example(rng, spec, p)
        shape = init_params(spec, p).shape
        for _ in range(100):
            u = rng.normal(size=shape)
            v = rng.normal(size=shape)
            mid = point_loss(spec, 0.5 * (u + v), x, y)
            avg = 0.5 * (point_loss(spec, u, x, y) + point_loss(spec, v, x, y))
            assert mid <= avg + 1e-12


# ---------------------------------------------------------------------------
# device-level evaluation


def test_device_loss_single_and_duplicated_example():
    rng = np.random.default_rng(34)
    spec = LossSpec("binary_logistic")
    x = rng.normal(size=4)
    w = rng.normal(size=4)
    one = one_device(x[None, :], np.array([1]))
    two = one_device(np.vstack([x, x]), np.array([1, 1]))
    assert device_loss(spec, w, one) == pytest.approx(point_loss(spec, w, x, 1), abs=1e-15)
    assert device_loss(spec, w, two) == pytest.approx(device_loss(spec, w, one), abs=1e-15)


def test_device_loss_matches_naive_loop():
    rng = np.random.default_rng(35)
    for kind in KINDS:
        for _ in range(30):
            spec = random_spec(rng, kind)
            p = int(rng.integers(1, 5))
            shard = make_shard(rng, spec, p, int(rng.integers(1, 12)))
            w = rng.normal(size=init_params(spec, p).shape)
            want = device_loss_naive(
                kind, w, shard.features, shard.labels, spec.l2_reg, spec.num_classes
            )
            assert device_loss(spec, w, shard) == pytest.approx(want, abs=1e-12)


def test_empty_shard_rejected():
    # So device_loss and device_error never see a device without examples.
    with pytest.raises(ValueError, match="integers of at least 1"):
        one_device(np.zeros((0, 3)), np.zeros(0), "empty")


def test_device_loss_dimension_mismatch():
    spec = LossSpec("binary_logistic")
    shard = one_device(np.zeros((2, 3)), np.array([1, -1]))
    with pytest.raises(ValueError):
        device_loss(spec, np.zeros(4), shard)


def test_multinomial_label_out_of_range():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    with pytest.raises(ValueError):
        point_loss(spec, np.zeros(6), np.array([1.0, 2.0]), 3)


def test_point_grad_rejects_the_labels_point_loss_rejects():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    w, x = np.zeros(6), np.array([1.0, 2.0])
    for y in (-1, 3):
        for fn in (point_loss, point_grad):
            with pytest.raises(ValueError, match=r"needs class labels (0\.\.C-1|below it), got label"):
                fn(spec, w, x, y)


def test_fractional_class_labels_are_rejected_not_truncated():
    # Every kernel keeps the loss's label rule: a fractional class label, and
    # binary labels other than -1/+1, are errors naming the rule.
    multinomial = LossSpec("multinomial_logistic", num_classes=3)
    cases = [(multinomial, 1.5, "kind multinomial_logistic needs class labels 0..C-1, got label 1.5")]
    for y in (0, 2, 0.5):
        cases.append((LossSpec("binary_logistic"), y, f"kind binary_logistic needs labels -1/+1, got label {y:g}"))
    x = np.array([1.0, 2.0])
    for spec, y, message in cases:
        w = np.zeros(spec.param_dim(2))
        shard = one_device(np.ones((2, 2)), np.array([1, y]))
        calls = [
            lambda: point_loss(spec, w, x, y),
            lambda: point_grad(spec, w, x, y),
            lambda: device_loss(spec, w, shard),
            lambda: device_error(spec, w, shard),
            lambda: packed_losses(spec, w, shard),
            lambda: packed_errors(spec, w, shard),
            lambda: population_objectives(shard, spec).point(w),
            lambda: local_update(shard, w, 0.1, FederationConfig(loss=spec), np.random.default_rng(0)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
    # Whole-valued floats still name their classes.
    spec = multinomial
    rng = np.random.default_rng(38)
    X, v = rng.normal(size=(4, 2)), rng.normal(size=6)
    ints = one_device(X, np.array([0, 2, 1, 2]))
    floats = one_device(X, np.array([0.0, 2.0, 1.0, 2.0]))
    assert device_loss(spec, v, floats) == device_loss(spec, v, ints)
    assert device_error(spec, v, floats) == device_error(spec, v, ints)


# ---------------------------------------------------------------------------
# classification error


def test_error_perfect_separation():
    spec = LossSpec("binary_logistic")
    X = np.array([[1.0], [-1.0]])
    y = np.array([1, -1])
    assert device_error(spec, np.array([2.0]), one_device(X, y)) == 0.0


def test_error_zero_params_multinomial():
    spec = LossSpec("multinomial_logistic", num_classes=3)
    rng = np.random.default_rng(36)
    X = rng.normal(size=(9, 2))
    y = np.array([0, 1, 2, 0, 1, 2, 0, 0, 2])
    got = device_error(spec, np.zeros(6), one_device(X, y))
    assert got == pytest.approx(np.mean(y != 0), abs=1e-15)


def test_error_matches_naive_loop():
    rng = np.random.default_rng(37)
    for kind in ("binary_logistic", "multinomial_logistic"):
        for _ in range(50):
            spec = random_spec(rng, kind)
            p = int(rng.integers(1, 4))
            shard = make_shard(rng, spec, p, int(rng.integers(1, 10)))
            w = rng.normal(size=init_params(spec, p).shape)
            want = device_error_naive(kind, w, shard.features, shard.labels, spec.num_classes)
            assert device_error(spec, w, shard) == want


def test_error_requires_classifier():
    spec = LossSpec("squared_distance")
    shard = one_device(np.zeros((1, 2)), np.array([0.0]))
    with pytest.raises(ValueError):
        device_error(spec, np.zeros(2), shard)


def test_binary_zero_margin_counts_negative():
    spec = LossSpec("binary_logistic")
    preds = predict(spec, np.zeros(2), np.array([[1.0, 1.0]]))
    assert preds[0] == -1


def test_multinomial_tie_breaks_low_index():
    spec = LossSpec("multinomial_logistic", num_classes=4)
    preds = predict(spec, np.zeros(8), np.array([[0.5, -0.5]]))
    assert preds[0] == 0
