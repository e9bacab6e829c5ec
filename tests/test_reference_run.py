"""Whole training runs against the loop reference ``run_reference`` in tests/oracles.py.

The reference shares no code with the package: it draws from the round
streams itself, trains one device and one batch at a time, and thresholds
and averages with plain loops. Ids must match exactly; floats agree to 1e-10
relative, or to criterion 6's 1e-9 when the package aggregates masked.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfed import FederationConfig, LossSpec, Population, run_federated

from oracles import run_reference

KINDS = ("squared_distance", "binary_logistic", "multinomial_logistic")


@st.composite
def runs(draw):
    """A population of ragged devices with random weights, a config and an algorithm."""
    kind = draw(st.sampled_from(KINDS))
    num_classes = draw(st.integers(2, 3)) if kind == "multinomial_logistic" else 2
    spec = LossSpec(kind, l2_reg=draw(st.sampled_from([0.0, 1e-2])), num_classes=num_classes)
    p = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Xs, ys, weights = [], [], []
    for n in sizes:
        Xs.append(rng.normal(size=(n, p)))
        if kind == "binary_logistic":
            ys.append(rng.choice([-1, 1], size=n))
        elif kind == "multinomial_logistic":
            ys.append(rng.integers(0, num_classes, size=n))
        else:
            ys.append(np.zeros(n))
        weights.append(float(rng.uniform(0.5, 2.0)))
    pop = Population(np.concatenate(Xs), np.concatenate(ys), sizes, [f"d{k}" for k in range(len(sizes))], weights)
    theta = draw(st.sampled_from([1.0, 0.5, None]))
    cfg = FederationConfig(
        theta=draw(st.floats(0.05, 1.0)) if theta is None else theta,
        # above the population size, so that draws repeat
        devices_per_round=draw(st.integers(1, len(sizes) + 3)),
        n_local=draw(st.integers(1, 4)),
        local_epoch=draw(st.booleans()),
        batch_size=draw(st.integers(1, 5)),
        lr0=draw(st.sampled_from([0.1, 0.5])),
        lr_decay=draw(st.sampled_from([1.0, 0.5])),
        lr_decay_every=draw(st.integers(1, 4)),
        num_rounds=draw(st.integers(3, 15)),
        eta_period=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(-(2**63), 2**63 - 1)),
        loss=spec,
        aggregation=draw(st.sampled_from(["plain", "masked"])),
    )
    return pop, cfg, draw(st.sampled_from(["deltafl", "fedavg"]))


def assert_close(got, want, rel):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert float(np.abs(got - want).max(initial=0.0)) <= rel * max(1.0, float(np.abs(want).max(initial=0.0)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(runs())
def test_run_federated_matches_the_loop_reference(case):
    pop, cfg, algorithm = case
    run = run_federated(pop, cfg, algorithm=algorithm)
    want_w, want_logs = run_reference(pop, cfg, algorithm)
    rel = 1e-9 if cfg.aggregation == "masked" else 1e-10
    assert len(run.rounds) == len(want_logs)
    for log, want in zip(run.rounds, want_logs):
        assert log.sampled_ids == want["sampled_ids"]
        assert log.filtered_ids == want["filtered_ids"]
        assert (log.eta is None) == (want["eta"] is None)
        if log.eta is not None:
            assert_close(log.eta, want["eta"], rel)
        for key in ("pre_objective", "post_objective", "update_norm"):
            assert_close(getattr(log, key), want[key], rel)
    assert_close(run.params, want_w, rel)
