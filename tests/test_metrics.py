"""Metric profiles, percentile summaries, and the CSV summary writer."""

import numpy as np
import pytest

from tailfed import (
    LossSpec,
    Population,
    WeightedValues,
    device_loss,
    gen_hetero_logistic,
    percentile,
    summarize,
    table_from_population,
)
from tailfed.metrics import SummaryWriter


def one_row_devices(weights):
    """A population of one-row devices with the given sampling weights."""
    n = len(weights)
    return Population(np.zeros((n, 1)), np.zeros(n), np.ones(n, np.int64), [f"dev{i:03d}" for i in range(n)], weights)


def uniform_profile(values):
    n = len(values)
    return WeightedValues(values, np.full(n, 1.0 / n))


def test_table_validation():
    pop = one_row_devices([0.5, 0.5])
    with pytest.raises(ValueError, match="kind must be one of"):
        table_from_population(pop, "banana", [0.5, 0.5])
    with pytest.raises(ValueError, match="matching length"):
        table_from_population(pop, "train_loss", [0.5])
    with pytest.raises(ValueError, match="matching length"):
        table_from_population(pop, "test_error", [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got \[1.5\]"):
        table_from_population(pop, "test_error", [0.5, 1.5])
    with pytest.raises(ValueError, match="non-empty"):
        WeightedValues([], [])


def test_percentile_four_point_median():
    assert percentile(uniform_profile([1.0, 2.0, 3.0, 4.0]), 50) == 2.0


def test_percentile_extremes():
    profile = uniform_profile([1.0, 2.0, 3.0, 4.0])
    assert percentile(profile, 0) == 1.0
    assert percentile(profile, 90) == 4.0


def test_percentile_level_validation():
    profile = uniform_profile([1.0])
    with pytest.raises(ValueError):
        percentile(profile, 100.0)
    with pytest.raises(ValueError):
        percentile(profile, -1.0)


def test_percentiles_monotone():
    rng = np.random.default_rng(60)
    for _ in range(50):
        profile = uniform_profile(rng.normal(size=int(rng.integers(1, 20))))
        levels = (0, 20, 50, 80, 95)
        vals = [percentile(profile, lv) for lv in levels]
        assert vals == sorted(vals)


def test_train_loss_weighted_but_test_error_uniform():
    pop = one_row_devices([0.1, 0.9])
    values = [0.0, 1.0]
    loss_profile = table_from_population(pop, "train_loss", values)
    err_profile = table_from_population(pop, "test_error", values)
    # weighted: 90% of the mass sits at 1, pulling the median up
    assert percentile(loss_profile, 50) == 1.0
    # uniform over devices: the lower-quantile convention picks 0
    assert percentile(err_profile, 50) == 0.0
    assert summarize(loss_profile)["mean"] == pytest.approx(0.9)
    assert summarize(err_profile)["mean"] == pytest.approx(0.5)


def test_summarize_keys_and_values():
    out = summarize(uniform_profile([1.0, 2.0, 3.0, 4.0]))
    assert set(out) == {"mean", "p20", "p50", "p60", "p80", "p90", "p95"}
    assert out["mean"] == pytest.approx(2.5)
    assert out["p50"] == 2.0


def test_table_from_population():
    pop = gen_hetero_logistic(6, (3, 9), 2, 2, 0.5, seed=8)
    spec = LossSpec("binary_logistic")
    w = np.zeros(2)
    profile = table_from_population(pop, "train_loss", lambda s: device_loss(spec, w, s))
    assert isinstance(profile, WeightedValues)
    assert profile.weights.tolist() == pytest.approx(pop.weights.tolist())
    assert profile.values.tolist() == pytest.approx([np.log(2)] * 6)
    # the packed form, one value per device in device order, gives the same profile
    packed = table_from_population(pop, "train_loss", np.full(6, np.log(2)))
    assert packed.values.tobytes() == profile.values.tobytes()


def test_summary_export_stable_header(tmp_path):
    records = [
        {"theta": 0.5, "seed": 1, "p90": 0.25},
        {"theta": 0.5, "seed": 2, "p90": 0.5},
    ]
    path = tmp_path / "summary.csv"
    with SummaryWriter(path) as out:
        for rec in records:
            out.write(rec)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,seed,p90"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == 0.25


def test_summary_export_rejects_ragged_records(tmp_path):
    with SummaryWriter(tmp_path / "x.csv") as out:
        out.write({"a": 1})
        with pytest.raises(ValueError, match="one key order"):
            out.write({"b": 2})
