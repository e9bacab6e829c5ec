"""Metric tables, percentile summaries, and the CSV summary writer."""

import numpy as np
import pytest

from tailfed import (
    DeviceMetricTable,
    LossSpec,
    device_loss,
    gen_hetero_logistic,
    percentile,
    summarize,
    table_from_population,
)
from tailfed.metrics import SummaryWriter


def uniform_table(values, kind="train_loss"):
    n = len(values)
    return DeviceMetricTable(
        kind=kind,
        device_ids=[f"dev{i:03d}" for i in range(n)],
        weights=[1.0 / n] * n,
        values=list(values),
    )


def test_table_validation():
    with pytest.raises(ValueError):
        uniform_table([0.5], kind="banana")
    with pytest.raises(ValueError):
        DeviceMetricTable("train_loss", ["a"], [0.5, 0.5], [0.5])
    with pytest.raises(ValueError):
        uniform_table([0.5, 1.5], kind="test_error")
    with pytest.raises(ValueError):
        DeviceMetricTable("train_loss", [], [], [])


def test_percentile_four_point_median():
    table = uniform_table([1.0, 2.0, 3.0, 4.0])
    assert percentile(table, 50) == 2.0


def test_percentile_extremes():
    table = uniform_table([1.0, 2.0, 3.0, 4.0])
    assert percentile(table, 0) == 1.0
    assert percentile(table, 90) == 4.0


def test_percentile_level_validation():
    table = uniform_table([1.0])
    with pytest.raises(ValueError):
        percentile(table, 100.0)
    with pytest.raises(ValueError):
        percentile(table, -1.0)


def test_percentiles_monotone():
    rng = np.random.default_rng(60)
    for _ in range(50):
        table = uniform_table(list(rng.normal(size=int(rng.integers(1, 20)))))
        levels = (0, 20, 50, 80, 95)
        vals = [percentile(table, lv) for lv in levels]
        assert vals == sorted(vals)


def test_train_loss_weighted_but_test_error_uniform():
    ids = ["a", "b"]
    weights = [0.1, 0.9]
    values = [0.0, 1.0]
    loss_table = DeviceMetricTable("train_loss", ids, weights, values)
    err_table = DeviceMetricTable("test_error", ids, weights, values)
    # weighted: 90% of the mass sits at 1, pulling the median up
    assert percentile(loss_table, 50) == 1.0
    # uniform over devices: the lower-quantile convention picks 0
    assert percentile(err_table, 50) == 0.0
    assert summarize(loss_table)["mean"] == pytest.approx(0.9)
    assert summarize(err_table)["mean"] == pytest.approx(0.5)


def test_summarize_keys_and_values():
    table = uniform_table([1.0, 2.0, 3.0, 4.0])
    out = summarize(table)
    assert set(out) == {"mean", "p20", "p50", "p60", "p80", "p90", "p95"}
    assert out["mean"] == pytest.approx(2.5)
    assert out["p50"] == 2.0


def test_table_from_population():
    pop = gen_hetero_logistic(6, (3, 9), 2, 2, 0.5, seed=8)
    spec = LossSpec("binary_logistic")
    w = np.zeros(2)
    table = table_from_population(pop, "train_loss", lambda s: device_loss(spec, w, s))
    assert table.device_ids == pop.device_ids
    assert table.weights == pytest.approx(pop.weights)
    assert table.values == pytest.approx([np.log(2)] * 6)


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
