"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench

They check the self-time arithmetic, that tracing leaves every tailfed
module as it found it, that each workload's check rejects a corrupted
output, and that BENCHMARK.json lists the metrics the harness prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tailfed  # noqa: E402
import tailfed.cli  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from spans import MODULES, Tracer, layer_metric_units, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, read_jsonl, sorted_quantile  # noqa: E402


def test_self_times_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    durations = [10.0, 3.0, 4.0, 1.0]
    parents = [-1, 0, 0, 1]
    assert self_times(durations, parents).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_self_times_of_flat_roots_are_their_durations():
    assert self_times([1.5, 2.5], [-1, -1]).tolist() == [1.5, 2.5]


def _tailfed_state() -> dict:
    state = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "tailfed" or name.startswith("tailfed.")
    }
    state["CertifiedGradientDescent"] = dict(vars(tailfed.federation.CertifiedGradientDescent))
    return state


def _assert_same_objects(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [name for name, obj in attrs.items() if after[owner][name] is not obj]
        assert not changed, f"{owner}: {changed}"


def _small_traced_work():
    loss = tailfed.LossSpec("binary_logistic", l2_reg=1e-3)
    pop = tailfed.gen_hetero_logistic(12, (10, 20), 3, 2, 1.0, seed=3)
    for aggregation, protocol in (("plain", "server_direct"), ("masked", "secure_mm")):
        cfg = tailfed.FederationConfig(
            theta=0.5, seed=3, loss=loss, num_rounds=3, devices_per_round=6,
            aggregation=aggregation, eta_protocol=protocol,
        )
        tailfed.run_federated(pop, cfg, algorithm="deltafl", eval_every=1)
    objectives = tailfed.population_objectives(pop, loss)
    solver = tailfed.CertifiedGradientDescent(strong_convexity=2.0)
    tailfed.am_meta(objectives, 0.5, 1e-3, tailfed.PowerLawSchedule(0.01), solver, 2, np.zeros(3))


def test_traced_run_restores_every_tailfed_attribute_and_records_spans():
    before = _tailfed_state()
    tracer = Tracer(tailfed)
    with tracer.operation(0):
        assert tailfed.federation.local_update is not before["tailfed.federation"]["local_update"]
        # An alias bound by `from .secure_agg import ...` is wrapped too.
        assert tailfed.federation.masked_weighted_sum is not before["tailfed.federation"]["masked_weighted_sum"]
        _small_traced_work()
    _assert_same_objects(before, _tailfed_state())

    names = [tracer.names[i] for i in tracer.spans()["name"]]
    assert names.count("federation.deltafl_round") == 6
    assert names.count("federation.solve") == 2
    assert "models.device_loss[report]" in names and "models.device_loss[log]" in names
    metrics = layer_metrics(tracer, setup_reps=1, overhead_s=0.0)
    assert set(metrics) == set(layer_metric_units())
    assert metrics["federation.round.calls"] == 6
    assert metrics["secure_agg.masked_weighted_sum.calls"] > 0
    assert metrics["secure_agg.pair_masks"] > 0
    assert metrics["federation.solve.value_grad_evals"] > 0
    assert 0.0 < metrics["federation.survivor_ratio"] <= 1.0
    assert sum(metrics[f"{m}.share"] for m in MODULES) <= 1.0 + 1e-9


def test_tracer_restores_attributes_when_the_operation_raises():
    before = _tailfed_state()
    tracer = Tracer(tailfed)
    with pytest.raises(ValueError):
        with tracer.operation(0):
            tailfed.weighted_quantile(tailfed.WeightedValues([1.0], [1.0]), theta=2.0)
    _assert_same_objects(before, _tailfed_state())


def _rewrite_jsonl(path: Path, edit) -> None:
    recs = read_jsonl(path)
    edit(recs)
    path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")


def _ready(name: str, tmp_path: Path, seed: int = 1):
    workload = WORKLOADS[name](tailfed, tmp_path, seed)
    workload.setup()
    workload.prepare()
    workload.clear(0)
    assert workload.run_op(0) > 0
    assert workload.check(0) == []
    return workload


@pytest.fixture(scope="module")
def fl_plain(tmp_path_factory):
    return _ready("fl-plain", tmp_path_factory.mktemp("fl-plain"))


def test_fl_plain_rejects_a_survivor_that_was_not_sampled(fl_plain):
    path = fl_plain.cell("deltafl", 0.5) / "rounds.jsonl"
    original = path.read_text(encoding="utf-8")

    def drop(recs):
        recs[7]["sampled_ids"].remove(recs[7]["filtered_ids"][0])

    _rewrite_jsonl(path, drop)
    problems = fl_plain.check(0)
    path.write_text(original, encoding="utf-8")
    assert any("survivor was not sampled" in p for p in problems)
    assert any("artifacts differ" in p for p in problems)
    assert fl_plain.check(0) == []


def test_fl_plain_rejects_a_summary_that_differs_from_the_reference(fl_plain):
    path = fl_plain.work / "out" / "deltafl" / "summary.json"
    original = path.read_text(encoding="utf-8")
    summary = json.loads(original)
    summary["runs"]["0.5"]["final"]["train_loss_p90"]["mean"] += 1e-3
    path.write_text(json.dumps(summary), encoding="utf-8")
    problems = fl_plain.check(0)
    path.write_text(original, encoding="utf-8")
    assert problems == ["artifacts differ from the reference run's"]


def test_fl_plain_rejects_a_tail_objective_above_plain_averaging(fl_plain):
    original = dict(fl_plain.tail_objective)
    fl_plain.tail_objective["deltafl"] = original["fedavg"] + 1e-3
    problems = fl_plain.check(0)
    fl_plain.tail_objective.update(original)
    assert any("is not below plain averaging" in p for p in problems)


@pytest.fixture(scope="module")
def fl_masked(tmp_path_factory):
    return _ready("fl-masked", tmp_path_factory.mktemp("fl-masked"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r.__setitem__("eta", r["eta"] + 1e-3), "eta"),
        (lambda r: r["filtered_ids"].pop(), "surviving devices differ"),
        (lambda r: r["sampled_ids"].pop(), "sampled devices differ"),
    ],
)
def test_fl_masked_rejects_a_round_that_differs_from_the_plain_run(fl_masked, edit, message):
    path = fl_masked.cell("masked-0", 0.5) / "rounds.jsonl"
    original = path.read_text(encoding="utf-8")
    _rewrite_jsonl(path, lambda recs: edit(recs[42]))
    problems = fl_masked.check(0)
    path.write_text(original, encoding="utf-8")
    assert any(p.startswith("round 42:") and message in p for p in problems)


@pytest.fixture(scope="module")
def am_meta(tmp_path_factory):
    return _ready("am-meta", tmp_path_factory.mktemp("am-meta"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda recs: recs[5].__setitem__("smoothed_value", recs[4]["smoothed_value"] + 0.1), "rose by"),
        (lambda recs: recs[-1].__setitem__("grad_norm", recs[0]["grad_norm"]), "is not below the first"),
    ],
)
def test_am_meta_rejects_a_corrupted_iterate_log(am_meta, edit, message):
    path = am_meta.work / "out" / "0" / "runs" / "0.5" / str(am_meta.seed) / "rounds.jsonl"
    original = path.read_text(encoding="utf-8")
    _rewrite_jsonl(path, edit)
    problems = am_meta.check(0)
    path.write_text(original, encoding="utf-8")
    assert any(message in p for p in problems)


@pytest.fixture(scope="module")
def threshold(tmp_path_factory):
    return _ready("threshold", tmp_path_factory.mktemp("threshold"))


@pytest.mark.parametrize(
    "profile, slot, message",
    [(2, 2, "slope"), (0, 0, "weighted_quantile"), (1, 1, "superquantile")],
)
def test_threshold_rejects_a_result_shifted_by_1e_3(threshold, profile, slot, message):
    original = list(threshold.results)
    row = list(original[profile])
    row[slot] += 1e-3
    threshold.results[profile] = tuple(row)
    problems = threshold.check(0)
    threshold.results[:] = original
    n = threshold.profiles[profile][0].size
    assert any(p.startswith(f"n={n}:") and message in p for p in problems)


@pytest.mark.xfail(
    strict=True,
    reason="mm_quantile stops at its 500-iteration cap without converging on this profile, and "
    "secure_quantile_for_round returns the best iterate, which is not the quantile",
)
def test_mm_protocol_finds_the_quantile_of_a_threshold_profile(tmp_path):
    # The 10^2 profile of threshold seed 708: the weight at or below the
    # quantile exceeds 1 - theta by only 8e-5.
    workload = WORKLOADS["threshold"](tailfed, tmp_path, 708)
    workload.setup()
    values, weights = workload.profiles[0]
    mm = tailfed.secure_quantile_for_round(values, weights, 0.5)
    assert abs(mm - sorted_quantile(values, weights, 0.5)) <= 1e-6


def test_sorted_quantile_matches_tailfed_on_random_profiles():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 100):
        values = rng.normal(size=n)
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        for theta in (0.1, 0.5, 1.0):
            wv = tailfed.WeightedValues(values, weights)
            assert sorted_quantile(values, weights, theta) == tailfed.weighted_quantile(wv, theta)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_metric_units()


def test_fails_without_printing_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
