"""Command-line runner: config validation, artifact layout, determinism."""

import itertools
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from tailfed import CertifiedGradientDescent, Population, cli, gen_hetero_logistic, models, save_devices_jsonl
from tailfed.cli import (
    ConfigError,
    cmd_gaussian_demo,
    main,
    parse_experiment_config,
    triangle_targets,
)


def tiny_config(out_dir, **over):
    # 4 devices x <=10 points, 2 rounds: every run-level test stays fast.
    cfg = {
        "algorithm": "deltafl",
        "output_dir": str(out_dir),
        "thetas": [1.0, 0.5],
        "seeds": [0],
        "data": {
            "generator": "hetero_logistic",
            "num_devices": 4,
            "feature_dim": 3,
            "num_classes": 2,
            "n_range": [6, 10],
            "heterogeneity": 1.0,
            "seed": 123,
        },
        "loss": {"kind": "binary_logistic", "l2_reg": 1e-3},
        "federation": {
            "num_rounds": 2,
            "devices_per_round": 4,
            "n_local": 2,
            "batch_size": 4,
            "lr0": 0.1,
        },
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_rounds(cell_dir):
    lines = (Path(cell_dir) / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def read_csv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_validate_echoes_normalized_config(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["validate", "--config", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["schema_version"] == 1
    assert echoed["algorithm"] == "deltafl"
    assert echoed["thetas"] == [1.0, 0.5]
    assert echoed["seeds"] == [0]
    assert echoed["loss"] == {"kind": "binary_logistic", "l2_reg": 1e-3, "num_classes": 2}
    assert echoed["federation"]["num_rounds"] == 2
    assert echoed["am"]["num_iters"] == 80


def test_validate_names_the_broken_field(tmp_path, capsys):
    cases = [
        ({"thetas": [1.5]}, "config.thetas"),
        ({"thetas": []}, "config.thetas"),
        ({"seeds": ["a"]}, "config.seeds"),
        ({"algorithm": "sgd"}, "config.algorithm"),
        ({"data": {}}, "config.data"),
        ({"data": {"generator": "mnist"}}, "config.data.generator"),
        ({"loss": {"kind": "hinge"}}, "config.loss"),
        ({"federation": {"learning_rate": 0.1}}, "unknown fields"),
        ({"federation": {"lr0": -1.0}}, "config.federation"),
        ({"eval_every": -1}, "config.eval_every"),
        ({"split_fraction": 1.5}, "config.split_fraction"),
        ({"am": {"stepsize": 1.0}}, "config.am"),
        ({"schema_version": 2}, "config.schema_version"),
    ]
    for over, needle in cases:
        path = write_config(tmp_path, tiny_config(tmp_path / "out", **over))
        assert main(["validate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert needle in err


def test_validate_requires_generator_fields(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out")
    del cfg["data"]["n_range"]
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    assert "n_range" in capsys.readouterr().err


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["huge-int", "not-utf8", "directory"])
def test_undecodable_config_files_are_config_errors_at_validate_and_run(tmp_path, capsys, content):
    # open and json.load raise these as OSError or a plain ValueError, not JSONDecodeError.
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    if content == "huge-int":
        text = json.dumps(tiny_config(out))
        assert '"num_rounds": 2' in text
        path.write_text(text.replace('"num_rounds": 2', '"num_rounds": ' + "9" * 5000), encoding="utf-8")
    elif content == "not-utf8":
        path.write_bytes(b"\xff")
    else:
        path.mkdir()
    for argv in (["validate", "--config", str(path)], ["run", "--config", str(path), "--output-dir", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
    assert not out.exists()


def test_parse_coerces_numeric_lists():
    cfg = parse_experiment_config(tiny_config("/tmp/x", thetas=[1], seeds=[0, 1]))
    assert cfg.thetas == [1.0] and all(isinstance(t, float) for t in cfg.thetas)
    assert cfg.seeds == [0, 1]


def test_run_writes_documented_layout(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["run", "--config", path]) == 0
    assert "summary.json" in capsys.readouterr().out

    for theta in ("1.0", "0.5"):
        cell = out / "runs" / theta / "0"
        assert (cell / "rounds.jsonl").is_file()
        assert (cell / "metrics.csv").is_file()
        rounds = read_rounds(cell)
        assert [r["round"] for r in rounds] == [0, 1]
        for rec in rounds:
            assert set(rec) == {
                "round",
                "sampled_ids",
                "eta",
                "filtered_ids",
                "pre_objective",
                "post_objective",
                "update_norm",
            }

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["algorithm"] == "deltafl"
    assert summary["runs"]["1.0"]["label"] == "fedavg-equivalent"
    assert summary["runs"]["0.5"]["label"] == "deltafl"
    final = summary["runs"]["0.5"]["final"]
    assert "train_loss_mean" in final
    for entry in final.values():
        assert set(entry) == {"mean", "std"}
        assert entry["std"] == 0.0  # single seed


def test_single_round_two_devices_completes(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, thetas=[1.0])
    cfg["data"]["num_devices"] = 2
    cfg["federation"]["num_rounds"] = 1
    cfg["federation"]["devices_per_round"] = 2
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    assert len(read_rounds(out / "runs" / "1.0" / "0")) == 1


def test_rerun_is_byte_identical(tmp_path):
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        path = write_config(tmp_path, tiny_config(out, thetas=[0.5], seeds=[0, 1]), f"{name}.json")
        assert main(["run", "--config", path]) == 0
        paths.append(out)
    a, b = paths
    for rel in ("runs/0.5/0/rounds.jsonl", "runs/0.5/0/metrics.csv", "runs/0.5/1/rounds.jsonl", "summary.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_summary_aggregates_across_seeds(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out, thetas=[0.5], seeds=[0, 1, 2]))
    assert main(["run", "--config", path]) == 0
    per_seed = []
    for seed in ("0", "1", "2"):
        header, rows = read_csv_rows(out / "runs" / "0.5" / seed / "metrics.csv")
        assert header[0] == "round"
        per_seed.append(float(rows[-1]["train_loss_mean"]))
    got = json.loads((out / "summary.json").read_text(encoding="utf-8"))["runs"]["0.5"]["final"]["train_loss_mean"]
    assert got["mean"] == pytest.approx(np.mean(per_seed), abs=1e-12)
    assert got["std"] == pytest.approx(np.std(per_seed, ddof=1), abs=1e-12)


def test_flag_overrides_beat_the_config(tmp_path):
    out = tmp_path / "ignored"
    real = tmp_path / "real"
    path = write_config(tmp_path, tiny_config(out))
    rc = main(
        [
            "run",
            "--config",
            path,
            "--output-dir",
            str(real),
            "--algorithm",
            "fedavg",
            "--thetas",
            "1.0",
            "--seeds",
            "7",
            "--rounds",
            "1",
        ]
    )
    assert rc == 0
    assert not out.exists()
    cell = real / "runs" / "1.0" / "7"
    assert len(read_rounds(cell)) == 1
    summary = json.loads((real / "summary.json").read_text(encoding="utf-8"))
    assert summary["algorithm"] == "fedavg"
    assert summary["seeds"] == [7]
    assert list(summary["runs"]) == ["1.0"]
    assert summary["runs"]["1.0"]["label"] == "fedavg"


def test_bad_seed_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["run", "--config", path, "--seeds", "1,x"]) == 1
    assert "--seeds" in capsys.readouterr().err


def test_bad_theta_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["run", "--config", path, "--thetas", "0.5,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--thetas" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--thetas", "--seeds"])
def test_empty_list_override_is_a_config_error(tmp_path, capsys, flag):
    path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    assert main(["run", "--config", path, flag, ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "over, flags",
    [
        ({"algorithm": "fedavg"}, []),
        ({"algorithm": "fedavg", "thetas": [0.5]}, []),
        ({"algorithm": "fedavg", "thetas": [1.0]}, ["--thetas", "1.0,0.5"]),
        ({}, ["--algorithm", "fedavg"]),
    ],
    ids=["config", "config-single-theta", "thetas-flag", "algorithm-flag"],
)
def test_fedavg_with_thetas_other_than_one_is_a_config_error(tmp_path, capsys, over, flags):
    # every fedavg cell runs at theta 1, so a second theta would train the same cell twice
    path = write_config(tmp_path, tiny_config(tmp_path / "out", **over))
    runs = [["run", "--config", path, *flags]]
    if not flags:
        runs.append(["validate", "--config", path])
    for argv in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "config.thetas" in err
    assert not (tmp_path / "out").exists()


def test_failed_summary_write_keeps_the_previous_summary(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_config(out))
    assert main(["run", "--config", path]) == 0
    before = (out / "summary.json").read_bytes()

    def dies_midway(obj, fh, **kwargs):
        fh.write('{"algorithm": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dies_midway)
    assert main(["run", "--config", path, "--seeds", "5"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert (out / "summary.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["runs", "summary.json"]


@pytest.mark.parametrize(
    "over, flags, field",
    [
        ({"thetas": [0.5, 0.5], "seeds": [0, 0]}, [], "config.thetas"),
        ({"thetas": [1, 0.5, 1.0]}, [], "config.thetas"),
        ({"seeds": [0, 1, 0]}, [], "config.seeds"),
        ({}, ["--thetas", "0.5,0.50"], "config.thetas"),
        ({}, ["--seeds", "3,1,3"], "config.seeds"),
    ],
    ids=["thetas-and-seeds", "int-and-float-theta", "seeds", "thetas-flag", "seeds-flag"],
)
def test_repeated_thetas_or_seeds_are_config_errors(tmp_path, capsys, over, flags, field):
    # each (theta, seed) cell owns one runs/<theta>/<seed>/ directory and one summary entry
    path = write_config(tmp_path, tiny_config(tmp_path / "out", **over))
    runs = [["run", "--config", path, *flags]]
    if not flags:
        runs.append(["validate", "--config", path])
    for argv in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
    assert not (tmp_path / "out").exists()


def test_deltafl_at_theta_one_writes_the_fedavg_artifacts(tmp_path):
    # theta = 1 takes no threshold, so a threshold period changes nothing
    fed = {**tiny_config(tmp_path)["federation"], "num_rounds": 6, "devices_per_round": 6, "eta_period": 3}
    data = {**tiny_config(tmp_path)["data"], "num_devices": 8}
    cells = []
    for algorithm in ("deltafl", "fedavg"):
        out = tmp_path / algorithm
        cfg = tiny_config(out, algorithm=algorithm, thetas=[1.0], federation=fed, data=data, eval_every=2)
        assert main(["run", "--config", write_config(tmp_path, cfg, f"{algorithm}.json")]) == 0
        cells.append(out / "runs" / "1.0" / "0")
    for name in ("rounds.jsonl", "metrics.csv"):
        assert (cells[0] / name).read_bytes() == (cells[1] / name).read_bytes()
    assert all(log["eta"] is None for log in read_rounds(cells[0]))


def test_eval_every_controls_snapshot_rows(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, thetas=[1.0], eval_every=1)
    cfg["federation"]["num_rounds"] = 3
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    header, rows = read_csv_rows(out / "runs" / "1.0" / "0" / "metrics.csv")
    assert [int(r["round"]) for r in rows] == [0, 1, 2]

    # without snapshots only the final round is tabulated
    out2 = tmp_path / "out2"
    cfg2 = tiny_config(out2, thetas=[1.0])
    cfg2["federation"]["num_rounds"] = 3
    path2 = write_config(tmp_path, cfg2, "plain.json")
    assert main(["run", "--config", path2]) == 0
    _, rows2 = read_csv_rows(out2 / "runs" / "1.0" / "0" / "metrics.csv")
    assert [int(r["round"]) for r in rows2] == [2]


def test_final_snapshot_metrics_are_computed_once(tmp_path, monkeypatch):
    # Snapshots at rounds 1 and 3 of 4: the second holds the final metrics.
    calls = []
    original = cli._final_metrics

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_final_metrics", counted)
    out = tmp_path / "out"
    cfg = tiny_config(out, thetas=[0.5], eval_every=2)
    cfg["federation"]["num_rounds"] = 4
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == 2
    _, rows = read_csv_rows(out / "runs" / "0.5" / "0" / "metrics.csv")
    assert [int(r["round"]) for r in rows] == [1, 3]


def test_am_meta_cell_makes_one_loss_pass_per_parameter_vector(tmp_path, monkeypatch):
    # The final metrics read the losses the last iterate's record computed.
    passes = []
    original = models._device_losses

    def counted(spec, w, *args, **kwargs):
        passes.append(np.asarray(w).tobytes())
        return original(spec, w, *args, **kwargs)

    monkeypatch.setattr(models, "_device_losses", counted)
    out = tmp_path / "out"
    cfg = tiny_config(out, algorithm="am_meta", thetas=[0.5])
    cfg["am"] = {"num_iters": 3}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(passes) == len(set(passes)) >= 4  # the start point and 3 iterates at least


def test_split_adds_held_out_error_columns(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, thetas=[0.5], split_fraction=0.5)
    cfg["data"]["num_devices"] = 6
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    final = json.loads((out / "summary.json").read_text(encoding="utf-8"))["runs"]["0.5"]["final"]
    assert any(k.startswith("test_error_") for k in final)

    out2 = tmp_path / "out2"
    path2 = write_config(tmp_path, tiny_config(out2, thetas=[0.5]), "nosplit.json")
    assert main(["run", "--config", path2]) == 0
    final2 = json.loads((out2 / "summary.json").read_text(encoding="utf-8"))["runs"]["0.5"]["final"]
    assert not any(k.startswith("test_error_") for k in final2)


def test_negative_split_seed_runs(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, thetas=[0.5], split_fraction=0.5, split_seed=-3)
    cfg["data"]["num_devices"] = 6
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0
    assert main(["run", "--config", path]) == 0
    assert (out / "summary.json").is_file()


def test_zero_rounds_is_a_config_error(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out")
    cfg["federation"]["num_rounds"] = 0
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path]):
        assert main(argv) == 1
        assert "config.federation.num_rounds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the --rounds override goes through the same check
    ok = write_config(tmp_path, tiny_config(tmp_path / "out"), "ok.json")
    assert main(["run", "--config", ok, "--rounds", "0"]) == 1
    assert "config.federation.num_rounds" in capsys.readouterr().err


GAUSSIAN_DATA = {"generator": "gaussian_mixture", "means": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], "n_per_device": 5}


@pytest.mark.parametrize(
    "data_classes, gaussian, loss, field",
    [
        (2, False, {"kind": "multinomial_logistic", "num_classes": 2}, "config.loss.kind"),
        (3, False, {"kind": "multinomial_logistic", "num_classes": 2}, "config.loss.num_classes"),
        (3, False, {"kind": "binary_logistic"}, "config.loss.kind"),
        (2, True, {"kind": "binary_logistic"}, "config.loss.kind"),
        (1, False, {"kind": "multinomial_logistic", "num_classes": 2}, "config.data.num_classes"),
        (1, False, {"kind": "squared_distance"}, "config.data.num_classes"),
    ],
    ids=[
        "multinomial-on-pm1", "too-few-classes", "binary-on-3-classes", "binary-on-gaussian",
        "one-class-multinomial", "one-class-squared",
    ],
)
def test_validate_rejects_loss_that_cannot_read_the_labels(tmp_path, capsys, data_classes, gaussian, loss, field):
    # hetero_logistic labels are -1/+1 at 2 classes and 0..C-1 above, and it
    # cannot generate 1 class; gaussian_mixture labels are 0
    cfg = tiny_config(tmp_path / "out", loss=loss)
    cfg["data"]["num_classes"] = data_classes
    if gaussian:
        cfg["data"] = GAUSSIAN_DATA
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
    assert not (tmp_path / "out").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "where, value, field",
    [
        ("data.heterogeneity", NAN, "config.data.heterogeneity"),
        ("data.heterogeneity", INF, "config.data.heterogeneity"),
        ("data.feature_dim", 0, "config.data.feature_dim"),
        ("data.means", [[0.0, NAN], [1.0, 0.0]], "config.data.means"),
        ("data.means", [[0.0, 0.0], [1.0]], "config.data.means"),
        ("data.means", [["0", "1"], ["1", "0"]], "config.data.means"),
        ("loss.l2_reg", NAN, "config.loss: l2_reg"),
        ("federation.lr0", INF, "config.federation: lr0"),
        ("am.strong_convexity", -1, "config.am.strong_convexity"),
        ("am.initial_step", NAN, "config.am.initial_step"),
        ("am.num_iters", "2", "config.am.num_iters"),
        ("am.eps0", INF, "config.am.eps0"),
        # an integer too large for a float (float() overflows) in each float field
        ("loss.l2_reg", 10**400, "config.loss.l2_reg "),
        ("federation.nu", 10**400, "config.federation.nu "),
        ("federation.lr0", 10**400, "config.federation.lr0 "),
        ("data.heterogeneity", 10**400, "config.data.heterogeneity "),
        ("am.eps0", 10**400, "config.am.eps0 "),
    ],
    ids=[
        "nan-heterogeneity", "infinite-heterogeneity", "zero-feature-dim", "nan-mean", "ragged-means",
        "string-means", "nan-l2-reg", "infinite-lr0", "negative-strong-convexity", "nan-initial-step",
        "string-num-iters", "infinite-eps0", "huge-int-l2-reg", "huge-int-nu", "huge-int-lr0",
        "huge-int-heterogeneity", "huge-int-eps0",
    ],
)
def test_bad_values_are_config_errors_at_validate_and_run(tmp_path, capsys, where, value, field):
    # Each would otherwise fail mid-run or at validate with exit 2 (a diverged
    # round 0, a numpy error, a float overflow), or run with a zero-width
    # model or no AM certificate.
    cfg = tiny_config(tmp_path / "out", algorithm="am_meta", thetas=[0.5])
    if where == "data.means":
        cfg["data"], cfg["loss"] = dict(GAUSSIAN_DATA), {"kind": "squared_distance"}
    section, key = where.split(".")
    cfg.setdefault(section, {})[key] = value
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "root, flags, field",
    [
        ({"federation": []}, ["--rounds", "3"], "config.federation"),
        ({"federation": 5}, ["--rounds", "3"], "config.federation"),
        ([], ["--algorithm", "fedavg"], "config root"),
        ([], ["--rounds", "3"], "config root"),
        ("deltafl", ["--thetas", "0.5"], "config root"),
    ],
    ids=["list-federation", "number-federation", "list-root-algorithm", "list-root-rounds", "string-root-thetas"],
)
def test_flag_overrides_leave_a_misshapen_config_to_its_checks(tmp_path, capsys, root, flags, field):
    # run reports the shape as validate does, with exit 1, whatever flags it is given
    cfg = tiny_config(tmp_path / "out", **root) if isinstance(root, dict) else root
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path, *flags]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "where, value",
    [
        ("seeds", [True]),
        ("thetas", [True]),
        ("data.num_devices", True),
        ("eval_every", True),
        ("split_seed", False),
        ("federation.local_epoch", "no"),
        ("federation.lr_decay_every", 2.5),
        ("federation.eta_period", 1.0),
        ("federation.nu", "0.1"),
        ("loss.l2_reg", "0.1"),
        ("loss.l2_reg", True),
        ("loss.num_classes", 2.7),
        ("federation.num_rounds", 1.5),
        ("federation.devices_per_round", 2.5),
        ("federation.batch_size", True),
        ("federation.n_local", 1.5),
        ("federation.lr0", "0.1"),
    ],
    ids=lambda v: json.dumps(v),
)
def test_values_of_the_wrong_type_are_config_errors_at_validate_and_run(tmp_path, capsys, where, value):
    # Each once ran with a value the config did not give (true as 1, 2.7 as
    # 2, "no" as true), failed mid-run with exit 2, or named no field.
    cfg = tiny_config(tmp_path / "out", split_fraction=0.5)
    cfg["federation"]["local_epoch"] = False  # so that n_local is read
    *section, key = where.split(".")
    (cfg[section[0]] if section else cfg)[key] = value
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"config.{where}" in err
    assert not (tmp_path / "out").exists()


def _set(cfg, where, value):
    *section, key = where.split(".")
    (cfg[section[0]] if section else cfg)[key] = value


@pytest.mark.parametrize(
    "where, value, needles",
    [
        ("loss.l2reg", 0.5, ["config.loss has unknown fields", "l2reg"]),
        ("data.heterogenity", 5.0, ["config.data has unknown fields", "heterogenity"]),
        ("data.seed", "7", ["config.data.seed"]),
        ("data.seed", True, ["config.data.seed"]),
        ("data.seed", 1.5, ["config.data.seed"]),
        ("eval_evry", 5, ["config has unknown fields", "eval_evry"]),
        ("data.means", [[0.0, 0.0], [1.0, 1.0]], ["config.data has unknown fields", "means"]),
        ("data", {**GAUSSIAN_DATA, "num_devices": 3}, ["config.data has unknown fields", "num_devices"]),
        ("data.device_file", "devices.jsonl", ["config.data has unknown fields", "generator"]),
        ("schema_version", True, ["config.schema_version"]),
        ("split_fraction", 0.01, ["config.split_fraction", "degenerate split"]),
    ],
    ids=lambda v: json.dumps(v),
)
def test_every_section_rejects_unknown_and_mistyped_fields(tmp_path, capsys, where, value, needles):
    # Each once validated and ran: an unknown field was ignored, data.seed
    # was read through int(), and a split with an empty side failed mid-run.
    cfg = tiny_config(tmp_path / "out", split_fraction=0.5, loss={"kind": "squared_distance"})
    cfg["data"]["num_devices"] = 6
    _set(cfg, where, value)
    path = write_config(tmp_path, cfg)
    for argv in (["validate", "--config", path], ["run", "--config", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and all(needle in err for needle in needles), err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_degenerate_split_of_a_device_file(tmp_path, capsys):
    # validate cannot count a device file's devices; run does before it writes anything.
    device_file = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(6, (4, 9), 3, 2, 1.0, seed=11), device_file)
    cfg = tiny_config(tmp_path / "out", data={"device_file": str(device_file)}, split_fraction=0.01)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0
    capsys.readouterr()
    assert main(["run", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("config error: config.split_fraction: degenerate split")
    assert not (tmp_path / "out").exists()


def test_readme_config_example_validates():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"### Config\n.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = parse_experiment_config(json.loads(example))
    assert cfg.data["generator"] == "hetero_logistic" and cfg.split_fraction == 0.5


@pytest.mark.parametrize("data_seed, builds", [(None, 2), (5, 1)], ids=["cell-seed", "data-seed"])
def test_run_builds_each_population_once_per_data_seed(tmp_path, monkeypatch, data_seed, builds):
    # The seed loop is outer: with the cell seed as data seed, seeds 0 and 1
    # each build once for both thetas; one data seed builds once.
    calls = []
    real = cli.gen_hetero_logistic
    monkeypatch.setattr(cli, "gen_hetero_logistic", lambda **kw: calls.append(kw["seed"]) or real(**kw))
    cfg = tiny_config(tmp_path / "out", seeds=[0, 1])
    cfg["data"].pop("seed")
    if data_seed is not None:
        cfg["data"]["seed"] = data_seed
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert len(calls) == builds and set(calls) == ({0, 1} if data_seed is None else {data_seed})


def test_run_loads_a_device_file_once(tmp_path, monkeypatch):
    device_file = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, 2, 1.0, seed=11), device_file)
    calls = []
    real = cli.load_devices_jsonl
    monkeypatch.setattr(cli, "load_devices_jsonl", lambda path: calls.append(path) or real(path))
    cfg = tiny_config(tmp_path / "out", seeds=[0, 1], data={"device_file": str(device_file)}, split_fraction=0.5)
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    assert calls == [str(device_file)]
    assert len(list((tmp_path / "out" / "runs").glob("*/*/rounds.jsonl"))) == 4


def test_run_rejects_a_zero_width_device_file(tmp_path, capsys):
    # Not a run of a model with no parameters: the load names the line and the device.
    device_file = tmp_path / "devices.jsonl"
    device_file.write_text('{"id": "a", "x": [[]], "y": [1]}\n')
    cfg = tiny_config(tmp_path / "out", data={"device_file": str(device_file)})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == "error: line 1 (device 'a'): x must be a non-empty matrix\n"
    assert not (tmp_path / "out").exists()


def test_validate_accepts_loss_that_reads_the_labels(tmp_path):
    ok = [
        (3, {"kind": "multinomial_logistic", "num_classes": 3}),
        (3, {"kind": "multinomial_logistic", "num_classes": 5}),
        (3, {"kind": "squared_distance"}),
        (None, {"kind": "multinomial_logistic", "num_classes": 2}),
        (None, {"kind": "squared_distance"}),
    ]
    for data_classes, loss in ok:
        cfg = tiny_config(tmp_path / "out", loss=loss)
        if data_classes is None:
            cfg["data"] = GAUSSIAN_DATA
        else:
            cfg["data"]["num_classes"] = data_classes
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize(
    "data_classes, loss, field, device",
    [
        (3, {"kind": "binary_logistic"}, "config.loss.kind", "dev000"),
        (3, {"kind": "multinomial_logistic", "num_classes": 2}, "config.loss.num_classes", "dev001"),
        (2, {"kind": "multinomial_logistic", "num_classes": 2}, "config.loss.kind", "dev000"),
    ],
    ids=["binary-on-3-classes", "too-few-classes", "multinomial-on-pm1"],
)
def test_run_rejects_device_file_labels_the_loss_cannot_read(tmp_path, capsys, data_classes, loss, field, device):
    # Device files are read at run time, so validate passes and run stops
    # with a config error before round 0, naming the field and the device.
    # With seed 11 at 3 classes, dev000 has labels 0/1 and dev001 0/2.
    device_file = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, data_classes, 1.0, seed=11), device_file)
    cfg = tiny_config(tmp_path / "out", thetas=[0.5], loss=loss, data={"device_file": str(device_file)})
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0
    capsys.readouterr()
    # The first run parses the file and writes its binary copy; the second reads the copy.
    for copy_before in (False, True):
        assert (tmp_path / "devices.jsonl.cache.npz").exists() == copy_before
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err and f"device {device!r}" in err
        assert not (tmp_path / "out" / "summary.json").exists()


def test_run_on_a_device_file_builds_no_shard_views(tmp_path, monkeypatch):
    # The label check and every kernel read the population's packed arrays.
    device_file = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, 3, 1.0, seed=11), device_file)
    loss = {"kind": "multinomial_logistic", "num_classes": 3}
    cfg = tiny_config(tmp_path / "out", loss=loss, data={"device_file": str(device_file)}, split_fraction=0.5)

    def no_views(pop):
        raise AssertionError("a run built shard views")

    monkeypatch.setattr(Population, "shards", property(no_views))
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0


def test_run_writes_the_same_bytes_from_a_device_file_cold_and_warm(tmp_path):
    device_file = tmp_path / "devices.jsonl"
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, 3, 1.0, seed=11), device_file)
    loss = {"kind": "multinomial_logistic", "num_classes": 3}
    cfg = tiny_config(tmp_path / "out", loss=loss, data={"device_file": str(device_file)}, split_fraction=0.5)
    path = write_config(tmp_path, cfg)
    trees = []
    for copy_before in (False, True):
        assert (tmp_path / "devices.jsonl.cache.npz").exists() == copy_before
        assert main(["run", "--config", path]) == 0
        out = tmp_path / "out"
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        shutil.rmtree(out)
    assert trees[0] == trees[1] and len(trees[0]) > 2


@pytest.mark.parametrize(
    "line, loss, where",
    [
        ('{"id": "a", "x": [[NaN, 1.0]], "y": [1]}', {"kind": "binary_logistic"}, "x"),
        ('{"id": "a", "x": [[0.0, 1.0]], "y": [Infinity]}', {"kind": "squared_distance"}, "y"),
    ],
    ids=["nan-feature", "infinite-label"],
)
def test_run_rejects_non_finite_device_file_values_at_load(tmp_path, capsys, recwarn, line, loss, where):
    # Not a divergence in round 0, and not a label cast to garbage: the load
    # names the line and the device.
    device_file = tmp_path / "devices.jsonl"
    device_file.write_text('{"id": "ok", "x": [[1.0, 0.0]], "y": [1]}\n' + line + "\n")
    cfg = tiny_config(tmp_path / "out", thetas=[0.5], loss=loss, data={"device_file": str(device_file)})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: line 2 (device 'a'): {where} has a non-finite value\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_diverging_run_names_round_and_device(tmp_path, capsys, recwarn):
    cfg = tiny_config(tmp_path / "out", thetas=[0.5], data=GAUSSIAN_DATA, loss={"kind": "squared_distance"})
    cfg["federation"] = {"num_rounds": 400, "devices_per_round": 2, "lr0": 10.0}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: round ")
    assert "diverged: device 'dev0" in err and "non-finite" in err
    # The error says it all; numpy's overflow warnings on the way are not shown.
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_diverging_run_keeps_the_rounds_it_finished(tmp_path, capsys):
    data = {**GAUSSIAN_DATA, "seed": 1}
    cfg = tiny_config(tmp_path / "out", thetas=[0.5], data=data, loss={"kind": "squared_distance"})
    cfg["federation"] = {"num_rounds": 400, "devices_per_round": 2, "lr0": 10.0}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    failed = int(re.match(r"error: round (\d+) diverged", capsys.readouterr().err).group(1))
    assert failed == 120
    rounds = read_rounds(tmp_path / "out" / "runs" / "0.5" / "0")
    assert [r["round"] for r in rounds] == list(range(failed))


def test_diverging_run_keeps_the_snapshot_rows_it_finished(tmp_path, capsys):
    data = {**GAUSSIAN_DATA, "seed": 1}
    cfg = tiny_config(tmp_path / "out", thetas=[0.5], data=data, loss={"kind": "squared_distance"}, eval_every=25)
    cfg["federation"] = {"num_rounds": 400, "devices_per_round": 2, "lr0": 10.0}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: round 120 diverged")
    header, rows = read_csv_rows(tmp_path / "out" / "runs" / "0.5" / "0" / "metrics.csv")
    assert header[:2] == ["round", "train_loss_mean"]
    assert [int(r["round"]) for r in rows] == [24, 49, 74, 99]


def test_failed_am_meta_run_keeps_the_iterates_it_finished(tmp_path, monkeypatch, capsys):
    cfg = tiny_config(tmp_path / "out", algorithm="am_meta", thetas=[0.5])
    cfg["am"] = {"num_iters": 12}
    path = write_config(tmp_path, cfg)
    solve = CertifiedGradientDescent.solve
    calls = itertools.count()

    def failing_solve(self, *args, **kwargs):
        if next(calls) == 4:
            raise FloatingPointError("parameter step failed")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(CertifiedGradientDescent, "solve", failing_solve)
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == "error: parameter step failed\n"
    cell = tmp_path / "out" / "runs" / "0.5" / "0"
    # the start point and the iterates of the 4 parameter steps that finished
    assert [r["iter"] for r in read_rounds(cell)] == list(range(5))
    header, rows = read_csv_rows(cell / "metrics.csv")
    assert header == ["iter", "grad_norm", "smoothed_value"]
    assert [int(r["iter"]) for r in rows] == list(range(5))


def test_runtime_failure_exits_two(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "out")
    cfg["data"] = {"device_file": str(tmp_path / "missing.jsonl")}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 0  # schema alone cannot see the missing file
    capsys.readouterr()
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_am_meta_run_emits_iterate_trace(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, algorithm="am_meta", thetas=[0.5])
    cfg["data"] = {
        "generator": "gaussian_mixture",
        "means": [[0.0, 0.0], [1.5, 1.0], [4.0, 0.0]],
        "n_per_device": 50,
        "seed": 3,
    }
    cfg["loss"] = {"kind": "squared_distance"}
    cfg["federation"] = {"nu": 1e-3}
    cfg["am"] = {"num_iters": 12}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0

    rounds = read_rounds(out / "runs" / "0.5" / "0")
    assert len(rounds) == 13  # start point plus one record per iteration
    assert [r["iter"] for r in rounds] == list(range(13))
    assert set(rounds[0]) == {"iter", "eta", "grad_norm", "eta_slope", "smoothed_value", "nonsmooth_value"}
    header, rows = read_csv_rows(out / "runs" / "0.5" / "0" / "metrics.csv")
    assert header == ["iter", "grad_norm", "smoothed_value"]
    assert len(rows) == 13

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    final = summary["runs"]["0.5"]["final"]
    assert summary["runs"]["0.5"]["label"] == "am_meta"
    assert "grad_norm" in final and "train_loss_mean" in final
    assert final["grad_norm"]["mean"] == rounds[-1]["grad_norm"]


def test_gaussian_demo_hits_analytic_targets(tmp_path):
    out = tmp_path / "demo"
    assert main(["gaussian-demo", "--output-dir", str(out), "--n-per-device", "200", "--seed", "1"]) == 0
    report = json.loads((out / "gaussian_demo.json").read_text(encoding="utf-8"))
    targets = report["targets"]
    assert targets["tie"] is False
    assert targets["tail_midpoints"] == [[2.0, 0.0]]
    assert np.allclose(targets["centroid"], [11.0 / 6.0, 1.0 / 3.0])

    tail_key = str(2.0 / 3.0)
    assert report["analytic"]["1.0"]["distance"] <= 1e-3
    assert report["analytic"][tail_key]["distance"] <= 1e-2
    for mode in ("analytic", "sampled"):
        assert set(report[mode]) == {"1.0", tail_key}
        assert report[mode][tail_key]["tie"] is False


def test_gaussian_demo_reports_equilateral_tie(tmp_path, capsys):
    means = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]
    rc = main(
        [
            "gaussian-demo",
            "--output-dir",
            str(tmp_path / "demo"),
            "--means",
            json.dumps(means),
            "--n-per-device",
            "100",
        ]
    )
    assert rc == 0
    assert "tied" in capsys.readouterr().out
    report = json.loads((tmp_path / "demo" / "gaussian_demo.json").read_text(encoding="utf-8"))
    assert report["targets"]["tie"] is True
    assert len(report["targets"]["tail_midpoints"]) == 3


def test_gaussian_demo_rejects_bad_means(tmp_path, capsys):
    assert main(["gaussian-demo", "--output-dir", str(tmp_path), "--means", "[[0,0]"]) == 1
    assert "--means" in capsys.readouterr().err
    assert main(["gaussian-demo", "--output-dir", str(tmp_path), "--means", "[[0,0],[1,1]]"]) == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--means", '[["a",0],[1,1],[2,0]]'),
        ("--means", '[["0",0],[1.5,1],[4,0]]'),
        ("--means", ""),
        ("--n-per-device", "0"),
    ],
    ids=["means-not-numbers", "means-quoted-number", "means-empty", "n-per-device-zero"],
)
def test_bad_gaussian_demo_flags_are_config_errors(tmp_path, capsys, flag, value):
    assert main(["gaussian-demo", "--output-dir", str(tmp_path / "demo"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not (tmp_path / "demo").exists()


def test_triangle_targets_requires_three_planar_means():
    with pytest.raises(ConfigError):
        triangle_targets([[0.0, 0.0], [1.0, 1.0]])
    out = triangle_targets([[0.0, 0.0], [1.5, 1.0], [4.0, 0.0]])
    assert out["side_lengths"][1] == pytest.approx(4.0)


def test_gaussian_demo_callable_directly(tmp_path):
    assert cmd_gaussian_demo(str(tmp_path / "d"), n_per_device=100, seed=2) == 0
    assert (tmp_path / "d" / "gaussian_demo.json").is_file()
