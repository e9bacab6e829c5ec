"""Config-driven experiment runner.

Subcommands:

* ``run``: one training run per (theta, seed) cell, artifacts under
  ``<output_dir>/runs/<theta>/<seed>/``, cross-seed aggregate in
  ``<output_dir>/summary.json``.
* ``gaussian-demo``: three-Gaussian sanity study comparing the tail
  objective's minimizer against its analytic target.
* ``validate``: parse and echo the normalized config without running.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import models
from .data import Population, gen_gaussian_mixture, gen_hetero_logistic, load_devices_jsonl, split_devices
from .federation import (
    CertifiedGradientDescent,
    FederationConfig,
    PowerLawSchedule,
    am_meta,
    population_objectives,
    quadratic_objectives,
    run_federated,
)
from .models import LossSpec

ALGORITHMS = ("fedavg", "deltafl", "am_meta")

# Bump on any incompatible change to the config layout.
SCHEMA_VERSION = 1

# Scalene triangle whose longest side subtends an obtuse angle, so the
# tail objective at theta = 2/3 has a unique minimizer at that side's midpoint.
DEFAULT_DEMO_MEANS = ((0.0, 0.0), (1.5, 1.0), (4.0, 0.0))


class ConfigError(ValueError):
    pass


@dataclass
class AMSettings:
    eps0: float = 0.01
    exponent: float = 1.5
    strong_convexity: float = 2.0
    initial_step: float = 0.25
    num_iters: int = 80


@dataclass
class ExperimentConfig:
    algorithm: str
    output_dir: str
    thetas: list[float]
    seeds: list[int]
    data: dict
    loss: LossSpec
    federation: dict = field(default_factory=dict)
    eval_every: int = 0
    split_fraction: float | None = None
    split_seed: int = 0
    am: AMSettings = field(default_factory=AMSettings)
    schema_version: int = SCHEMA_VERSION

    def normalized(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "algorithm": self.algorithm,
            "output_dir": self.output_dir,
            "thetas": self.thetas,
            "seeds": self.seeds,
            "eval_every": self.eval_every,
            "split_fraction": self.split_fraction,
            "split_seed": self.split_seed,
            "data": self.data,
            "loss": asdict(self.loss),
            "federation": self.federation,
            "am": asdict(self.am),
        }


def _need(raw: dict, key: str, types, where: str):
    if key not in raw:
        raise ConfigError(f"{where}.{key} is required")
    val = raw[key]
    if not isinstance(val, types):
        raise ConfigError(f"{where}.{key} has the wrong type: expected {types}, got {type(val).__name__}")
    return val


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version {version!r} is not supported; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = _need(raw, "algorithm", str, "config")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"config.algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    output_dir = _need(raw, "output_dir", str, "config")
    thetas = _need(raw, "thetas", list, "config")
    if not thetas:
        raise ConfigError("config.thetas must be non-empty")
    for theta in thetas:
        if type(theta) not in (int, float) or not (0.0 < float(theta) <= 1.0):
            raise ConfigError(f"config.thetas entries must be numbers in (0, 1], got {theta!r}")
    thetas = _distinct([float(t) for t in thetas], "config.thetas")
    # Every fedavg cell runs at theta 1, so another theta would train the same cell again.
    if algorithm == "fedavg" and thetas != [1.0]:
        raise ConfigError(f"config.thetas must be [1.0] for fedavg, got {thetas!r}")
    seeds = _need(raw, "seeds", list, "config")
    if not seeds or not all(type(s) is int for s in seeds):
        raise ConfigError("config.seeds must be a non-empty list of integers")
    seeds = _distinct([int(s) for s in seeds], "config.seeds")

    data = _need(raw, "data", dict, "config")
    if "device_file" in data:
        if not isinstance(data["device_file"], str):
            raise ConfigError("config.data.device_file must be a path string")
    elif "generator" in data:
        gen = data["generator"]
        if gen == "hetero_logistic":
            for key, least in (("num_devices", 1), ("feature_dim", 1), ("num_classes", 2)):
                if type(data.get(key)) is not int or data[key] < least:
                    raise ConfigError(f"config.data.{key} must be an integer >= {least}")
            nr = data.get("n_range")
            if (
                not isinstance(nr, list)
                or len(nr) != 2
                or not all(type(v) is int for v in nr)
                or not (1 <= nr[0] <= nr[1])
            ):
                raise ConfigError("config.data.n_range must be [lo, hi] with 1 <= lo <= hi")
            het = data.get("heterogeneity", 1.0)
            if type(het) not in (int, float) or not (0 <= het < np.inf):
                raise ConfigError("config.data.heterogeneity must be a finite nonnegative number")
        elif gen == "gaussian_mixture":
            if _finite_numbers(data.get("means")).ndim != 2:
                raise ConfigError("config.data.means must be a non-empty list of equal-length finite number vectors")
            if type(data.get("n_per_device")) is not int or data["n_per_device"] < 1:
                raise ConfigError("config.data.n_per_device must be a positive integer")
        else:
            raise ConfigError(f"config.data.generator must be hetero_logistic or gaussian_mixture, got {gen!r}")
    else:
        raise ConfigError("config.data needs either a generator or a device_file")

    loss_raw = _need(raw, "loss", dict, "config")
    kind = _need(loss_raw, "kind", str, "config.loss")
    _check_types(loss_raw, LossSpec, "config.loss")
    try:
        loss = LossSpec(
            kind=kind,
            l2_reg=float(loss_raw.get("l2_reg", 0.0)),
            num_classes=loss_raw.get("num_classes", 2),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.loss: {exc}") from exc

    gen = data.get("generator")
    if gen is not None:
        # hetero_logistic writes -1/+1 for 2 classes and 0..C-1 for more,
        # gaussian_mixture writes 0. Device files are checked when a run loads them.
        classes = data["num_classes"] if gen == "hetero_logistic" else 1
        _check_labels(loss, np.array([-1, 1] if classes == 2 else range(classes)), [0], lambda k: f"{gen} data")

    federation = raw.get("federation", {})
    if not isinstance(federation, dict):
        raise ConfigError("config.federation must be an object")
    # theta, seed and loss come from the cell and config.loss, not from here.
    allowed = {f.name for f in fields(FederationConfig)} - {"theta", "seed", "loss"}
    unknown = set(federation) - allowed
    if unknown:
        raise ConfigError(f"config.federation has unknown fields: {sorted(unknown)}")
    _check_types(federation, FederationConfig, "config.federation")

    eval_every = raw.get("eval_every", 0)
    if type(eval_every) is not int or eval_every < 0:
        raise ConfigError("config.eval_every must be a nonnegative integer")

    split_fraction = raw.get("split_fraction")
    if split_fraction is not None and (
        type(split_fraction) not in (int, float) or not (0.0 < split_fraction < 1.0)
    ):
        raise ConfigError("config.split_fraction must lie strictly between 0 and 1")
    split_seed = raw.get("split_seed", 0)
    if type(split_seed) is not int:
        raise ConfigError("config.split_seed must be an integer")

    am_raw = raw.get("am", {})
    if not isinstance(am_raw, dict):
        raise ConfigError("config.am must be an object")
    try:
        am = AMSettings(**am_raw)
    except TypeError as exc:
        raise ConfigError(f"config.am: {exc}") from exc
    _check_types(am_raw, AMSettings, "config.am")
    if am.num_iters < 0:
        raise ConfigError(f"config.am.num_iters must be an integer >= 0, got {am.num_iters!r}")
    # The solver and the schedule check their own values.
    try:
        _schedule_and_solver(am)
    except ValueError as exc:
        raise ConfigError(f"config.am.{exc}") from exc

    cfg = ExperimentConfig(
        algorithm=algorithm,
        output_dir=output_dir,
        thetas=thetas,
        seeds=seeds,
        data=data,
        loss=loss,
        federation=dict(federation),
        eval_every=eval_every,
        split_fraction=None if split_fraction is None else float(split_fraction),
        split_seed=split_seed,
        am=am,
    )
    # Surface federation field errors now rather than at run time.
    try:
        fed = _federation_config(cfg, theta=cfg.thetas[0], seed=cfg.seeds[0])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.federation: {exc}") from exc
    # A run logs and tabulates its last round, so it needs at least one.
    if fed.num_rounds < 1:
        raise ConfigError(f"config.federation.num_rounds must be >= 1, got {fed.num_rounds!r}")
    return cfg


def _check_types(raw: dict, cls, where: str) -> None:
    # A given field must have the Python type it is annotated with; a float takes an int, no number a bool.
    types = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}
    for f in fields(cls):
        if f.name in raw and f.type in types and type(raw[f.name]) not in types[f.type]:
            raise ConfigError(f"{where}.{f.name} must be of type {f.type}, got {json.dumps(raw[f.name])}")


def _distinct(values: list, where: str) -> list:
    # A repeated theta or seed would run twice into one runs/<theta>/<seed>/
    # directory and count twice in summary.json.
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{where} lists {v!r} more than once")
    return values


def _check_labels(loss: LossSpec, labels: np.ndarray, offsets, source) -> None:
    # What each loss reads: binary_logistic -1/+1, multinomial_logistic class
    # indices 0..num_classes-1, squared_distance any labels. Group k of rows
    # starts at offsets[k] and is named source(k). (Plain Python sets:
    # np.unique would import numpy.ma, about 1 MB, on every run.)
    if loss.kind == "binary_logistic":
        rules = [("kind binary_logistic needs labels -1/+1", (labels != -1) & (labels != 1))]
    elif loss.kind == "multinomial_logistic":
        rules = [
            ("kind multinomial_logistic needs class labels 0..C-1", (labels < 0) | (labels != np.floor(labels))),
            (f"num_classes {loss.num_classes} needs class labels below it", labels >= loss.num_classes),
        ]
    else:
        return
    for need, bad in rules:
        if bad.any():
            k = int(np.searchsorted(offsets, bad.argmax(), side="right")) - 1
            vals = sorted(set(np.split(labels, offsets[1:])[k].tolist()))
            shown = "/".join(f"{v:g}" for v in vals[:5]) + ("/..." if len(vals) > 5 else "")
            raise ConfigError(f"config.loss.{need}, but {source(k)} has labels {shown}")


def _federation_config(cfg: ExperimentConfig, theta: float, seed: int) -> FederationConfig:
    return FederationConfig(theta=theta, seed=seed, loss=cfg.loss, **cfg.federation)


def _build_population(cfg: ExperimentConfig, seed: int) -> Population:
    data = cfg.data
    if "device_file" in data:
        pop = load_devices_jsonl(data["device_file"])
        source = data["device_file"]
        _check_labels(cfg.loss, pop.labels, pop.offsets, lambda k: f"device {pop.device_ids[k]!r} of {source}")
        return pop
    data_seed = data.get("seed")
    root = int(data_seed) if data_seed is not None else seed
    if data["generator"] == "hetero_logistic":
        return gen_hetero_logistic(
            num_devices=data["num_devices"],
            n_range=(data["n_range"][0], data["n_range"][1]),
            feature_dim=data["feature_dim"],
            num_classes=data["num_classes"],
            heterogeneity=float(data.get("heterogeneity", 1.0)),
            seed=root,
        )
    return gen_gaussian_mixture(data["means"], data["n_per_device"], seed=root)


def _final_metrics(
    cfg: ExperimentConfig, params: np.ndarray, train: Population, test: Population | None
) -> dict[str, float]:
    out: dict[str, float] = {}
    table = metrics_mod.table_from_population(train, "train_loss", models.packed_losses(cfg.loss, params, train))
    for key, val in metrics_mod.summarize(table).items():
        out[f"train_loss_{key}"] = val
    if test is not None and cfg.loss.kind != "squared_distance":
        etable = metrics_mod.table_from_population(test, "test_error", models.packed_errors(cfg.loss, params, test))
        for key, val in metrics_mod.summarize(etable).items():
            out[f"test_error_{key}"] = val
    return out


def _run_cell(cfg: ExperimentConfig, theta: float, seed: int, cell_dir: Path) -> dict[str, float]:
    pop = _build_population(cfg, seed)
    if cfg.split_fraction is not None:
        train, test = split_devices(pop, cfg.split_fraction, cfg.split_seed)
    else:
        train, test = pop, None
    cell_dir.mkdir(parents=True, exist_ok=True)
    fed = _federation_config(cfg, theta=theta, seed=seed)

    # Each rounds.jsonl line and metrics.csv row is written as its round,
    # iterate or snapshot ends, so a run that dies keeps what it finished.
    with (
        open(cell_dir / "rounds.jsonl", "w", encoding="utf-8") as fh,
        metrics_mod.SummaryWriter(cell_dir / "metrics.csv") as table,
    ):

        def write_line(record: dict) -> None:
            fh.write(json.dumps(record) + "\n")
            fh.flush()

        if cfg.algorithm == "am_meta":
            iters = itertools.count()

            def write_iterate(it) -> None:
                t = next(iters)
                write_line({"iter": t, **it.to_dict()})
                table.write({"iter": t, "grad_norm": it.grad_norm, "smoothed_value": it.smoothed_value})

            objectives = population_objectives(train, cfg.loss)
            w0 = models.init_params(cfg.loss, train.feature_dim)
            steps = _schedule_and_solver(cfg.am)
            result = am_meta(objectives, theta, fed.nu, *steps, cfg.am.num_iters, w0, on_iterate=write_iterate)
            final = _final_metrics(cfg, result.params, train, test)
            final["grad_norm"] = result.iterates[-1].grad_norm
            return final

        def write_snapshot(snap) -> None:
            table.write({"round": snap.round_index, **_final_metrics(cfg, snap.params, train, test)})

        run = run_federated(
            train,
            fed,
            algorithm=cfg.algorithm,
            eval_every=cfg.eval_every,
            on_round=lambda log: write_line(log.to_dict()),
            on_snapshot=write_snapshot,
        )
        final = _final_metrics(cfg, run.params, train, test)
        final_round = len(run.rounds) - 1
        if not run.snapshots or run.snapshots[-1].round_index != final_round:
            table.write({"round": final_round, **final})
        return final


def _schedule_and_solver(am: AMSettings) -> tuple[PowerLawSchedule, CertifiedGradientDescent]:
    solver = CertifiedGradientDescent(strong_convexity=am.strong_convexity, initial_step=am.initial_step)
    return PowerLawSchedule(am.eps0, am.exponent), solver


def _label(cfg: ExperimentConfig, theta: float) -> str:
    if cfg.algorithm == "fedavg":
        return "fedavg"
    if theta == 1.0:
        return "fedavg-equivalent"
    return cfg.algorithm


def cmd_run(cfg: ExperimentConfig) -> int:
    out_root = Path(cfg.output_dir)
    summary: dict = {"algorithm": cfg.algorithm, "seeds": cfg.seeds, "runs": {}}
    for theta in cfg.thetas:
        per_seed: list[dict[str, float]] = []
        for seed in cfg.seeds:
            cell_dir = out_root / "runs" / str(theta) / str(seed)
            per_seed.append(_run_cell(cfg, theta, seed, cell_dir))
        keys = list(per_seed[0].keys())
        aggregated = {}
        for key in keys:
            vals = np.array([m[key] for m in per_seed])
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            aggregated[key] = {"mean": float(vals.mean()), "std": std}
        summary["runs"][str(theta)] = {"label": _label(cfg, theta), "final": aggregated}
    out_root.mkdir(parents=True, exist_ok=True)
    # Written beside its target and moved into place, so a write that dies
    # leaves the previous summary (or none), never a truncated one.
    tmp = out_root / "summary.json.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, out_root / "summary.json")
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {out_root / 'summary.json'}")
    return 0


def triangle_targets(means) -> dict:
    """Centroid and longest-side midpoint (or the tie report) for three means."""
    pts = np.asarray(means, dtype=np.float64)
    if pts.shape != (3, 2):
        raise ConfigError("the demo wants exactly three means in the plane")
    centroid = pts.mean(axis=0)
    pairs = [(0, 1), (0, 2), (1, 2)]
    lengths = [float(np.linalg.norm(pts[i] - pts[j])) for i, j in pairs]
    longest = max(lengths)
    tied = [k for k, ln in enumerate(lengths) if ln >= longest * (1.0 - 1e-9)]
    midpoints = [((pts[i] + pts[j]) / 2.0).tolist() for i, j in (pairs[k] for k in tied)]
    return {
        "centroid": centroid.tolist(),
        "side_lengths": lengths,
        "tie": len(tied) > 1,
        "tail_midpoints": midpoints,
    }


def cmd_gaussian_demo(output_dir: str, means=None, n_per_device: int = 10_000, seed: int = 0) -> int:
    means = DEFAULT_DEMO_MEANS if means is None else means
    targets = triangle_targets(means)
    pts = np.asarray(means, dtype=np.float64)
    am = AMSettings()
    nu = 1e-3
    spec = LossSpec("squared_distance")

    # Population (analytic) device objectives: ||w - mean||^2 + dim.
    analytic = quadratic_objectives(pts, offsets=np.full(3, 2.0))
    pop = gen_gaussian_mixture(pts, n_per_device, seed=seed)
    sampled = population_objectives(pop, spec)

    report: dict = {"means": pts.tolist(), "targets": targets, "analytic": {}, "sampled": {}}
    for theta, target_key in ((1.0, "centroid"), (2.0 / 3.0, "tail_midpoints")):
        for mode, objectives in (("analytic", analytic), ("sampled", sampled)):
            w = am_meta(objectives, theta, nu, *_schedule_and_solver(am), am.num_iters, np.zeros(2)).params
            if target_key == "centroid":
                dist = float(np.linalg.norm(w - np.asarray(targets["centroid"])))
                entry = {"final": w.tolist(), "target": targets["centroid"], "distance": dist}
            else:
                dists = [float(np.linalg.norm(w - np.asarray(m))) for m in targets["tail_midpoints"]]
                entry = {
                    "final": w.tolist(),
                    "targets": targets["tail_midpoints"],
                    "distance": min(dists),
                    "tie": targets["tie"],
                }
            report[mode][str(theta)] = entry

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "gaussian_demo.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if targets["tie"]:
        print("longest side is tied; reporting all tied midpoints")
    print(f"wrote {path}")
    return 0


def _finite_numbers(value) -> np.ndarray:
    # A JSON array of finite numbers as floats, else an empty array. JSON
    # strings stay strings here ("0" is not read as 0), so only numbers pass.
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged lists
        return np.zeros(0)
    return arr.astype(np.float64) if arr.size and arr.dtype.kind in "iuf" and np.isfinite(arr).all() else np.zeros(0)


def _demo_means(text: str) -> np.ndarray:
    try:
        means = _finite_numbers(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--means is not valid JSON: {exc}") from exc
    if means.shape != (3, 2):
        raise ConfigError(f"--means must be three [x, y] pairs of finite numbers, got {text}")
    return means


def _load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    for key in ("algorithm", "output_dir"):
        val = getattr(overrides, key, None)
        if val is not None:
            raw[key] = val
    # An empty flag is an error too, not a flag left out.
    if getattr(overrides, "thetas", None) is not None:
        try:
            raw["thetas"] = [float(v) for v in overrides.thetas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--thetas must be a comma-separated number list: {exc}") from exc
    if getattr(overrides, "seeds", None) is not None:
        try:
            raw["seeds"] = [int(v) for v in overrides.seeds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--seeds must be a comma-separated integer list: {exc}") from exc
    if getattr(overrides, "rounds", None) is not None:
        raw.setdefault("federation", {})["num_rounds"] = overrides.rounds
    if getattr(overrides, "eval_every", None) is not None:
        raw["eval_every"] = overrides.eval_every
    return parse_experiment_config(raw)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser as it was.
    parser = argparse.ArgumentParser(prog="tailfed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--algorithm", choices=ALGORITHMS)
    p_run.add_argument("--output-dir", dest="output_dir")
    p_run.add_argument("--thetas", help="comma-separated theta list overriding the config")
    p_run.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p_run.add_argument("--rounds", type=int, help="override federation.num_rounds")
    p_run.add_argument("--eval-every", dest="eval_every", type=int)

    p_val = sub.add_parser("validate", help="check a config file and echo its normalized form")
    p_val.add_argument("--config", required=True)

    p_demo = sub.add_parser("gaussian-demo", help="three-Gaussian tail-objective study")
    p_demo.add_argument("--output-dir", dest="output_dir", required=True)
    p_demo.add_argument("--n-per-device", dest="n_per_device", type=int, default=10_000)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--means", help="JSON list of three 2-d means")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = _load_config(args.config, argparse.Namespace())
            print(json.dumps(cfg.normalized(), indent=2))
            return 0
        if args.command == "run":
            cfg = _load_config(args.config, args)
            return cmd_run(cfg)
        if args.n_per_device < 1:
            raise ConfigError(f"--n-per-device must be >= 1, got {args.n_per_device}")
        means = None if args.means is None else _demo_means(args.means)
        return cmd_gaussian_demo(args.output_dir, means, args.n_per_device, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
