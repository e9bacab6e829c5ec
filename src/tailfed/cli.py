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
import inspect
import itertools
import json
import os
import sys
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


class AMSettings:
    def __init__(
        self,
        eps0: float = 0.01,
        exponent: float = 1.5,
        strong_convexity: float = 2.0,
        initial_step: float = 0.25,
        num_iters: int = 80,
    ) -> None:
        self.eps0 = eps0
        self.exponent = exponent
        self.strong_convexity = strong_convexity
        self.initial_step = initial_step
        self.num_iters = num_iters


class ExperimentConfig:
    # Parameters in the order of the config file and of validate's echo. A
    # federation or am left out is a fresh empty dict or default AMSettings.
    def __init__(
        self,
        *,
        schema_version: int = SCHEMA_VERSION,
        algorithm: str,
        output_dir: str,
        thetas: list[float],
        seeds: list[int],
        eval_every: int = 0,
        split_fraction: float | None = None,
        split_seed: int = 0,
        data: dict,
        loss: LossSpec,
        federation: dict = None,
        am: AMSettings = None,
    ) -> None:
        self.schema_version = schema_version
        self.algorithm = algorithm
        self.output_dir = output_dir
        self.thetas = thetas
        self.seeds = seeds
        self.eval_every = eval_every
        self.split_fraction = split_fraction
        self.split_seed = split_seed
        self.data = data
        self.loss = loss
        self.federation = {} if federation is None else federation
        self.am = AMSettings() if am is None else am

    def normalized(self) -> dict:
        # Every field in order, with loss and am as objects of their fields.
        fields = {name: getattr(self, name) for name in _ROOT[0]}
        return fields | {"loss": _fields(self.loss, _LOSS), "am": _fields(self.am, _AM)}


# Config sections as (field -> JSON type, required fields). The root, loss, federation and
# am take theirs from the constructor they fill (a parameter without a default is required).
def _section(cls, *drop: str) -> tuple[dict, tuple]:
    ps = [p for p in inspect.signature(cls).parameters.values() if p.name not in drop]
    return {p.name: p.annotation for p in ps}, tuple(p.name for p in ps if p.default is p.empty)


def _fields(obj, section: tuple[dict, tuple]) -> dict:
    return {name: getattr(obj, name) for name in section[0]}


_ROOT, _LOSS, _AM = _section(ExperimentConfig), _section(LossSpec), _section(AMSettings)
# A FederationConfig's theta, seed and loss come from the cell and config.loss.
_FEDERATION = _section(FederationConfig, "theta", "seed", "loss")
# The three forms of config.data, with their required fields. A generator's
# fields, seed aside, are its arguments.
_DATA_FORMS = {
    "device_file": ({"device_file": "str"}, ("device_file",)),
    "hetero_logistic": (
        {"generator": "str", "num_devices": "int", "n_range": "list[int]", "feature_dim": "int", "num_classes": "int"}
        | {"heterogeneity": "float", "seed": "int"},
        ("num_devices", "n_range", "feature_dim", "num_classes"),
    ),
    "gaussian_mixture": (
        {"generator": "str", "means": "list", "n_per_device": "int", "seed": "int"},
        ("means", "n_per_device"),
    ),
}
# What each annotation admits: (the types of the parsed JSON value, those of a
# list's entries). A float takes an int; no number takes a bool (compared with
# type(), since True is an int). A section annotated with its class is an object.
_NUMBER = (int, float)
_JSON_TYPES = {
    "int": ((int,), None),
    "float": (_NUMBER, None),
    "float | None": ((*_NUMBER, type(None)), None),
    "bool": ((bool,), None),
    "str": ((str,), None),
    "list": ((list,), None),
    "list[int]": ((list,), (int,)),
    "list[float]": ((list,), _NUMBER),
} | dict.fromkeys(("dict", "LossSpec", "AMSettings"), ((dict,), None))


def _checked(raw: dict, section: tuple[dict, tuple], where: str) -> dict:
    # raw, once it has every required field, no unknown one, and each value of its field's JSON type.
    types, required = section
    unknown = raw.keys() - types.keys()
    if unknown:
        raise ConfigError(f"{where} has unknown fields: {sorted(unknown)}")
    for name in required:
        if name not in raw:
            raise ConfigError(f"{where}.{name} is required")
    for name, value in raw.items():
        allowed, entries = _JSON_TYPES[types[name]]
        if type(value) not in allowed or entries and not all(type(v) in entries for v in value):
            raise ConfigError(f"{where}.{name} must be of type {types[name]}, got {json.dumps(value)}")
        if float in (entries or allowed):
            try:  # an int converts to a float unless it is too large, as 10**400 is
                np.array(value, dtype=np.float64)
            except OverflowError:
                raise ConfigError(f"{where}.{name} holds an integer too large for a float") from None
    return raw


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version {version!r} is not supported; this build reads version {SCHEMA_VERSION}"
        )
    _checked(raw, _ROOT, "config")
    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"config.algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if not raw["thetas"] or not all(0.0 < theta <= 1.0 for theta in raw["thetas"]):
        raise ConfigError(f"config.thetas must be a non-empty list of numbers in (0, 1], got {raw['thetas']!r}")
    thetas = _distinct([float(t) for t in raw["thetas"]], "config.thetas")
    # Every fedavg cell runs at theta 1, so another theta would train the same cell again.
    if algorithm == "fedavg" and thetas != [1.0]:
        raise ConfigError(f"config.thetas must be [1.0] for fedavg, got {thetas!r}")
    if not raw["seeds"]:
        raise ConfigError("config.seeds must be a non-empty list of integers")
    seeds = _distinct(list(raw["seeds"]), "config.seeds")

    data = raw["data"]
    form = "device_file" if "device_file" in data else data.get("generator")
    if type(form) is not str or form not in _DATA_FORMS:
        raise ConfigError(f"config.data.generator must be hetero_logistic or gaussian_mixture, got {form!r}")
    _checked(data, _DATA_FORMS[form], "config.data")
    for key, least in (("num_devices", 1), ("feature_dim", 1), ("num_classes", 2), ("n_per_device", 1)):
        if data.get(key, least) < least:
            raise ConfigError(f"config.data.{key} must be an integer >= {least}")
    if form == "hetero_logistic":
        nr = data["n_range"]
        if len(nr) != 2 or not (1 <= nr[0] <= nr[1]):
            raise ConfigError("config.data.n_range must be [lo, hi] with 1 <= lo <= hi")
        if not (0 <= data.get("heterogeneity", 1.0) < np.inf):
            raise ConfigError("config.data.heterogeneity must be a finite nonnegative number")
    if form == "gaussian_mixture" and _finite_numbers(data["means"]).ndim != 2:
        raise ConfigError("config.data.means must be a non-empty list of equal-length finite number vectors")

    loss_raw = _checked(raw["loss"], _LOSS, "config.loss")
    try:
        loss = LossSpec(**{**loss_raw, "l2_reg": float(loss_raw.get("l2_reg", 0.0))})
    except ValueError as exc:
        raise ConfigError(f"config.loss: {exc}") from exc
    if form != "device_file":
        # hetero_logistic writes -1/+1 for 2 classes and 0..C-1 for more,
        # gaussian_mixture writes 0. Device files are checked when a run loads them.
        classes = data["num_classes"] if form == "hetero_logistic" else 1
        _check_labels(loss, np.array([-1, 1] if classes == 2 else range(classes)), [0], lambda k: f"{form} data")

    federation = _checked(raw.get("federation", {}), _FEDERATION, "config.federation")
    if raw.get("eval_every", 0) < 0:
        raise ConfigError("config.eval_every must be a nonnegative integer")
    # No integer lies strictly between 0 and 1, so a split_fraction that passes is a float.
    split_fraction = raw.get("split_fraction")
    if split_fraction is not None and not (0.0 < split_fraction < 1.0):
        raise ConfigError("config.split_fraction must lie strictly between 0 and 1")
    if split_fraction is not None and form != "device_file":
        # split_devices reads only the device count: splitting as many one-row devices fails as the run would.
        n = data["num_devices"] if form == "hetero_logistic" else len(data["means"])
        rows = Population(np.zeros((n, 1)), np.zeros(n), np.ones(n, np.int64), ("",) * n, np.ones(n))
        _split(rows, split_fraction, raw.get("split_seed", 0))

    am = AMSettings(**_checked(raw.get("am", {}), _AM, "config.am"))
    if am.num_iters < 0:
        raise ConfigError(f"config.am.num_iters must be an integer >= 0, got {am.num_iters!r}")
    # The solver and the schedule check their own values.
    try:
        _schedule_and_solver(am)
    except ValueError as exc:
        raise ConfigError(f"config.am.{exc}") from exc

    # Every root field is known and typed now; the parsed values replace the raw ones.
    cfg = ExperimentConfig(**raw | dict(thetas=thetas, seeds=seeds, loss=loss, federation=dict(federation), am=am))
    # Surface federation field errors now rather than at run time.
    try:
        fed = _federation_config(cfg, theta=cfg.thetas[0], seed=cfg.seeds[0])
    except ValueError as exc:
        raise ConfigError(f"config.federation: {exc}") from exc
    # A run logs and tabulates its last round, so it needs at least one.
    if fed.num_rounds < 1:
        raise ConfigError(f"config.federation.num_rounds must be >= 1, got {fed.num_rounds!r}")
    return cfg


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


def _build_population(cfg: ExperimentConfig, data_seed: int | None) -> tuple[Population, Population | None]:
    """A cell's train and test populations (test None without a split); a device file ignores data_seed."""
    data = cfg.data
    if "device_file" in data:
        pop = load_devices_jsonl(data["device_file"])
        source = data["device_file"]
        _check_labels(cfg.loss, pop.labels, pop.offsets, lambda k: f"device {pop.device_ids[k]!r} of {source}")
    else:
        args = {k: v for k, v in data.items() if k not in ("generator", "seed")}
        if data["generator"] == "hetero_logistic":
            pop = gen_hetero_logistic(**{"heterogeneity": 1.0, **args}, seed=data_seed)
        else:
            pop = gen_gaussian_mixture(**args, seed=data_seed)
    if cfg.split_fraction is None:
        return pop, None
    return _split(pop, cfg.split_fraction, cfg.split_seed)


def _split(pop: Population, fraction: float, seed: int) -> tuple[Population, Population]:
    try:
        return split_devices(pop, fraction, seed)
    except ValueError as exc:  # a side left empty
        raise ConfigError(f"config.split_fraction: {exc}") from exc


def _final_metrics(
    cfg: ExperimentConfig, params: np.ndarray, train: Population, test: Population | None, losses=None
) -> dict[str, float]:
    # losses: the training devices' losses at params, if the caller has them.
    out: dict[str, float] = {}
    if losses is None:
        losses = models.packed_losses(cfg.loss, params, train)
    table = metrics_mod.table_from_population(train, "train_loss", losses)
    for key, val in metrics_mod.summarize(table).items():
        out[f"train_loss_{key}"] = val
    if test is not None and cfg.loss.kind != "squared_distance":
        etable = metrics_mod.table_from_population(test, "test_error", models.packed_errors(cfg.loss, params, test))
        for key, val in metrics_mod.summarize(etable).items():
            out[f"test_error_{key}"] = val
    return out


def _run_cell(
    cfg: ExperimentConfig, theta: float, seed: int, train: Population, test: Population | None, cell_dir: Path
) -> dict[str, float]:
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
            # The last iterate's record evaluated the training losses at its params.
            final = _final_metrics(cfg, result.params, train, test, result.iterates[-1].values)
            final["grad_norm"] = result.iterates[-1].grad_norm
            return final

        rows: dict[int, dict[str, float]] = {}  # each metrics row written, by round

        def write_metrics(t: int, params: np.ndarray) -> None:
            rows[t] = _final_metrics(cfg, params, train, test)
            table.write({"round": t, **rows[t]})

        run = run_federated(
            train,
            fed,
            algorithm=cfg.algorithm,
            eval_every=cfg.eval_every,
            on_round=lambda log: write_line(log.to_dict()),
            on_snapshot=lambda snap: write_metrics(snap.round_index, snap.params),
        )
        final_round = len(run.rounds) - 1
        if final_round not in rows:  # unless a snapshot of the final round wrote them
            write_metrics(final_round, run.params)
        return rows[final_round]


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
    # Keyed by the data seed, the generator's or the cell's (a device file is one
    # population); holding only the last cell's, memory does not grow with the seeds.
    populations = functools.lru_cache(maxsize=1)(functools.partial(_build_population, cfg))
    for theta in cfg.thetas:
        per_seed: list[dict[str, float]] = []
        for seed in cfg.seeds:
            train, test = populations(None if "device_file" in cfg.data else cfg.data.get("seed", seed))
            cell_dir = out_root / "runs" / str(theta) / str(seed)
            per_seed.append(_run_cell(cfg, theta, seed, train, test, cell_dir))
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
    except (OSError, ValueError) as exc:  # a directory; not UTF-8, not JSON, or an int past the digit limit
        raise ConfigError(f"config file {path} is not readable as valid JSON: {exc}") from exc
    if not isinstance(raw, dict):  # flags override an object's fields only
        return parse_experiment_config(raw)
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
    if getattr(overrides, "rounds", None) is not None and isinstance(raw.setdefault("federation", {}), dict):
        raw["federation"]["num_rounds"] = overrides.rounds
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
