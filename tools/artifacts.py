"""Write a fixed set of tailfed CLI artifacts into one directory.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/artifacts.py OUT

Runs ``tailfed run`` on a fixed list of small configs, ``tailfed
gaussian-demo`` and ``tailfed validate``, all in process through whichever
``tailfed`` is first on the import path, and writes everything under OUT
(which must not exist yet). Every path inside OUT is relative to it, so the
outputs of two source trees can be compared with ``diff -r``: a change that
claims the same behaviour must leave that diff empty.

The runs cover fedavg; deltafl at theta 1 and 0.5 with a frozen threshold
period; masked aggregation with the secure_mm threshold protocol; point-mode
local steps; am_meta; a multinomial device file with a held-out split and a
negative split_seed; and gaussian_mixture data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import tailfed
from tailfed import gen_hetero_logistic, save_devices_jsonl
from tailfed.cli import main

BASE = {
    "algorithm": "deltafl",
    "thetas": [1.0, 0.5],
    "seeds": [0, 3],
    "data": {
        "generator": "hetero_logistic",
        "num_devices": 12,
        "feature_dim": 3,
        "num_classes": 2,
        "n_range": [5, 15],
        "heterogeneity": 1.0,
        "seed": 7,
    },
    "loss": {"kind": "binary_logistic", "l2_reg": 0.001},
    "federation": {"num_rounds": 20, "devices_per_round": 8, "lr0": 0.5, "lr_decay": 0.5, "lr_decay_every": 8},
    "split_fraction": 0.5,
    "eval_every": 5,
}

MULTINOMIAL_FILE = "inputs/multinomial.jsonl"

# name -> top-level fields that replace BASE's; "federation" entries are merged.
RUNS = {
    "fedavg": {"algorithm": "fedavg", "thetas": [1.0]},
    "deltafl": {"federation": {"eta_period": 3}},
    "masked-secure-mm": {"thetas": [0.5], "federation": {"aggregation": "masked", "eta_protocol": "secure_mm"}},
    "point-mode": {"federation": {"local_epoch": False, "n_local": 4}},
    "am-meta": {"algorithm": "am_meta", "federation": {"nu": 0.1}, "am": {"num_iters": 10}},
    "multinomial-device-file": {
        "data": {"device_file": MULTINOMIAL_FILE},
        "loss": {"kind": "multinomial_logistic", "num_classes": 3, "l2_reg": 0.001},
        "split_seed": -5,
    },
    "gaussian-mixture": {
        "data": {"generator": "gaussian_mixture", "means": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]], "n_per_device": 20},
        "loss": {"kind": "squared_distance"},
        "split_fraction": None,
    },
}


def _config(name: str) -> dict:
    cfg = {**BASE, **RUNS[name], "output_dir": f"runs/{name}"}
    cfg["federation"] = {**BASE["federation"], **RUNS[name].get("federation", {})}
    return {k: v for k, v in cfg.items() if v is not None}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"tailfed {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_artifacts(out: Path) -> None:
    out.mkdir(parents=True)
    os.chdir(out)
    Path("inputs").mkdir()
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, 3, 1.0, seed=11), MULTINOMIAL_FILE)
    Path("configs").mkdir()
    Path("validate").mkdir()
    for name in RUNS:
        path = f"configs/{name}.json"
        Path(path).write_text(json.dumps(_config(name), indent=2) + "\n", encoding="utf-8")
        Path(f"validate/{name}.json").write_text(_cli("validate", "--config", path), encoding="utf-8")
        _cli("run", "--config", path)
    _cli("gaussian-demo", "--output-dir", "gaussian-demo", "--n-per-device", "2000", "--seed", "3")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    target = Path(sys.argv[1]).resolve()
    print(f"tailfed from {Path(tailfed.__file__).parent} -> {target}", file=sys.stderr)
    write_artifacts(target)
