"""Write a fixed set of tailfed CLI artifacts into one directory.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/artifacts.py OUT
    python3 tools/artifacts.py --compare OLD NEW

Runs ``tailfed run`` on a fixed list of small configs, ``tailfed
gaussian-demo`` and ``tailfed validate``, all in process through whichever
``tailfed`` is first on the import path, and writes everything under OUT
(which must not exist yet). Every path inside OUT is relative to it, so the
outputs of two source trees can be compared with ``diff -r``: a change that
claims the same behaviour must leave that diff empty.

``--compare OLD NEW`` reads two such directories and lists the files that
differ. For each differing JSON, JSON-lines or CSV file it checks every
non-float value (device ids, round numbers, labels) for equality, record by
record, and prints the largest relative difference of each float field with
the record (round, iter or row) where it occurs. It exits 1 if the two file
sets differ or any non-float value differs, else 0.

The runs cover fedavg; deltafl at theta 1 and 0.5 with a frozen threshold
period; masked aggregation at theta 1 (no threshold) and at theta 0.5, once
with the server_direct threshold and once with the secure_mm threshold
protocol; point-mode local steps; am_meta at theta 1 and 0.5 with smoothing
width nu 0.1 and nu 1e-3; a binary_logistic device file with a held-out
half, the path the benchmark's fl workloads take (load, split, and a
round's selection of sampled devices); a multinomial device file with a
held-out split and a negative split_seed; and gaussian_mixture data.

Loading a device file leaves its binary copy beside it, so OUT also holds
``inputs/binary.jsonl.cache.npz`` and ``inputs/multinomial.jsonl.cache.npz``.
Each device-file run loads its file once for its 4 cells. The copies' bytes repeat from run to run; against OUT from a version
of tailfed that kept no copy, ``diff -r`` lists those two files only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

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

BINARY_FILE = "inputs/binary.jsonl"
MULTINOMIAL_FILE = "inputs/multinomial.jsonl"

# name -> top-level fields that replace BASE's; "federation" entries are merged.
RUNS = {
    "fedavg": {"algorithm": "fedavg", "thetas": [1.0]},
    "deltafl": {"federation": {"eta_period": 3}},
    "masked-direct": {"thetas": [1.0, 0.5], "federation": {"aggregation": "masked"}},
    "masked-secure-mm": {"thetas": [1.0, 0.5], "federation": {"aggregation": "masked", "eta_protocol": "secure_mm"}},
    "point-mode": {"federation": {"local_epoch": False, "n_local": 4}},
    "am-meta": {"algorithm": "am_meta", "federation": {"nu": 0.1}, "am": {"num_iters": 10}},
    "am-meta-small-nu": {"algorithm": "am_meta", "federation": {"nu": 1e-3}, "am": {"num_iters": 10}},
    "binary-device-file": {"data": {"device_file": BINARY_FILE}, "split_seed": 4},
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
    from tailfed.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"tailfed {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_artifacts(out: Path) -> None:
    from tailfed import gen_hetero_logistic, save_devices_jsonl

    out.mkdir(parents=True)
    os.chdir(out)
    Path("inputs").mkdir()
    save_devices_jsonl(gen_hetero_logistic(16, (5, 15), 3, 2, 1.0, seed=5), BINARY_FILE)
    save_devices_jsonl(gen_hetero_logistic(10, (4, 9), 3, 3, 1.0, seed=11), MULTINOMIAL_FILE)
    Path("configs").mkdir()
    Path("validate").mkdir()
    for name in RUNS:
        path = f"configs/{name}.json"
        Path(path).write_text(json.dumps(_config(name), indent=2) + "\n", encoding="utf-8")
        Path(f"validate/{name}.json").write_text(_cli("validate", "--config", path), encoding="utf-8")
        _cli("run", "--config", path)
    _cli("gaussian-demo", "--output-dir", "gaussian-demo", "--n-per-device", "2000", "--seed", "3")


def _leaves(value, path: str = ""):
    # (dotted path, leaf) pairs of a parsed JSON value.
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _csv_cell(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _records(path: Path) -> list[tuple[str, dict]]:
    """The file as (location, {field: value}) records; floats are the only inexact values."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    elif path.suffix == ".csv":
        rows = [{k: _csv_cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]
    elif path.suffix == ".json":
        return [("file", dict(_leaves(json.loads(text))))]
    else:
        return [("file", {"text": text})]
    out = []
    for i, row in enumerate(rows):
        key = next((k for k in ("round", "iter") if k in row), None)
        out.append((f"{key} {row[key]}" if key else f"row {i}", dict(_leaves(row))))
    return out


def compare(old: Path, new: Path) -> int:
    """Print how the artifacts under NEW differ from OLD; 1 if anything but floats differs."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in (old, new)]
    status = 0
    for name, side in ((files[0] - files[1], "OLD"), (files[1] - files[0], "NEW")):
        for rel in sorted(name):
            print(f"only in {side}: {rel}")
            status = 1
    for rel in sorted(files[0] & files[1]):
        if (old / rel).read_bytes() == (new / rel).read_bytes():
            continue
        print(f"differs: {rel}")
        a, b = _records(old / rel), _records(new / rel)
        if len(a) != len(b):
            print(f"  {len(a)} records -> {len(b)}")
            status = 1
        worst: dict[str, tuple[float, str, float, float]] = {}
        for (where, ra), (_, rb) in zip(a, b):
            for field in sorted(ra.keys() | rb.keys()):
                x, y = ra.get(field), rb.get(field)
                if type(x) is float and type(y) is float:
                    rel_diff = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
                    if rel_diff > worst.get(field, (0.0,))[0]:
                        worst[field] = (rel_diff, where, x, y)
                elif x != y or type(x) is not type(y):
                    print(f"  {where}: {field} {x!r} -> {y!r}")
                    status = 1
        for field, (rel_diff, where, x, y) in worst.items():
            print(f"  {field}: largest relative difference {rel_diff:.3g} at {where} ({x!r} -> {y!r})")
    return status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        raise SystemExit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    import tailfed

    target = Path(sys.argv[1]).resolve()
    print(f"tailfed from {Path(tailfed.__file__).parent} -> {target}", file=sys.stderr)
    write_artifacts(target)
