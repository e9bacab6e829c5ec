"""Time loading an am-meta device file, with and without its binary copy.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/load_timing.py [--seed N]

Writes perfbench's am-meta device file (``AM_DEVICES`` devices shaped like
``POPULATION`` from ``perfbench/workloads.py``, population seed derived from
--seed as the workload derives that of its first input set) into a
temporary directory, then prints the median wall time of 15 samples of two
``load_devices_jsonl`` calls:

- ``cold``: the binary copy beside the file (``<file>.cache.npz``) is
  deleted before each sample, so the load parses the JSON and writes the copy
- ``warm``: the copy the previous load left is there, so the load reads it

A tree that keeps no copy parses on every load, so its two numbers agree.
The script uses whichever ``tailfed`` is first on the import path, so
running it with two source trees compares them on the same inputs, the way
``tools/artifacts.py`` does. Times depend on the host; compare two trees by
alternating runs on one machine.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tailfed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import AM_DEVICES, POPULATION, sub_seed  # noqa: E402

SAMPLES = 15


def median_ms(path: Path, cold: bool) -> float:
    copy = Path(f"{path}.cache.npz")
    times = []
    for _ in range(SAMPLES):
        if cold and copy.exists():
            os.remove(copy)
        t0 = time.perf_counter()
        tailfed.load_devices_jsonl(path)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    print(f"tailfed from {Path(tailfed.__file__).parent}", file=sys.stderr)
    pop = tailfed.gen_hetero_logistic(**{**POPULATION, "num_devices": AM_DEVICES}, seed=sub_seed(args.seed, 0))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "devices.jsonl"
        tailfed.save_devices_jsonl(pop, path)
        cold_ms = median_ms(path, cold=True)
        warm_ms = median_ms(path, cold=False)
        print(f"{path.stat().st_size / 1e6:.2f} MB, {len(pop)} devices, {len(pop.labels)} rows")
    print(f"cold_ms {cold_ms:8.2f}")
    print(f"warm_ms {warm_ms:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
