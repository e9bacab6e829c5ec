"""Time the fl-plain pair of training runs without the CLI.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/round_timing.py [--seed N]

Builds perfbench's fl-plain population (``POPULATION``, ``FEDERATION`` and
``LOSS`` from ``perfbench/workloads.py``, population seed derived from
--seed as the workload derives it) and its training half, then times the
pair of ``run_federated`` calls an fl-plain operation makes: fedavg and
deltafl at the workload's theta, ``FL_PLAIN_ROUNDS`` rounds each. It prints
the median wall time of the pair over 7 samples and the median time per
round. File writing, snapshots and metric tables are left out, so this is
the round path alone.

The script uses whichever ``tailfed`` is first on the import path, so
running it with two source trees compares them on the same inputs, the way
``tools/artifacts.py`` does. Times depend on the host; compare two trees by
alternating runs on one machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import tailfed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import FEDERATION, FL_PLAIN_ROUNDS, LOSS, POPULATION, THETA, sub_seed  # noqa: E402

SAMPLES = 7


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    print(f"tailfed from {Path(tailfed.__file__).parent}", file=sys.stderr)
    pop = tailfed.gen_hetero_logistic(**POPULATION, seed=sub_seed(args.seed, 0))
    train, _ = tailfed.split_devices(pop, 0.5, args.seed)
    cfg = tailfed.FederationConfig(
        theta=THETA, num_rounds=FL_PLAIN_ROUNDS, seed=args.seed, loss=tailfed.LossSpec(**LOSS), **FEDERATION
    )
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for algorithm in ("fedavg", "deltafl"):
            tailfed.run_federated(train, cfg, algorithm=algorithm)
        times.append(time.perf_counter() - t0)
    pair_s = statistics.median(times)
    print(f"{'pair_s':>8s} {'round_us':>9s}")
    print(f"{pair_s:8.3f} {1e6 * pair_s / (2 * FL_PLAIN_ROUNDS):9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
