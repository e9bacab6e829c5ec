"""Time the server threshold solvers on large lognormal loss profiles.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/threshold_timing.py

For n = 10^4 and 10^5 values (lognormal, as in perfbench's threshold
workload, with random weights) and smoothing widths nu = 1e-3 (the
workload's), 0.1 (am-meta's) and 2 (about the profile's spread), at theta
0.5, prints the median wall time of 7 repeats of two things:

- ``solve``: one ``smoothed_eta_star`` on a freshly built ``WeightedValues``
- ``op``: one threshold operation, ``weighted_quantile``, ``superquantile``
  and ``smoothed_eta_star`` on one freshly built ``WeightedValues``

Every repeat builds its profile inside the timed region, so whatever the
profile sorts or caches is paid for in each sample. The script uses
whichever ``tailfed`` is first on the import path, so running it with two
source trees compares them on the same inputs, the way
``tools/artifacts.py`` does. Times depend on the host; compare two trees
by alternating runs on one machine.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tailfed

SIZES = (10**4, 10**5)
WIDTHS = (1e-3, 0.1, 2.0)
THETA = 0.5
REPEATS = 7


def profile(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(n)
    values = rng.lognormal(mean=-0.5, sigma=0.75, size=n)
    weights = rng.uniform(0.5, 1.5, size=n)
    return values, weights / weights.sum()


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def solve(values, weights, nu: float) -> None:
    tailfed.smoothed_eta_star(tailfed.WeightedValues(values, weights), THETA, nu)


def operation(values, weights, nu: float) -> None:
    wv = tailfed.WeightedValues(values, weights)
    tailfed.weighted_quantile(wv, THETA)
    tailfed.superquantile(wv, THETA)
    tailfed.smoothed_eta_star(wv, THETA, nu)


def main() -> int:
    print(f"tailfed from {Path(tailfed.__file__).parent}", file=sys.stderr)
    print(f"{'n':>7s} {'nu':>6s} {'solve_ms':>9s} {'op_ms':>9s}")
    for n in SIZES:
        values, weights = profile(n)
        for nu in WIDTHS:
            solve_ms = median_ms(lambda: solve(values, weights, nu))
            op_ms = median_ms(lambda: operation(values, weights, nu))
            print(f"{n:7d} {nu:6g} {solve_ms:9.2f} {op_ms:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
