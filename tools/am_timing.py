"""Time alternating minimization on the am-meta populations without the CLI.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/am_timing.py [--seed N] [--two-pass]

Writes perfbench's am-meta device files (``AM_POPULATIONS`` files of
``AM_DEVICES`` devices shaped like ``POPULATION`` from
``perfbench/workloads.py``, population seeds derived from --seed as the
workload derives them) into a temporary directory and loads them, as
``tailfed run`` does. It then times ``am_meta`` on each population with the
workload's settings: theta ``THETA``, smoothing width ``AM_NU``, the
``AM_SETTINGS`` budget schedule and iteration count, and the CLI's default
solver settings. It prints:

- ``run_ms``: the median, over 7 passes, of a pass's mean time per
  ``am_meta`` run
- ``values/it`` and ``grads/it``: the objective's value and gradient
  evaluations per recorded iterate, over one untimed pass

File writing and final metrics are left out, so this is the solver path
alone. ``--two-pass`` runs on an objective that takes each gradient from a
second ``point(w)`` evaluation of its own, instead of the one whose values
it was asked at: every gradient then recomputes the margins (and the
values) instead of reading those of the value pass, and the difference to
a plain run bounds the fused pass's share. It needs a tree whose
``PopulationObjective`` takes a point evaluation.

The script uses whichever ``tailfed`` is first on the import path, so
running it with two source trees compares them on the same inputs, the way
``tools/artifacts.py`` does. Times depend on the host; compare two trees by
alternating runs on one machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tailfed
from tailfed import models
from tailfed.cli import AMSettings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import AM_DEVICES, AM_NU, AM_POPULATIONS, AM_SETTINGS, LOSS, POPULATION, THETA, sub_seed  # noqa: E402

SAMPLES = 7


def two_pass(pop, spec):
    """The population's objective with each gradient taken from a second point evaluation."""
    fused = tailfed.population_objectives(pop, spec).point

    def point(w):
        w = w.copy()
        return fused(w)[0], lambda coeff: fused(w)[1](coeff)

    return tailfed.PopulationObjective(point=point, weights=pop.weights)


def counting(objectives, counts: Counter):
    """The same objective, counting its value and gradient evaluations in counts."""
    if not hasattr(objectives, "point"):
        # A tree whose objective has separate value and gradient functions.
        def values(w):
            counts["values"] += 1
            return objectives.values(w)

        def weighted_grad(w, coeff):
            counts["grads"] += 1
            return objectives.weighted_grad(w, coeff)

        # Such a tree's objective is a dataclass.
        return dataclasses.replace(objectives, values=values, weighted_grad=weighted_grad)

    def point(w):
        counts["values"] += 1
        values, weighted_grad = objectives.point(w)

        def counted(coeff):
            counts["grads"] += 1
            return weighted_grad(coeff)

        return values, counted

    return tailfed.PopulationObjective(point=point, weights=objectives.weights)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--two-pass", action="store_true", help="evaluate values and gradients in separate passes")
    args = parser.parse_args(argv)
    print(f"tailfed from {Path(tailfed.__file__).parent}", file=sys.stderr)
    spec = tailfed.LossSpec(**LOSS)
    shape = {**POPULATION, "num_devices": AM_DEVICES}
    with tempfile.TemporaryDirectory() as tmp:
        pops = []
        for k in range(AM_POPULATIONS):
            path = Path(tmp) / f"devices-{k}.jsonl"
            tailfed.save_devices_jsonl(tailfed.gen_hetero_logistic(**shape, seed=sub_seed(args.seed, k)), path)
            pops.append(tailfed.load_devices_jsonl(path))
    build = two_pass if args.two_pass else tailfed.population_objectives
    objectives = [build(pop, spec) for pop in pops]
    am = AMSettings(**AM_SETTINGS)
    schedule = tailfed.PowerLawSchedule(am.eps0, am.exponent)

    def run(obj, pop) -> tailfed.AMResult:
        solver = tailfed.CertifiedGradientDescent(strong_convexity=am.strong_convexity, initial_step=am.initial_step)
        w0 = models.init_params(spec, pop.feature_dim)
        return tailfed.am_meta(obj, THETA, AM_NU, schedule, solver, am.num_iters, w0)

    counts: Counter = Counter()
    iterates = sum(len(run(counting(obj, counts), pop).iterates) for obj, pop in zip(objectives, pops))
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for obj, pop in zip(objectives, pops):
            run(obj, pop)
        times.append((time.perf_counter() - t0) / AM_POPULATIONS)
    print(f"{'run_ms':>8s} {'values/it':>10s} {'grads/it':>9s}")
    per_iterate = (counts["values"] / iterates, counts["grads"] / iterates)
    print(f"{1e3 * statistics.median(times):8.2f} {per_iterate[0]:10.2f} {per_iterate[1]:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
