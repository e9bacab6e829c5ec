"""Run one benchmark workload against the tailfed sources in this checkout.

    python3 perfbench/run.py --workload fl-plain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Set-up imports tailfed afresh, makes the workload's inputs from --seed and
validates its configs; it is repeated at least SETUP_MIN_REPS times and
until SETUP_BUDGET_S have passed, and the median is reported. Operations
then run as a closed loop, one after another in this process, until
--seconds have passed; each operation's output is checked. With --trace 0
the last line of standard output is a JSON object holding every end-to-end
metric; with --trace 1 it holds the per-layer split from a traced run, in
which untraced and traced operations alternate so the tracing overhead can
be read off. The line before it records the environment, every operation,
and quality values the checks read.

Operation times are averaged, not their median taken: the shared host this
was tuned on slows down for seconds to minutes at a time, which makes a
run's median jump between a fast and a slow mode. Over ten seeds the mean
spread less from run to run on every workload.

Exit code 0 means the run finished (failed operations are counted in the
result); 2 means the benchmark could not run at all, for example because
src/tailfed is missing.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SETUP_OP, Tracer, layer_metric_units, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up takes 0.03-1.3 s depending on the workload; its median over a
# second or more of repetitions is steadier than over a fixed few.
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 1.5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def source_dir() -> Path:
    src = ROOT / "src"
    if not (src / "tailfed" / "__init__.py").is_file():
        raise BenchError(f"no tailfed sources under {src}")
    return src


def import_tailfed():
    """Import tailfed afresh from this checkout's src/; returns the package and the seconds taken.

    numpy is already loaded, so the time is tailfed's own modules.
    """
    src = source_dir()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Bytecode is cached under .perfbench/ whatever PYTHONDONTWRITEBYTECODE
    # says and whatever src/ holds, so every set-up after the first times a
    # cached import, as an installed package has.
    sys.pycache_prefix = str(ROOT / ".perfbench" / "pycache")
    sys.dont_write_bytecode = False
    for mod in [m for m in sys.modules if m == "tailfed" or m.startswith("tailfed.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    import tailfed
    import tailfed.cli

    import_s = time.perf_counter() - t0
    if Path(tailfed.__file__).resolve().parent != (src / "tailfed").resolve():
        raise BenchError(f"imported tailfed from {tailfed.__file__}, not from {src}")
    return tailfed, import_s


def git_commit() -> str:
    """HEAD's commit, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def mean_over_inputs(ops: list[dict], stat) -> float:
    """Mean over input sets of `stat` applied to each set's operations, so every set weighs the same."""
    by_input: dict[int, list[dict]] = {}
    for o in ops:
        by_input.setdefault(o["input"], []).append(o)
    return statistics.fmean(stat(group) for group in by_input.values())


def mean_wall(group: list[dict]) -> float:
    return statistics.fmean(o["wall_s"] for o in group)


def rate(group: list[dict]) -> float:
    return sum(o["rounds"] for o in group) / sum(o["wall_s"] for o in group)


def mean_quality(per_input) -> dict[str, float]:
    """Each quality value averaged over input sets."""
    rows = list(per_input)
    return {key: statistics.fmean(r[key] for r in rows) for key in rows[0]} if rows else {}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    source_dir()
    work = ROOT / ".perfbench" / name
    tracer = None
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_BUDGET_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        tf, import_s = import_tailfed()
        if trace and tracer is None:
            tracer = Tracer(tf)
        workload = WORKLOADS[name](tf, work, seed)
        with tracer.operation(SETUP_OP, "setup") if tracer else nullcontext():
            workload.setup()
        setup_times.append(time.perf_counter() - t0)
    workload.prepare()

    ops = []
    failed = 0
    begin = time.perf_counter()
    min_ops = 2 if trace else 1
    while len(ops) < min_ops or time.perf_counter() - begin < seconds:
        op = len(ops)
        k = op % workload.instances
        traced = tracer is not None and op % 2 == 1
        workload.clear(k)
        rounds = 0
        wall = 0.0
        try:
            with tracer.operation(op) if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    rounds = workload.run_op(k)
                finally:
                    wall = time.perf_counter() - t0
            problems = workload.check(k)
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"{name} operation {op} failed:", *problems, sep="\n  ", file=sys.stderr)
        ops.append({"input": k, "wall_s": wall, "rounds": rounds, "traced": traced, "ok": not problems})

    untraced = [o for o in ops if not o["traced"]]
    # Times come from operations that passed their checks; a failed one may
    # have stopped early. If none passed, the result is marked incorrect.
    timed = [o for o in untraced if o["ok"]] or untraced
    detail = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "ops": ops,
        "op_wall_s": {
            "n": len(timed),
            "median": statistics.median(o["wall_s"] for o in timed),
            "max": max(o["wall_s"] for o in timed),
        },
        "failed_frac": failed / len(ops),
        "quality": mean_quality(workload.quality.values()),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": mean_over_inputs(timed, mean_wall),
            "rounds_per_s": mean_over_inputs(timed, rate),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced_ops = [o for o in ops if o["traced"] and o["ok"]] or [o for o in ops if o["traced"]]
        overhead = mean_over_inputs(traced_ops, mean_wall) - mean_over_inputs(timed, mean_wall)
        metrics = layer_metrics(tracer, len(setup_times), overhead)
        units = layer_metric_units()
        trace_path = ROOT / ".perfbench" / f"trace-{name}.npz"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return detail, result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, one after another; prints each metric by name."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, m in results[name]["metrics"].items():
            print(f"{name:10s} {key:14s} {m['value']:12.6g} {m['unit']}")
        res = results[name]
        print(f"{name:10s} {'failed_frac':14s} {res['failed'] / res['attempted']:12.6g} ratio")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
