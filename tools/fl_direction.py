"""List the seeds on which the tail method does not beat plain averaging on fl-plain.

Usage::

    PYTHONPATH=<path to a tailfed src/> python3 tools/fl_direction.py LO HI

For each seed from LO to HI inclusive, builds the perfbench fl-plain
workload (``FlPlain`` in ``perfbench/workloads.py``) with that seed and runs
its untimed reference: fedavg and deltafl at theta 0.5 on the criterion-9
population, 400 rounds each, through whichever ``tailfed`` is first on the
import path. It then compares the theta 0.5 superquantile of each run's
final training losses, the quantity deltafl minimizes. fl-plain counts an
operation as failed when deltafl's value is not below fedavg's, so a change
to round bytes can trip that check on the seeds a benchmark run happens to
use. The script prints one line per seed where deltafl is not below, then a
count, and exits 1 if there was any such seed, else 0. Each seed works in a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tailfed  # noqa: E402
import tailfed.cli  # noqa: E402,F401 - FlPlain drives the CLI as tailfed.cli
from workloads import THETA, FlPlain  # noqa: E402


def tail_objectives(seed: int) -> dict[str, float]:
    """fl-plain's reference superquantiles for one seed, keyed by algorithm."""
    with tempfile.TemporaryDirectory() as work:
        workload = FlPlain(tailfed, Path(work), seed)
        workload.setup()
        workload.prepare()
        return workload.tail_objective


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    lo, hi = (int(a) for a in argv)
    print(f"tailfed from {Path(tailfed.__file__).parent}, seeds {lo}..{hi}", file=sys.stderr)
    failing = []
    for seed in range(lo, hi + 1):
        got = tail_objectives(seed)
        tail, avg = got["deltafl"], got["fedavg"]
        if not tail < avg:
            failing.append(seed)
            print(f"seed {seed}: deltafl {tail!r} is not below fedavg {avg!r} (theta {THETA} superquantile)")
    print(f"{len(failing)} of {hi - lo + 1} seeds fail: {failing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
