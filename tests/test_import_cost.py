"""Importing tailfed brings in a recorded set of modules and no others.

Every ``tailfed`` process, and every set-up repetition of the benchmark,
pays for ``import tailfed, tailfed.cli``. A module that import newly pulls
in (or a dataclass, whose methods are generated and compiled when its class
is created) shows here as a failed test instead of a slower set-up median.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules that `import tailfed, tailfed.cli` adds once numpy is loaded.
RECORDED = {
    "tailfed",
    "tailfed.cli",
    "tailfed.data",
    "tailfed.federation",
    "tailfed.metrics",
    "tailfed.models",
    "tailfed.secure_agg",
    "tailfed.superquantile",
    "__future__",
    "argparse",  # cli
    "gettext",  # argparse
    "csv",  # metrics
    "_csv",
    "json",  # cli, data
    "json.decoder",
    "json.encoder",
    "json.scanner",
    "_json",
}

# Imports nothing before numpy but sys, which is always loaded.
PROBE = """
import sys
import numpy
before = set(sys.modules)
import tailfed, tailfed.cli
print(*sorted(set(sys.modules) - before))
"""


def test_importing_tailfed_adds_only_the_recorded_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert sorted(added - RECORDED) == [], "import tailfed now also loads these modules"
    assert sorted(RECORDED - added) == [], "import tailfed no longer loads these modules: drop them from RECORDED"
