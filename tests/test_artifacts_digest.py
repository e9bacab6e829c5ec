"""The CLI artifacts of tools/artifacts.py, byte for byte, against tests/artifacts.sha256.

A change that claims the same behaviour must leave every file's digest as
committed. A change that alters bytes on purpose regenerates the manifest
with the command in its header and says so. The manifest holds for the
Python and numpy versions its first line names; under others this test
fails and names both, since the floats may differ there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "artifacts.sha256"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(text: str) -> tuple[str, dict[str, str]]:
    # (the versions line, {path: sha256}) of a manifest.
    lines = text.splitlines()
    entries = (line.split("  ", 1) for line in lines if not line.startswith("#"))
    return lines[0], {path: sha for sha, path in entries}


def test_artifacts_match_the_committed_digests(tmp_path):
    env = os.environ | dict.fromkeys(THREAD_VARS, "1") | {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifacts.py"), "--digest", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    versions, got = _parse(proc.stdout)
    want_versions, want = _parse(MANIFEST.read_text(encoding="utf-8"))
    assert versions == want_versions, f"the manifest was made with {want_versions[2:]}; this is {versions[2:]}"
    differ = sorted(path for path in want.keys() & got.keys() if want[path] != got[path])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; new: {extra} (tools/artifacts.py --compare explains a difference)"
    )
