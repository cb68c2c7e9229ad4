"""Golden digests: the artifacts of a fixed set of runs, byte for byte.

``golden_digests.txt`` is the output of
``scripts/artifact_digests.py --manifest``: two ``#`` lines naming numpy's
version and BLAS, then one ``sha256  relpath`` line per artifact. A change
that moves an artifact on purpose regenerates the manifest in the same
commit and names the moved paths; any other difference is a regression.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_digests.txt")
FAST_LABELS = ("demo-", "sweep-")  # the README demo in both norms, sweep-small


def test_fast_subset_matches_golden_manifest():
    # in a child, so that BLAS is single-threaded as it was when the
    # manifest was written
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py"), "--manifest", "--fast"],
        capture_output=True, text=True, check=True)
    got = proc.stdout.splitlines()
    manifest = MANIFEST.read_text(encoding="utf-8").splitlines()
    stamp = [line for line in manifest if line.startswith("#")]
    if got[:len(stamp)] != stamp:
        pytest.skip(f"manifest holds for {stamp}, this platform is {got[:len(stamp)]}")
    want = [line for line in manifest[len(stamp):]
            if line.split("  ", 1)[1].startswith(FAST_LABELS)]
    assert len(want) > len(FAST_LABELS)
    assert got[len(stamp):] == want
