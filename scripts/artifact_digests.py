#!/usr/bin/env python3
"""Digest every artifact of a fixed set of runs, for byte-for-byte comparison.

Runs the README demo config in both norms and the three benchmark workload
configs of ``perfbench/workloads.py`` at seed 1, all with traces on and
single-threaded BLAS, into ``out_dir``. Prints one ``sha256  relpath`` line
per artifact (report.json, summary.csv, sync JSON, async JSONL), sorted by
path. ``out_dir`` must be new or empty; without it the runs go to a
temporary directory that is removed afterwards.

Two checkouts write the same artifacts exactly when ``diff`` finds nothing
between their outputs:

    python3 scripts/artifact_digests.py > a.txt   # in one checkout
    python3 scripts/artifact_digests.py > b.txt   # in the other
    diff a.txt b.txt

Usage: python3 scripts/artifact_digests.py [out_dir]
"""
import os

# BLAS threading must be fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pintlab.cli import parse_config, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1

README_DEMO = {
    "label": "demo",
    "problem": {"name": "heat1d", "n_interior": 8, "t_final": 1.6},
    "p": 8,
    "fine": {"rule": "trapezoidal", "steps": 100},
    "coarse": {"rule": "backward-euler", "steps": 1},
    "epsilon": 1e-9,
    "norm": "spectral",
    "schedules": [
        {"seed": 1, "delay_bound": 2, "policy": "random-fair"},
        {"seed": 1, "delay_bound": 2, "policy": "adversarial-stale"},
    ],
    "costs": {"fine_cost": 100, "coarse_cost": 1, "overhead": 1},
}


def configs() -> list[dict]:
    """Every raw config, each under a distinct label."""
    raws = [{**README_DEMO, "label": f"demo-{norm}", "norm": norm}
            for norm in ("spectral", "infinity")]
    for name in sorted(WORKLOADS):
        build, _write_traces = WORKLOADS[name]
        raws.extend(build(SEED))
    return raws


def digest_runs(out: Path) -> None:
    for raw in configs():
        run_experiment(parse_config(raw), out / raw["label"], write_traces=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


def main() -> int:
    if len(sys.argv) < 2:
        with tempfile.TemporaryDirectory() as tmp:
            digest_runs(Path(tmp))
        return 0
    out = Path(sys.argv[1])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; stale files would be digested too", file=sys.stderr)
        return 1
    digest_runs(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
