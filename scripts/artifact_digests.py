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

``--manifest`` first prints two ``#`` lines naming the numpy version and
the BLAS library, the platform the digests hold for. The golden manifest
``tests/golden_digests.txt`` is that output:

    python3 scripts/artifact_digests.py --manifest > tests/golden_digests.txt

``--fast`` runs only the README demo in both norms and the sweep-small
workload, the subset that ``tests/test_golden.py`` reruns.

Usage: python3 scripts/artifact_digests.py [--manifest] [--fast] [out_dir]
"""
import os

# BLAS threading must be fixed before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def configs(workloads=sorted(WORKLOADS)) -> list[dict]:
    """The README demo in both norms, then the configs of ``workloads``,
    each under a distinct label."""
    raws = [{**README_DEMO, "label": f"demo-{norm}", "norm": norm}
            for norm in ("spectral", "infinity")]
    for name in workloads:
        build, _write_traces = WORKLOADS[name]
        raws.extend(build(SEED))
    return raws


def stamp() -> list[str]:
    """The platform lines of a manifest: numpy's version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return [f"# numpy {np.__version__}", f"# blas {blas}"]


def digest_runs(out: Path, raws: list[dict]) -> None:
    for raw in raws:
        run_experiment(parse_config(raw), out / raw["label"], write_traces=True)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", action="store_true",
                        help="print the numpy and BLAS stamp lines first")
    parser.add_argument("--fast", action="store_true",
                        help="only the README demo and sweep-small")
    parser.add_argument("out_dir", nargs="?", type=Path)
    args = parser.parse_args()
    raws = configs(["sweep-small"]) if args.fast else configs()
    if args.manifest:
        print("\n".join(stamp()))
    if args.out_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            digest_runs(Path(tmp), raws)
        return 0
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        print(f"{args.out_dir} is not empty; stale files would be digested too",
              file=sys.stderr)
        return 1
    digest_runs(args.out_dir, raws)
    return 0


if __name__ == "__main__":
    sys.exit(main())
