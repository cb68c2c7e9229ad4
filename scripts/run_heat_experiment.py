#!/usr/bin/env python3
"""End-to-end demo on the 1D heat benchmark.

Composes a config in a temp-style output directory, runs the sequential
oracle, the synchronous iteration, and a small suite of asynchronous
schedules, then prints the condensed comparison table.

Usage: python3 scripts/run_heat_experiment.py [out_dir]
"""
import csv
import json
import sys
from pathlib import Path

from pintlab.cli import parse_config, run_experiment
from pintlab.table import emit_table


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("heat_experiment_out")
    config = parse_config({
        "label": "heat1d-p8",
        "problem": {"name": "heat1d", "n_interior": 8, "t_final": 1.6},
        "p": 8,
        "fine": {"rule": "trapezoidal", "steps": 100},
        "coarse": {"rule": "backward-euler", "steps": 1},
        "epsilon": 1e-9,
        "schedules": [
            {"seed": s, "delay_bound": 1 + (s - 1) % 3, "policy": "random-fair"}
            for s in range(1, 6)
        ] + [{"seed": 1, "delay_bound": 2, "policy": "adversarial-stale"}],
    })
    report, code = run_experiment(config, out, write_traces=True)
    emit_table(out / "summary.csv", out / "table.csv")

    con = report["contraction"]
    print(f"problem: {report['config']['problem']['label']}  p={config.p}")
    print(f"sync factor alpha       = {con['sync_factor']:.6f}")
    print(f"async factor alpha~     = {con['async_factor']:.6f}")
    print(f"sync convergent: {report['sync_convergent']['holds']} "
          f"(margin {report['sync_convergent']['margin']:.4f})   "
          f"async convergent: {report['async_convergent']['holds']} "
          f"(margin {report['async_convergent']['margin']:.4f})")
    print()
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print()
    print(f"full report: {out / 'report.json'}")
    if code != 0:
        print("warning: at least one run did not converge", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
