#!/usr/bin/env python3
"""Compile-time memory of each pintlab module, and which runs load it.

For every module under ``src/pintlab`` it prints the source size, the
tracemalloc peak of ``compile()`` on that source, and whether a sync-only
run, an async run or neither loads the module. A run that imports a module
from source pays its compile peak once; with ``PYTHONDONTWRITEBYTECODE`` set
no bytecode is cached, so every process pays it again. Each number comes
from a fresh interpreter, so no module's measurement depends on another's.

"sync" means a run without schedules loads the module (and so does every
async run); "async" means only a run with a schedule does. The two probe
runs use the scalar-decay problem with p = 4, and the async one a single
round-robin schedule. ``LIMITS`` holds the compile-peak limits that the
tier-1 test enforces; each limited module's line shows its limit and the
headroom left under it.

Usage:

    python3 scripts/compile_peaks.py [--root CHECKOUT]

Standard library only.
"""
from __future__ import annotations

import argparse
import json
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMPILE_PROBE = """
import sys, tracemalloc
source = open(sys.argv[1], encoding="utf-8").read()
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
code = compile(source, sys.argv[1], "exec")
print(tracemalloc.get_traced_memory()[1] - base)
"""

RUN_PROBE = """
import json, sys
from pintlab.cli import parse_config, run_experiment
run_experiment(parse_config(json.loads(sys.argv[1])), sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "pintlab")))
"""

# Compile-peak limits, as (comparison, KiB): a module's peak must compare
# true against its limit. "async" covers every module only an async run loads.
LIMITS = {
    "pintlab.analysis": (operator.lt, 500),
    "pintlab.cli": (operator.le, 1400),
    "async": (operator.le, 650),
}
SYMBOLS = {operator.lt: "<", operator.le: "<="}

CONFIG = {
    "label": "probe",
    "problem": {"name": "scalar-decay", "rate": 1.0, "t_final": 4.0},
    "p": 4,
    "fine": {"rule": "trapezoidal", "steps": 10},
    "coarse": {"rule": "backward-euler", "steps": 1},
}
SCHEDULE = {"seed": 1, "delay_bound": 1, "policy": "round-robin"}


def child(code: str, *args: str, src: Path) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` first on the path;
    its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def compile_peak(path: Path, src: Path) -> int:
    """Bytes that tracemalloc sees at the peak of compiling ``path``."""
    return int(child(COMPILE_PROBE, str(path), src=src))


def loaded_modules(config: dict, src: Path) -> set[str]:
    """The pintlab modules loaded once ``run_experiment`` returns on config."""
    with tempfile.TemporaryDirectory() as out:
        return set(json.loads(child(RUN_PROBE, json.dumps(config), out, src=src)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    src = args.root.resolve() / "src"
    sync = loaded_modules(CONFIG, src)
    both = loaded_modules({**CONFIG, "schedules": [SCHEDULE]}, src)

    print(f"{'module':<20} {'bytes':>7} {'compile peak KiB':>17}  {'loaded by':<9} "
          f"{'limit KiB':>9} {'headroom KiB':>12}")
    for path in sorted((src / "pintlab").glob("*.py")):
        name = "pintlab" if path.stem == "__init__" else f"pintlab.{path.stem}"
        peak = compile_peak(path, src) / 1024
        runs = "sync" if name in sync else "async" if name in both else "neither"
        line = f"{path.name:<20} {path.stat().st_size:>7} {peak:>17.1f}  {runs:<9}"
        compare, limit = LIMITS.get(name) or LIMITS.get(runs) or (None, None)
        if compare is not None:
            line += f" {SYMBOLS[compare] + ' ' + str(limit):>9} {limit - peak:>12.1f}"
        print(line.rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
