#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, for before/after comparisons.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout for N pairs, alternating which side goes first (odd pairs
run the parent first), so that drift of the host hits both sides alike.
Prints, per end-to-end metric of the parent's BENCHMARK.json, each side's
median and quartiles over the pairs, the number of pairs the change won and
whether the gain rule holds, and appends the samples to the JSON list in
``--out``. The gain rule: at least ten pairs, the change wins at least nine
tenths of them (ties count for neither side), and the medians differ in the
change's favour by more than the parent's quartile distance. It does the
same for the ungated ``run_s``: per run, the median of the ``samples.run_s`` that
perfbench records in ``.perfbench_out/results/<workload>-seed<seed>-trace0.json``.

The two checkouts must sit at absolute paths of equal length: the path
moves the interpreter's heap layout, and with it ``peak_rss_mb``, by more
than many changes do.

Usage:

    python3 scripts/paired_bench.py --parent ../a/repo --change ../b/repo \\
        --workload async-p64 --pairs 10 --out BENCH.json

Standard library only; the runs import nothing from this checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
UNGATED = "run_s"  # printed by perfbench but not in BENCHMARK.json; lower is better


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its result (the last stdout line),
    with the median untraced ``run_s`` of its record added to the metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    run_s = json.loads(record.read_text(encoding="utf-8"))["samples"][UNGATED]
    result["metrics"][UNGATED] = {"value": statistics.median(run_s), "unit": "s"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def gain_holds(wins: int, pairs: int, sign: float, parent: tuple[float, float, float],
               change: tuple[float, float, float]) -> bool:
    """The gain rule over ``pairs`` pairs; ``sign`` is -1 when lower is better
    and the quartiles are (q1, median, q3)."""
    return (pairs >= 10 and 10 * wins >= 9 * pairs
            and sign * (change[1] - parent[1]) > parent[2] - parent[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file holding a list of records; this run's is appended")
    args = parser.parse_args(argv)
    paths = {side: getattr(args, side).resolve() for side in SIDES}
    if len(str(paths["parent"])) != len(str(paths["change"])):
        parser.error(f"checkout paths differ in length: {paths['parent']} "
                     f"({len(str(paths['parent']))}) and {paths['change']} "
                     f"({len(str(paths['change']))})")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((paths["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    samples: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            result = run_once(paths[side], args.workload, args.seed, args.seconds)
            failed[side] += result["failed"]
            for name, metric in result["metrics"].items():
                samples[side].setdefault(name, []).append(metric["value"])
        print(f"pair {pair}/{args.pairs}: " + "  ".join(
            f"{name} {samples['parent'][name][-1]:.4g} -> {samples['change'][name][-1]:.4g}"
            for name in sorted(samples["parent"])), flush=True)

    summary = {}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, --seconds {args.seconds}; "
          f"failed runs: parent {failed['parent']}, change {failed['change']}")
    for name in sorted(samples["parent"]):
        before, after = samples["parent"][name], samples["change"][name]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        stats = {side: quartiles(samples[side][name]) for side in SIDES}
        gain = gain_holds(wins, args.pairs, sign, stats["parent"], stats["change"])
        summary[name] = {"better": better.get(name, "lower"), "gated": name != UNGATED,
                         "change_wins": wins, "gain": gain,
                         **{side: dict(zip(("q1", "median", "q3"), stats[side]))
                            for side in SIDES}}
        print(f"  {name:12s} parent {stats['parent'][1]:.4f} ({stats['parent'][0]:.4f}.."
              f"{stats['parent'][2]:.4f})  change {stats['change'][1]:.4f} "
              f"({stats['change'][0]:.4f}..{stats['change'][2]:.4f})  "
              f"change better in {wins} of {args.pairs}, gain {'holds' if gain else 'not shown'}"
              + (" (not gated)" if name == UNGATED else ""))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "path_length": len(str(paths["parent"])),
              "failed": failed, "samples": samples, "summary": summary}
    records = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else []
    args.out.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
