"""pintlab benchmark: heat1d workloads through ``pintlab.cli.run_experiment``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload async-p64 --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh single-threaded child process
(``worker.py``) that imports the checkout's ``src/pintlab``, parses the
workload's configs and runs them into a temporary directory under
``.perfbench_out/``. Repetitions run one at a time for about ``--seconds``,
and each metric is the median over repetitions.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced repetitions alternate, and the
metrics are the per-layer ones, measured by wrappers swapped in from outside
the program (``tracing.py``), plus ``trace_overhead_s``. Both print the
untraced ``run_s``, which is not a gated metric (see METRICS.md).

Every run is certified: ``failed`` counts runs that stop on a cap or
horizon, carry an invalid schedule or a broken envelope, or stop exactly
without matching the oracle bitwise; a repetition whose report.json or
summary.csv differs from the first repetition's counts all its runs as
failed. The last line of standard output is the JSON result; the full
record, spans included, goes to ``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3           # untraced repetitions per run at --trace 0
MIN_TRACED_PAIRS = 2   # untraced + traced pairs per run at --trace 1
DEADLINE_S = 170.0     # the whole run must end within 180 s
COUNT_UNITS = ("count", "B")  # metrics that must repeat exactly
# Printed and recorded but left out of BENCHMARK.json: on a shared 2-vCPU
# host its spread over ten runs reached 0.4 of the median (METRICS.md).
UNGATED = {"run_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, traced: bool, started: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        t0_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--trace", str(int(traced)), "--t0-ns", str(t0_ns), "--out", work],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"repetition of {workload} ran past the deadline")
        if proc.returncode != 0:
            raise RuntimeError(
                f"repetition of {workload} exited {proc.returncode}:\n{stderr[-4000:]}")
        return json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context() -> dict:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "pintlab").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_pintlab_lines": src_lines,
    }


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "pintlab" / "__init__.py").is_file():
        print(f"no pintlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    # Repetitions run until the next one (a pair at --trace 1) would end
    # past --seconds, so a run takes about --seconds whatever the workload.
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    try:
        while True:
            trace_this = bool(args.trace) and len(traced) < len(plain)
            rep_start = time.monotonic()
            rep = run_child(args.workload, args.seed, trace_this, started)
            walls.append(time.monotonic() - rep_start)
            (traced if trace_this else plain).append(rep)
            if args.trace:
                enough = len(traced) == len(plain) >= MIN_TRACED_PAIRS
            else:
                enough = len(plain) >= MIN_REPS
            next_end = time.monotonic() - started + statistics.median(walls) * (1 + args.trace)
            if enough and next_end > args.seconds:
                break
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    # Correctness: per-run verdicts, and identical artifacts in every repetition.
    reference = {c["label"]: c for c in plain[0]["configs"]}
    attempted = failed = 0
    for rep in plain + traced:
        for c in rep["configs"]:
            attempted += c["runs"]
            ref = reference[c["label"]]
            same = (c["report_sha256"], c["summary_sha256"]) == \
                (ref["report_sha256"], ref["summary_sha256"])
            failed += c["failed"] if same else c["runs"]
    correct = failed == 0

    samples = {"run_s": [r["run_s"] for r in plain]}
    if args.trace:
        samples.update({name: [r["per_layer"][name] for r in traced]
                        for name in traced[0]["per_layer"]})
        samples["trace_overhead_s"] = [
            statistics.median(r["run_s"] for r in traced) - statistics.median(samples["run_s"])
        ]
    else:
        samples["setup_s"] = [r["setup_s"] for r in plain]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    if set(samples) - set(UNGATED) != set(units):
        print(f"metrics {sorted(samples)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, unit in units.items():
        if unit in COUNT_UNITS and len(set(samples[name])) != 1:
            print(f"count {name} differs between repetitions: {samples[name]}",
                  file=sys.stderr)
            correct = False
    units = {**units, **UNGATED}
    medians = {
        name: (statistics.median_low if units[name] in COUNT_UNITS
               else statistics.median)(values)
        for name, values in samples.items()
    }

    context = run_context()
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, "
          f"{len(traced)} traced repetitions in {time.monotonic() - started:.1f} s")
    for name, value in medians.items():
        note = ", not gated" if name in UNGATED else ""
        print(f"  {name:36s} {value:.6g} {units[name]}  ({spread(samples[name])}{note})")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} runs)")
    for label, ref in reference.items():
        print(f"  digest {label}: report.json {ref['report_sha256'][:16]} "
              f"summary.csv {ref['summary_sha256'][:16]}")
    print(f"  context {json.dumps(context)}")

    metrics = {name: {"value": medians[name], "unit": units[name]}
               for name in samples if name not in UNGATED}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": context, "samples": samples,
        "failed_frac": failed / attempted, "digests": reference,
        "spans": [r["spans"] for r in traced], **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
