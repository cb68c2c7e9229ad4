"""One benchmark repetition, run in a fresh child process by ``run.py``.

Imports ``pintlab.cli``, parses the workload's configs, runs every config
through ``run_experiment`` into ``--out`` and prints one JSON line: set-up
and run times, peak RSS, report digests, per-run verdicts and, with
``--trace 1``, per-layer metrics and spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_failed(run: dict) -> bool:
    """A run fails on a cap or horizon stop, an invalid schedule, a broken
    envelope, or an exact/quiescent stop that misses the oracle."""
    return (
        run["stop_reason"] in ("horizon", "k_max")
        or run.get("schedule_valid") is False
        or run.get("envelope_ok") is False
        or (run["stop_reason"] in ("exact", "quiescence")
            and run["error_vs_oracle"] != 0.0)
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was spawned")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import pintlab.cli

    src = (ROOT / "src").resolve()
    if src not in Path(pintlab.cli.__file__).resolve().parents:
        print(f"pintlab imported from {pintlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    build, write_traces = WORKLOADS[args.workload]
    configs = [pintlab.cli.parse_config(raw) for raw in build(args.seed)]
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) / 1e9

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    run_s = 0.0
    bytes_written = 0
    outputs = []
    for config in configs:
        out = Path(args.out) / config.label
        start = time.perf_counter()
        if tracer is None:
            report, _code = pintlab.cli.run_experiment(config, out, write_traces)
        else:
            tracer.run_id = config.label
            report, _code = tracer.span("cli.run_experiment", pintlab.cli.run_experiment,
                                        config, out, write_traces)
        run_s += time.perf_counter() - start
        bytes_written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        outputs.append({
            "label": config.label,
            "report_sha256": sha256(out / "report.json"),
            "summary_sha256": sha256(out / "summary.csv"),
            "runs": len(report["runs"]),
            "failed": sum(run_failed(run) for run in report["runs"]),
        })

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "configs": outputs,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(bytes_written)
        result["spans"] = tracer.dump_spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
