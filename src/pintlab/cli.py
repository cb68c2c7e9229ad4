"""Command-line driver: run a configured experiment, tabulate its summary.

A config is a single JSON object; see ``config.parse_config`` for the schema. The
``run`` subcommand executes the sequential oracle, the synchronous
iteration, and one asynchronous run per configured schedule, then writes
``report.json`` and ``summary.csv`` (and per-run traces when asked to).
Reruns of the same config are byte-identical. The ``table`` subcommand
lives in ``table.py``, which ``run`` never loads.

Exit codes: 0 success, 1 configuration error, 2 a run failed to converge.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

# config before anything that loads numpy: compiled after numpy, its compile
# transient raised a sync-only run's peak RSS by 0.10-0.14 MiB
from .config import ExperimentConfig, PropagatorSpec, _parse_schedule, load_config, parse_config
from .analysis import (
    CostParams,
    async_convergence_check,
    async_cost,
    contraction_factors,
    fit_overhead,
    sequential_cost,
    speedup_achieved,
    speedup_bound,
    sync_convergence_check,
    sync_cost,
)
from .errors import (ConfigError, EventOverflowError, HorizonExhausted, SingularSystemError,
                     UnfittableError, echo)
from .linalg import NormKind, max_block_norm
from .model import PROPAGATOR_RULES, AffinePropagator, LinearIVP
from .parareal import STOP_KMAX, run_parareal, sequential_fine_solve
from .schedule import STOP_HORIZON

STOPPED = (STOP_HORIZON, STOP_KMAX)  # stop reasons of a run that did not converge
SCHEDULE_TAG = "{policy}/s{seed}/D{delay_bound}"
NAME_MAX = 255  # bytes in a file name on common file systems
# run_async_parareal, then async_audit's: bound before the first schedule runs
ENGINE_NAMES = ("run_async_parareal", "update_counts", "validate_schedule",
                "async_error_envelope", "check_finite_termination")

SUMMARY_COLUMNS = [
    "label", "p", "mode", "policy", "seed", "delay_bound", "iterations",
    "events", "model_cost", "fitted_overhead", "error_vs_oracle",
    "sync_factor", "async_factor", "sync_margin", "async_margin",
    "stop_reason",
]


def _bind_async_engine() -> None:
    """Bind the ENGINE_NAMES as module globals, keeping any name already
    bound (to a tracing wrapper, say): the engine loads with the first async
    run, so a sync-only run never loads it."""
    from . import async_audit, async_parareal
    names = globals()
    names.setdefault(ENGINE_NAMES[0], async_parareal.run_async_parareal)
    for name in ENGINE_NAMES[1:]:
        names.setdefault(name, getattr(async_audit, name))


def __getattr__(name: str):  # PEP 562: the engine's names resolve before its first run
    if name not in ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_async_engine()
    return globals()[name]


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc


def _build_propagator(ivp: LinearIVP, span: float, spec: PropagatorSpec,
                      where: str) -> AffinePropagator:
    """The spec's propagator over span; a singular implicit step is a ConfigError."""
    try:
        return PROPAGATOR_RULES[spec.rule](ivp, span, spec.steps)
    except SingularSystemError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def run_experiment(config: ExperimentConfig, out_dir: str | Path,
                   write_traces: bool = False) -> tuple[dict, int]:
    """Execute every run in the config and write report.json + summary.csv.

    Returns (report, exit_code); exit code 2 flags at least one run that
    stopped without converging (iteration cap or event horizon). The output
    tree is made only once every run has passed, or with write_traces once
    the synchronous run has, so a config that fails writes no report. Each
    async trace is streamed to its JSONL file line by line and freed before
    the next schedule runs.
    """
    tags = [SCHEDULE_TAG.format(**s.to_dict()) for s in config.schedules]
    names = [f"{config.label}-sync.json",  # trace files, each checked before any is written
             *(f"{config.label}-{tag.replace('/', '-')}.jsonl" for tag in tags)]
    for i, name in enumerate(names if write_traces else ()):
        if len(os.fsencode(name)) > NAME_MAX:
            where = f"config.schedules[{i - 1}]" if i else "config.label"
            raise ConfigError(f"{where}: trace file name {echo(name)} is longer than "
                              f"{NAME_MAX} bytes")
    ivp = config.ivp
    p = config.p
    span = ivp.t_final / p
    fine = _build_propagator(ivp, span, config.fine, "config.fine")
    coarse = _build_propagator(ivp, span, config.coarse, "config.coarse")

    report_con = contraction_factors(coarse, fine, p, kind=config.norm_kind)
    sync_ok = sync_convergence_check(report_con)
    async_ok = async_convergence_check(report_con)

    cost_fields = config.costs(fine.cost_units, coarse.cost_units)
    costs = CostParams(p=p, **cost_fields)

    oracle = sequential_fine_solve(fine, ivp.u0, p)

    rows: list[dict] = []
    runs: list[dict] = []

    seq_cost = sequential_cost(costs)
    # Columns every summary row repeats; a run's row adds its report entry.
    # The csv module writes floats with repr and leaves absent columns empty.
    shared = {
        "label": config.label, "p": p,
        "sync_factor": report_con.sync_factor,
        "async_factor": report_con.async_factor,
        "sync_margin": sync_ok.margin, "async_margin": async_ok.margin,
    }
    rows.append({**shared, "mode": "sequential", "model_cost": seq_cost,
                 "error_vs_oracle": 0.0})

    sync_trace = run_parareal(coarse, fine, ivp.u0, p, epsilon=config.epsilon,
                              k_max=config.k_max, reference=oracle)
    k = sync_trace.k_final

    out = Path(out_dir)
    traces_dir = out / "traces" if write_traces else None
    if traces_dir is not None:  # traces are written as the runs go
        _make_dir(traces_dir)
    sync_model_cost = sync_cost(costs, k)
    try:
        fitted = fit_overhead(sync_model_cost, p, k, costs.fine_cost, costs.coarse_cost)
    except UnfittableError:
        fitted = None
    sync_run = {
        "mode": "sync", "iterations": k, "stop_reason": sync_trace.stop_reason,
        "model_cost": sync_model_cost,
        "error_vs_oracle": max_block_norm(sync_trace.final - oracle, NormKind.INFINITY),
        "deltas": list(sync_trace.deltas),
        "finite_termination_index": sync_trace.finite_termination_index,
    }
    runs.append(sync_run)
    rows.append({**shared, **sync_run, "fitted_overhead": fitted})
    if traces_dir is not None:
        (traces_dir / names[0]).write_text(sync_trace.to_json(), encoding="utf-8")

    if config.schedules:
        _bind_async_engine()
    for sched, tag, name in zip(config.schedules, tags, names[1:]):
        try:
            trace = run_async_parareal(coarse, fine, ivp.u0, p, sched, epsilon=config.epsilon)
        except HorizonExhausted as exc:
            trace = exc.trace
        except EventOverflowError as exc:  # name the schedule, keep the payload
            raise EventOverflowError(f"{tag}: {exc}", exc.component, exc.event) from exc
        counts, kappa = update_counts(trace)
        final = trace.state_after(trace.n_events - 1)
        run_entry = {
            "mode": "async", "schedule": sched.to_dict(), "tag": tag,
            "events": trace.n_events, "kappa": kappa,
            "per_component_counts": counts.tolist(),
            "stop_reason": trace.stop_reason,
            "model_cost": async_cost(costs, kappa),
            "error_vs_oracle": max_block_norm(final - oracle, NormKind.INFINITY),
            "schedule_valid": validate_schedule(trace).ok,
            "finite_termination_index": check_finite_termination(trace, oracle),
        }
        if async_ok.holds:
            check = async_error_envelope(trace, report_con, oracle)
            run_entry["sigma_final"] = None if math.isinf(check.sigma_final) else check.sigma_final
            run_entry["bound_final"] = check.bound_final
            run_entry["envelope_ok"] = check.holds
        if p >= 2 and trace.stop_reason != STOP_HORIZON and k <= kappa:
            run_entry["speedup_bound"] = speedup_bound(costs)
            run_entry["speedup_achieved"] = speedup_achieved(costs, k, kappa)
        if traces_dir is not None:
            with open(traces_dir / name, "w", encoding="utf-8") as fh:
                fh.writelines(trace.jsonl_lines())
        runs.append(run_entry)
        rows.append({**shared, **run_entry, **run_entry["schedule"], "iterations": kappa})
        del trace  # freed before the next schedule runs
    exit_code = 2 if any(run["stop_reason"] in STOPPED for run in runs) else 0

    report = {
        "config": config.to_dict(),
        "decomposition": {"p": p, "coarse_dt": span,
                          "fine_dt": span / config.fine.steps},
        "costs": cost_fields,
        "contraction": report_con.to_dict(),
        "sync_convergent": {"holds": sync_ok.holds, "margin": sync_ok.margin},
        "async_convergent": {"holds": async_ok.holds, "margin": async_ok.margin},
        "sequential_cost": seq_cost,
        "runs": runs,
        "exit_code": exit_code,
    }
    _make_dir(out)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return report, exit_code


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pintlab",
        description="Desk-scale synchronous/asynchronous parallel-in-time lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a configured experiment")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--traces", action="store_true",
                       help="also write per-run traces under <out>/traces/")
    run_p.add_argument("--seed-override", type=int, default=None, metavar="N",
                       help="replace schedule seeds with N, N+1, ...")
    table_p = sub.add_parser("table", help="condense a summary.csv")
    table_p.add_argument("--in", dest="in_path", required=True,
                         help="summary.csv produced by 'run'")
    table_p.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.seed_override is not None:
                config.schedules = [
                    _parse_schedule({**s.to_dict(), "seed": args.seed_override + i},
                                    "--seed-override")
                    for i, s in enumerate(config.schedules)]
            report, code = run_experiment(config, args.out, write_traces=args.traces)
            stopped = [f"{run.get('tag', run['mode'])} ({run['stop_reason']})" for run in
                       report["runs"] if run["stop_reason"] in STOPPED]
            if stopped:
                print("warning: stopped before converging:", ", ".join(stopped), file=sys.stderr)
            return code
        from .table import emit_table  # `run` never loads the table code
        emit_table(args.in_path, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
