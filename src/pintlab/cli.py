"""Command-line driver: run a configured experiment, tabulate its summary.

A config is a single JSON object; see ``parse_config`` for the schema. The
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
import inspect
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
from .errors import ConfigError, HorizonExhausted, SingularSystemError, UnfittableError, echo
from .linalg import NormKind, max_block_norm
from .model import PROBLEMS, PROPAGATOR_RULES, AffinePropagator, LinearIVP
from .parareal import STOP_KMAX, run_parareal, sequential_fine_solve
from .schedule import STOP_HORIZON, AsyncSchedule

FLOAT_END = 2**1024 - 2**970  # float() of an int this large or larger overflows
MAX_STEPS = 10**6  # largest fine/coarse "steps"; see parse_config
MAX_P = 2**16      # largest "p"; see parse_config
MAX_N = 2**10      # largest heat1d "n_interior"; see parse_config
MAX_FOLD = 2**38   # largest "steps" x d**3 of a propagator; see parse_config
MAX_STATE = 2**20  # largest (p + 1) x d, the floats of one iterate; see parse_config
STOPPED = (STOP_HORIZON, STOP_KMAX)  # stop reasons of a run that did not converge
SCHEDULE_TAG = "{policy}/s{seed}/D{delay_bound}"
# run_async_parareal, then async_audit's: bound before the first schedule runs
ENGINE_NAMES = ("run_async_parareal", "update_counts", "validate_schedule",
                "async_error_envelope", "check_finite_termination")

SUMMARY_COLUMNS = [
    "label", "p", "mode", "policy", "seed", "delay_bound", "iterations",
    "events", "model_cost", "fitted_overhead", "error_vs_oracle",
    "sync_factor", "async_factor", "sync_margin", "async_margin",
    "stop_reason",
]

@dataclass(frozen=True)
class PropagatorSpec:
    """Named one-interval integrator: rule key plus substep count."""

    rule: str
    steps: int


@dataclass
class ExperimentConfig:
    label: str
    ivp: LinearIVP
    p: int
    fine: PropagatorSpec
    coarse: PropagatorSpec
    epsilon: float
    k_max: int | None
    norm_kind: NormKind
    schedules: list[AsyncSchedule] = field(default_factory=list)
    fine_cost: float | None = None      # None: use the propagator's own units
    coarse_cost: float | None = None
    overhead: float | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "problem": self.ivp.to_dict(),
            "p": self.p,
            "fine": asdict(self.fine),
            "coarse": asdict(self.coarse),
            "epsilon": self.epsilon,
            "k_max": self.k_max,
            "norm": self.norm_kind.value,
            "schedules": [s.to_dict() for s in self.schedules],
            "costs": {
                "fine_cost": self.fine_cost,
                "coarse_cost": self.coarse_cost,
                "overhead": self.overhead,
            },
        }


def _expect(raw: dict, key: str, kinds, where: str, required: bool = True,
            default=None):
    # an optional field that defaults to None reads null as absent, as to_dict writes it
    if key not in raw or (raw[key] is None and not required and default is None):
        if required:
            raise ConfigError(f"{where}: missing required field '{key}'")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(
            f"{where}.{key}: expected {getattr(kinds, '__name__', 'number')}, "
            f"got {type(value).__name__}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {echo(value)}")
    if isinstance(value, int) and abs(value) >= FLOAT_END:
        raise ConfigError(f"{where}.{key}: integer too large for a float")
    return value


def _reject_unknown(raw: dict, known, where: str) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown fields: {echo(unknown)}")


def _parse_problem(raw: dict, where: str) -> LinearIVP:
    if "name" in raw:
        name = _expect(raw, "name", str, where)
        if name not in PROBLEMS:
            raise ConfigError(f"{where}.name: unknown built-in problem {echo(name)}")
        builder = PROBLEMS[name]
        defaults = {k: v.default for k, v in inspect.signature(builder).parameters.items()}
        unknown = sorted(set(raw) - {"name"} - set(defaults))
        if unknown:
            raise ConfigError(
                f"{where}: unknown parameters for '{name}': {echo(unknown)}"
            )
        # an int default (n_interior) takes ints only
        kwargs = {k: _expect(raw, k, int if isinstance(v, int) else (int, float), where,
                             required=False, default=v)
                  for k, v in defaults.items()}
        n = kwargs.get("n_interior", 1)  # scalar-decay has none
        if not 1 <= n <= MAX_N:
            raise ConfigError(f"{where}.n_interior: need an integer in 1..{MAX_N}, got {echo(n)}")
        try:
            return builder(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad parameter for '{name}': {exc}") from exc
    try:
        return LinearIVP.from_dict(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: invalid inline system: {exc}") from exc


def _parse_propagator(raw: dict, where: str, dim: int) -> PropagatorSpec:
    _reject_unknown(raw, ("rule", "steps"), where)
    rule = _expect(raw, "rule", str, where)
    if rule not in PROPAGATOR_RULES:
        known = ", ".join(sorted(PROPAGATOR_RULES))
        raise ConfigError(f"{where}.rule: unknown rule {echo(rule)} (known: {known})")
    steps = _expect(raw, "steps", int, where)
    cap = min(MAX_STEPS, MAX_FOLD // dim**3)
    if not 1 <= steps <= cap:
        raise ConfigError(f"{where}.steps: need an integer in 1..{cap} for the {dim} unknowns of "
                          f"config.problem, got {echo(steps)}")
    return PropagatorSpec(rule=rule, steps=steps)


def _parse_schedule(raw, where: str) -> AsyncSchedule:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be an object")
    try:
        return AsyncSchedule.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a decoded JSON object into an ExperimentConfig.

    Schema (top level): label, problem, p, fine, coarse, epsilon,
    optional k_max, optional norm ("spectral"|"infinity"), optional
    schedules (list), optional costs {fine_cost, coarse_cost, overhead},
    where fine_cost and coarse_cost may not both be 0. A null k_max or cost
    is absent, so a report's "config" re-runs to the same report.
    An unknown field at any level is a ConfigError.

    Three sizes and two of their products are capped so that a config
    cannot ask for a fold that runs for years or for arrays that do not fit
    in memory (measured on a 2-core x86-64 host, Python 3.11, numpy 2.4,
    single-threaded BLAS); d is the problem's number of unknowns:

    - ``steps`` <= MAX_STEPS = 10**6. Each propagator folds its ``steps``
      one-step maps one at a time, about 3.4 us a step for scalar-decay,
      4.1 us for heat1d with 16 unknowns and 11.5 us with 64, so a fold at
      the cap takes 3-12 s.
    - ``p`` <= MAX_P = 2**16. Every iterate holds (p + 1) x d floats, so
      MAX_STATE below lowers this cap for 16 or more unknowns.
    - heat1d ``n_interior`` <= MAX_N = 2**10. Its matrices are dense n x n:
      at the cap one is 8 MiB, building a trapezoidal step takes 0.6 s and
      peaks at 40 MiB, and every further step of the fold takes 48 ms.
    - ``steps`` x d**3 <= MAX_FOLD = 2**38 for each propagator. A step of
      the fold is a d x d matrix product, 0.04-0.05 ns per d**3 for heat1d
      with 64 to 1024 unknowns, so a fold at the cap takes 10-13 s (10**6
      steps at d = 64, 256 steps at d = 1024).
    - (p + 1) x d <= MAX_STATE = 2**20: one iterate is at most 8 MiB, and
      the sequential oracle at the cap (p + 1 = 2**16 with d = 16, 2**10
      with d = 2**10) takes 0.4-0.8 s and peaks at 9 MiB of allocations.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    label = _expect(raw, "label", str, "config", required=False, default="experiment")
    if label in ("", ".", "..") or "/" in label or "\0" in label:  # names trace files
        raise ConfigError(f"config.label: need a file name without '/' or NUL, not '', '.' "
                          f"or '..', got {echo(label)}")
    ivp = _parse_problem(_expect(raw, "problem", dict, "config"), "config.problem")
    p = _expect(raw, "p", int, "config")
    cap = min(MAX_P, MAX_STATE // ivp.dim - 1)
    if not 1 <= p <= cap:
        raise ConfigError(f"config.p: need an integer in 1..{cap} for the {ivp.dim} unknowns of "
                          f"config.problem, got {echo(p)}")
    fine = _parse_propagator(_expect(raw, "fine", dict, "config"), "config.fine", ivp.dim)
    coarse = _parse_propagator(_expect(raw, "coarse", dict, "config"), "config.coarse", ivp.dim)
    epsilon = _expect(raw, "epsilon", (int, float), "config", required=False, default=0.0)
    if epsilon < 0.0:
        raise ConfigError(f"config.epsilon: need a number >= 0, got {echo(epsilon)}")
    k_max = _expect(raw, "k_max", int, "config", required=False)
    if k_max is not None and k_max < 1:
        raise ConfigError(f"config.k_max: need a positive integer, got {echo(k_max)}")
    norm_name = _expect(raw, "norm", str, "config", required=False, default="spectral")
    try:
        norm_kind = NormKind(norm_name)
    except ValueError as exc:
        raise ConfigError(f"config.norm: unknown norm {echo(norm_name)}") from exc
    raw_schedules = _expect(raw, "schedules", list, "config", required=False, default=[])
    schedules = [
        _parse_schedule(s, f"config.schedules[{i}]")
        for i, s in enumerate(raw_schedules)
    ]
    costs = _expect(raw, "costs", dict, "config", required=False, default={})
    _reject_unknown(costs, ("fine_cost", "coarse_cost", "overhead"), "config.costs")
    def cost_field(key):
        v = _expect(costs, key, (int, float), "config.costs", required=False)
        if v is not None and v < 0.0:
            raise ConfigError(f"config.costs.{key}: need a number >= 0, got {echo(v)}")
        return None if v is None else float(v)
    _reject_unknown(raw, ("label", "problem", "p", "fine", "coarse", "epsilon", "k_max",
                          "norm", "schedules", "costs"), "config")
    fine_cost, coarse_cost = cost_field("fine_cost"), cost_field("coarse_cost")
    if fine_cost == coarse_cost == 0.0:
        raise ConfigError("config.costs: fine_cost and coarse_cost are both 0, so every "
                          "activation costs 0 and the speedup is undefined")
    return ExperimentConfig(
        label=label, ivp=ivp, p=p, fine=fine, coarse=coarse,
        epsilon=float(epsilon), k_max=k_max, norm_kind=norm_kind,
        schedules=schedules, fine_cost=fine_cost, coarse_cost=coarse_cost,
        overhead=cost_field("overhead"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    # JSONDecodeError, UnicodeDecodeError, an integer past int()'s digit limit,
    # or nesting deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc
    return parse_config(raw)


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
    tree is made only once the synchronous run has passed, so a config that
    fails writes nothing. Each async trace is streamed to its JSONL file line
    by line and freed before the next schedule runs.
    """
    ivp = config.ivp
    p = config.p
    span = ivp.t_final / p
    fine = _build_propagator(ivp, span, config.fine, "config.fine")
    coarse = _build_propagator(ivp, span, config.coarse, "config.coarse")

    report_con = contraction_factors(coarse, fine, p, kind=config.norm_kind)
    sync_ok = sync_convergence_check(report_con)
    async_ok = async_convergence_check(report_con)

    fine_cost = config.fine_cost if config.fine_cost is not None else fine.cost_units
    coarse_cost = (
        config.coarse_cost if config.coarse_cost is not None else coarse.cost_units
    )
    overhead = config.overhead if config.overhead is not None else coarse_cost
    costs = CostParams(p=p, fine_cost=fine_cost, coarse_cost=coarse_cost,
                       overhead=overhead)

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
    try:
        out.mkdir(parents=True, exist_ok=True)
        if traces_dir is not None:
            traces_dir.mkdir(exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    sync_model_cost = sync_cost(costs, k)
    try:
        fitted = fit_overhead(sync_model_cost, p, k, fine_cost, coarse_cost)
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
        (traces_dir / f"{config.label}-sync.json").write_text(
            sync_trace.to_json(), encoding="utf-8"
        )

    if config.schedules:
        _bind_async_engine()
    for sched in config.schedules:
        try:
            trace = run_async_parareal(coarse, fine, ivp.u0, p, sched, epsilon=config.epsilon)
        except HorizonExhausted as exc:
            trace = exc.trace
        counts, kappa = update_counts(trace)
        final = trace.state_after(trace.n_events - 1)
        tag = SCHEDULE_TAG.format(**sched.to_dict())
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
            with open(traces_dir / f"{config.label}-{tag.replace('/', '-')}.jsonl", "w",
                      encoding="utf-8") as fh:
                fh.writelines(trace.jsonl_lines())
        runs.append(run_entry)
        rows.append({**shared, **run_entry, **run_entry["schedule"], "iterations": kappa})
        del trace  # freed before the next schedule runs
    exit_code = 2 if any(run["stop_reason"] in STOPPED for run in runs) else 0

    report = {
        "config": config.to_dict(),
        "decomposition": {"p": p, "coarse_dt": span,
                          "fine_dt": span / config.fine.steps},
        "costs": {"fine_cost": fine_cost, "coarse_cost": coarse_cost,
                  "overhead": overhead},
        "contraction": report_con.to_dict(),
        "sync_convergent": {"holds": sync_ok.holds, "margin": sync_ok.margin},
        "async_convergent": {"holds": async_ok.holds, "margin": async_ok.margin},
        "sequential_cost": seq_cost,
        "runs": runs,
        "exit_code": exit_code,
    }
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
