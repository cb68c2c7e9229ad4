"""The config format, known to no other module: ``parse_config`` reads a config
(its docstring gives the schema and size caps), ``ExperimentConfig.to_dict``
echoes it, and ``_reject_unknown`` rejects unknown fields in every object."""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, echo
from .schedule import AsyncSchedule
from .model import PROBLEMS, PROPAGATOR_RULES, UNIT_STEP_COST, LinearIVP
from .linalg import NormKind
from .analysis import CostParams, largest_costs  # the cost model, to check the costs

FLOAT_END = 2**1024 - 2**970  # float() of an int this large or larger overflows
MAX_STEPS = 10**6  # largest fine/coarse "steps"; see parse_config
MAX_P = 2**16      # largest "p"; see parse_config
MAX_N = 2**10      # largest heat1d "n_interior"; see parse_config
MAX_FOLD = 2**38   # largest "steps" x d**3 of a propagator; see parse_config
MAX_STATE = 2**20  # largest (p + 1) x d, the floats of one iterate; see parse_config


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

    def costs(self, fine_units: float, coarse_units: float) -> dict:
        """The cost model's fine_cost, coarse_cost and overhead: an absent cost
        is its propagator's cost_units, and an absent overhead the coarse cost."""
        fine = fine_units if self.fine_cost is None else self.fine_cost
        coarse = coarse_units if self.coarse_cost is None else self.coarse_cost
        return {"fine_cost": fine, "coarse_cost": coarse,
                "overhead": coarse if self.overhead is None else self.overhead}

    def to_dict(self) -> dict:
        """What parse_config reads back to this config; the problem is inline."""
        ivp = self.ivp
        return {
            "label": self.label,
            "problem": {"A": ivp.a_mat.tolist(), "c": ivp.forcing.tolist(),
                        "u0": ivp.u0.tolist(), "T": ivp.t_final, "label": ivp.label},
            "p": self.p,
            "fine": asdict(self.fine),
            "coarse": asdict(self.coarse),
            "epsilon": self.epsilon,
            "k_max": self.k_max,
            "norm": self.norm_kind.value,
            "schedules": [s.to_dict() for s in self.schedules],
            "costs": {"fine_cost": self.fine_cost, "coarse_cost": self.coarse_cost,
                      "overhead": self.overhead},
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


def _require_numbers(value, depth: int, where: str) -> None:
    """Require ``depth`` levels of lists around JSON numbers."""
    kinds = list if depth else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{where}: expected {'a list' if depth else 'a number'}, "
                        f"got {echo(value)}")
    for j, item in enumerate(value if depth else ()):
        _require_numbers(item, depth - 1, f"{where}[{j}]")


def _parse_problem(raw: dict, where: str) -> LinearIVP:
    if "name" not in raw:  # an inline system: A, c, u0 and T hold JSON numbers
        _reject_unknown(raw, ("A", "c", "u0", "T", "label"), where)
        try:
            for key, depth in (("A", 2), ("c", 1), ("u0", 1), ("T", 0)):
                _require_numbers(raw[key], depth, key)
            label = raw.get("label", "ivp")
            if not isinstance(label, str):
                raise TypeError(f"label: expected a string, got {echo(label)}")
            return LinearIVP(raw["A"], raw["c"], raw["u0"], raw["T"], label)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: invalid inline system: {exc}") from exc
    name = _expect(raw, "name", str, where)
    if name not in PROBLEMS:
        raise ConfigError(f"{where}.name: unknown built-in problem {echo(name)}")
    builder = PROBLEMS[name]
    defaults = {k: v.default for k, v in inspect.signature(builder).parameters.items()}
    _reject_unknown(raw, ("name", *defaults), where)
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
    _reject_unknown(raw, [f.name for f in fields(AsyncSchedule)], where)
    try:  # AsyncSchedule checks each field's type and range
        return AsyncSchedule(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_costs(config: ExperimentConfig) -> None:
    """Reject costs that would put Infinity or NaN into a report: each cost
    the model reports stays finite at the most sweeps the sync run can take
    and the most activations any schedule can give one worker. A propagator
    of ``steps`` steps has cost_units steps * UNIT_STEP_COST."""
    p = config.p
    params = CostParams(p, **config.costs(config.fine.steps * UNIT_STEP_COST,
                                          config.coarse.steps * UNIT_STEP_COST))
    k_cap = p if config.k_max is None else min(config.k_max, p)
    kappa_cap = max((s.busiest_bound(p) for s in config.schedules), default=None)
    if not all(map(math.isfinite, largest_costs(params, k_cap, kappa_cap))):
        raise ConfigError(f"config.costs: the cost model leaves the float range at p={p}, "
                          f"{k_cap} sweeps" + ("" if kappa_cap is None else
                                               f" and {kappa_cap} activations of one worker"))


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a decoded JSON object into an ExperimentConfig.

    Schema (top level): label, problem, p, fine, coarse, epsilon,
    optional k_max, optional norm ("spectral"|"infinity"), optional
    schedules (list), optional costs {fine_cost, coarse_cost, overhead},
    where fine_cost and coarse_cost may not both be 0 and no cost of the
    model may leave the float range. A null k_max or cost is absent, so a
    report's "config" re-runs to the same report. An unknown field at any
    level is a ConfigError.

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
    # names trace files; "replace" turns a lone surrogate, which UTF-8 cannot hold, into "?"
    if (label in ("", ".", "..") or "/" in label or "\0" in label
            or label.encode("utf-8", "replace").decode("utf-8") != label):
        raise ConfigError(f"config.label: need a UTF-8 file name without '/' or NUL, not '', "
                          f"'.' or '..', got {echo(label)}")
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
    config = ExperimentConfig(
        label=label, ivp=ivp, p=p, fine=fine, coarse=coarse,
        epsilon=float(epsilon), k_max=k_max, norm_kind=norm_kind,
        schedules=schedules, fine_cost=fine_cost, coarse_cost=coarse_cost,
        overhead=cost_field("overhead"),
    )
    _check_costs(config)
    return config


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
