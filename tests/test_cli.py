"""Command-line surface: config validation, run artifacts, determinism, and
the condensed table."""
import csv
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pintlab.cli
from pintlab.analysis import CostParams, async_cost, sequential_cost, speedup_bound, sync_cost
from pintlab.async_parareal import run_async_parareal, simulate_async
from pintlab.cli import SUMMARY_COLUMNS, main
from pintlab.config import (
    FLOAT_END,
    MAX_FOLD,
    MAX_N,
    MAX_P,
    MAX_STATE,
    MAX_STEPS,
    load_config,
    parse_config,
)
from pintlab.errors import ConfigError, EventOverflowError, HorizonExhausted
from pintlab.model import PROPAGATOR_RULES


def base_config(**overrides):
    cfg = {
        "label": "demo",
        "problem": {"name": "scalar-decay", "rate": 1.0, "t_final": 8.0},
        "p": 8,
        "fine": {"rule": "trapezoidal", "steps": 25},
        "coarse": {"rule": "backward-euler", "steps": 1},
        "epsilon": 1e-5,
        "schedules": [
            {"seed": 1, "delay_bound": 0, "policy": "round-robin"},
            {"seed": 2, "delay_bound": 2, "policy": "random-fair"},
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, cfg, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_cli(tmp_path, cfg, extra=(), out_name="out"):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / out_name
    rc = main(["run", "--config", str(cfg_path), "--out", str(out), *extra])
    return rc, out


def read_summary(out: Path):
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ config errors

@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("p"),
    lambda c: c.pop("fine"),
    lambda c: c.update(p=0),
    lambda c: c.update(p=True),
    lambda c: c.update(epsilon=-1.0),
    lambda c: c.update(norm="manhattan"),
    lambda c: c.update(mystery=1),
    lambda c: c["problem"].update(name="pendulum"),
    lambda c: c["problem"].update(name=["heat1d"]),
    lambda c: c["problem"].update(viscosity=2.0),
    lambda c: c["fine"].update(rule="leapfrog"),
    lambda c: c["fine"].update(steps=0),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": -1}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": 0,
                                     "policy": "eager"}),
    lambda c: c.update(costs={"fine_cost": -2.0}),
    lambda c: c.update(k_max=0),
    lambda c: c["schedules"].append({"seed": 1.9, "delay_bound": 2}),
    lambda c: c["schedules"].append({"seed": 1, "delay_bound": 2.7}),
    lambda c: c["schedules"].append({"seed": "3", "delay_bound": 0}),
    lambda c: c["schedules"].append({"seed": True, "delay_bound": 0}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": False}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": 0,
                                     "max_events": 100.0}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": 0,
                                     "max_events": True}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": 0,
                                     "policy": 7}),
    lambda c: c["schedules"].append({"seed": 3, "delay_bound": 0,
                                     "polcy": "round-robin"}),
    lambda c: c["schedules"].append({"delay_bound": 0}),
    lambda c: c["schedules"].append([3, 0]),
    # problem parameters are JSON numbers, never strings or booleans
    lambda c: c.update(problem={"name": "heat1d", "t_final": "0.2"}),
    lambda c: c.update(problem={"name": "heat1d", "initial_temp": "30"}),
    lambda c: c.update(problem={"name": "heat1d", "length": True}),
    lambda c: c.update(problem={"name": "heat1d", "boundary_left": False}),
    lambda c: c.update(problem={"name": "heat1d", "n_interior": 8.0}),
    lambda c: c.update(problem={"name": "heat1d", "n_interior": True}),
    lambda c: c["problem"].update(rate=True),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [0.0], "u0": ["1"], "T": 2.0}),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [0.0], "u0": [1.0], "T": "2"}),
    lambda c: c.update(problem={"A": [[True]], "c": [0.0], "u0": [1.0], "T": 2.0}),
    lambda c: c.update(problem={"A": [-1.0], "c": [0.0], "u0": [1.0], "T": 2.0}),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [False], "u0": [1.0], "T": 2.0}),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [0.0], "u0": [1.0], "T": 2.0,
                                "label": 7}),
    # json.load reads NaN and Infinity; no field takes a non-finite number
    lambda c: c.update(epsilon=float("nan")),
    lambda c: c.update(costs={"overhead": float("nan")}),
    lambda c: c.update(costs={"fine_cost": float("inf")}),
    lambda c: c.update(problem={"name": "heat1d", "t_final": float("inf")}),
    lambda c: c.update(problem={"name": "heat1d", "initial_temp": float("nan")}),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [0.0], "u0": [float("nan")],
                                "T": 2.0}),
    lambda c: c["schedules"].append({"seed": -1, "delay_bound": 0}),
    # a typo inside fine, coarse or costs must not fall back to the default
    lambda c: c["fine"].update(stepz=3),
    lambda c: c["coarse"].update(theta=0.5),
    lambda c: c.update(costs={"fine_cots": 2.0}),
    lambda c: c.update(problem={"A": [[-1.0]], "c": [0.0], "u0": [1.0], "T": 1.0,
                                "lable": "x"}),
    lambda c: c.update(problem={"name": "heat1d", "n_interior": 0}),
    # a lone surrogate has no UTF-8 form, so it cannot name a trace file
    lambda c: c.update(label="a\ud800"),
    # every activation would cost 0 solve units: the speedup is undefined
    lambda c: c.update(costs={"fine_cost": 0, "coarse_cost": 0}),
])
def test_invalid_configs_rejected(mutate):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError):
        parse_config(cfg)


@pytest.mark.parametrize("label", ["../../escaped", "a/b"])
def test_label_that_is_not_a_file_name_exits_one(tmp_path, capsys, label):
    # run --traces puts the label in trace file names: a '/' in it would
    # write above <out>/traces/ or into a missing directory
    rc, out = run_cli(tmp_path, base_config(label=label), extra=["--traces"],
                      out_name="out/run")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.label: ") and repr(label) in err, err
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["config.json"]


@pytest.mark.parametrize("label", ["", ".", "..", "/", "a\0b", "nul\0"])
def test_label_names_a_file(label):
    with pytest.raises(ConfigError, match=r"^config\.label: "):
        parse_config(base_config(label=label))
    for fine in ("...", "a.b", "-", "x y", "é"):
        assert parse_config(base_config(label=fine)).label == fine


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = base_config()
    del cfg["problem"]
    rc, _ = run_cli(tmp_path, cfg)
    assert rc == 1
    assert "problem" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, extra", [
    (base_config(epsilon=float("nan")), []),  # written as the JSON literal NaN
    (base_config(schedules=[{"seed": -1, "delay_bound": 0}]), []),
    (base_config(), ["--seed-override", "-3"]),
    (base_config(problem={"name": "heat1d", "length": -1}), []),  # a bad parameter
    ([], []),  # a top level that is no object
    (base_config(fine={"rule": "trapezoidal", "steps": 2, "stepz": 3}), []),  # a typo
    (base_config(costs={"fine_cots": 2.0}), []),
    (base_config(costs={"fine_cost": 0, "coarse_cost": 0.0}), []),  # an undefined speedup
])
def test_rejected_values_exit_one(tmp_path, capsys, cfg, extra):
    rc, out = run_cli(tmp_path, cfg, extra=extra)
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "report.json").exists()


def _nested(depth):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("mutate, field", [
    (lambda c: c["problem"].update(name="x" * 100_000), "config.problem.name"),
    (lambda c: c["fine"].update(rule="r" * 50_000), "config.fine.rule"),
    (lambda c: c.update({"f" * 30_000: 1}), "config: unknown fields"),
    (lambda c: c["coarse"].update({"s" * 30_000: 1}), "config.coarse: unknown fields"),
    (lambda c: c.update(costs={"c" * 30_000: 1}), "config.costs: unknown fields"),
    (lambda c: c.update(problem={"A": _nested(900), "c": [0.0], "u0": [1.0], "T": 1.0}),
     "config.problem"),
    (lambda c: c.update(p=10**300), "config.p"),
])
def test_config_errors_abridge_the_values_they_echo(mutate, field):
    # a message names its field and quotes the offending value cut short,
    # however long the value
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    message = str(info.value)
    assert message.startswith(field)
    assert len(message) <= 120, message


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, field", [
    (lambda c: c.update(epsilon=10**400), "config.epsilon"),
    (lambda c: c.update(epsilon=-10**309), "config.epsilon"),
    (lambda c: c.update(costs={"fine_cost": 10**400}), "config.costs.fine_cost"),
    (lambda c: c.update(costs={"overhead": 10**309}), "config.costs.overhead"),
    (lambda c: c.update(problem={"name": "heat1d", "t_final": 10**400}),
     "config.problem.t_final"),
    (lambda c: c.update(problem={"name": "heat1d", "initial_temp": -10**400}),
     "config.problem.initial_temp"),
    (lambda c: c["problem"].update(rate=10**400), "config.problem.rate"),
    (lambda c: c.update(problem={"A": [[-10**400]], "c": [0.0], "u0": [1.0], "T": 2.0}),
     "config.problem"),
    (lambda c: c.update(p=10**400), "config.p"),
    (lambda c: c["fine"].update(steps=10**400), "config.fine.steps"),
    (lambda c: c.update(problem={"name": "heat1d", "n_interior": 10**400}),
     "config.problem.n_interior"),
    (lambda c: c.update(k_max=10**400), "config.k_max"),
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": 10**300}),
                 "config.problem.n_interior", id="huge-config.problem.n_interior"),
    # a fold of more than MAX_STEPS steps, iterates of more than MAX_P + 1
    # blocks, or heat1d matrices of more than MAX_N x MAX_N
    pytest.param(lambda c: c.update(p=MAX_P + 1), "config.p", id="cap-config.p"),
    pytest.param(lambda c: c["fine"].update(steps=MAX_STEPS + 1), "config.fine.steps",
                 id="cap-config.fine.steps"),
    pytest.param(lambda c: c["coarse"].update(steps=10**15), "config.coarse.steps",
                 id="cap-config.coarse.steps"),
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": MAX_N + 1}),
                 "config.problem.n_interior", id="cap-config.problem.n_interior"),
    # every size within its own cap, but a fold whose steps x d**3 pass
    # MAX_FOLD or an iterate of more than MAX_STATE floats; at the largest
    # sizes, about 13 hours of fold or 512 MiB iterates
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": MAX_N},
                                    fine={"rule": "trapezoidal", "steps": MAX_STEPS}),
                 "config.fine.steps", id="fold-config.fine.steps"),
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": MAX_N}, p=MAX_P),
                 "config.p", id="state-config.p"),
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": MAX_N},
                                    coarse={"rule": "backward-euler",
                                            "steps": MAX_FOLD // MAX_N**3 + 1}),
                 "config.coarse.steps", id="fold-cap-config.coarse.steps"),
    pytest.param(lambda c: c.update(problem={"name": "heat1d", "n_interior": MAX_N},
                                    p=MAX_STATE // MAX_N),
                 "config.p", id="state-cap-config.p"),
])
def test_oversized_integers_exit_one(tmp_path, capsys, mutate, field):
    # a JSON integer past its cap or the float range is a config error
    # naming its field
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(cfg)
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert not (out / "report.json").exists()


def test_size_caps_are_inclusive():
    # each size at its own cap, on a problem small enough for the product caps
    config = parse_config(base_config(p=MAX_P, fine={"rule": "trapezoidal", "steps": MAX_STEPS},
                                      coarse={"rule": "backward-euler", "steps": MAX_STEPS}))
    assert (config.p, config.fine.steps, config.coarse.steps) == (MAX_P, MAX_STEPS, MAX_STEPS)
    heat = {"name": "heat1d", "n_interior": MAX_N}
    assert parse_config(base_config(problem=heat)).ivp.dim == MAX_N
    # both products at their caps: steps x d**3 == MAX_FOLD, (p + 1) x d == MAX_STATE
    steps = MAX_FOLD // MAX_N**3
    config = parse_config(base_config(p=MAX_STATE // MAX_N - 1, problem=heat,
                                      fine={"rule": "trapezoidal", "steps": steps},
                                      coarse={"rule": "backward-euler", "steps": steps}))
    assert config.fine.steps * MAX_N**3 == config.coarse.steps * MAX_N**3 == MAX_FOLD
    assert (config.p + 1) * config.ivp.dim == MAX_STATE


def test_float_range_ends_where_float_overflows():
    # float() rounds an int to the nearest float: one below FLOAT_END rounds
    # down to the largest float, FLOAT_END itself overflows
    float(FLOAT_END - 1)
    with pytest.raises(OverflowError):
        float(FLOAT_END)
    assert parse_config(base_config(epsilon=FLOAT_END - 1)).epsilon == sys.float_info.max
    with pytest.raises(ConfigError, match="config.epsilon"):
        parse_config(base_config(epsilon=FLOAT_END))


def test_overlong_integer_literal_exits_one(tmp_path, capsys):
    # json refuses to convert an integer literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"epsilon": ' + "9" * 5000 + "}", encoding="utf-8")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_deeply_nested_config_exits_one(tmp_path, capsys):
    # json recurses once per level and gives up with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"label": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_inline_problem_accepted():
    cfg = base_config(problem={
        "A": [[-1.0]], "c": [0.0], "u0": [1.0], "T": 8.0, "label": "inline",
    })
    parsed = parse_config(cfg)
    assert parsed.ivp.label == "inline"


def test_singular_implicit_step_exits_one(tmp_path, capsys):
    # dt = 1/8 makes the coarse backward-Euler system I - dt A exactly zero
    cfg = base_config(problem={"A": [[8.0]], "c": [0.0], "u0": [1.0], "T": 1.0})
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.coarse: implicit step with dt=0.125 ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflowing_sync_sweep_exits_one(tmp_path, capsys):
    # sweep 1 stays finite; sweep 2's change between finite iterates overflows
    cfg = base_config(problem={"A": [[0, 10], [-10, 0]], "c": [0, 0], "u0": [1.5e308, 0],
                               "T": 3})
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep 2 of the synchronous run overflows")
    assert err.count("\n") == 1
    assert not out.exists()


def test_inline_problem_with_unknown_field_exits_one(tmp_path, capsys):
    # a misspelt key of an inline system is rejected, as at every other level
    cfg = base_config(problem={"A": [[-1.0]], "c": [0.0], "u0": [1.0], "T": 1.0,
                               "lable": "x"})
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    assert capsys.readouterr().err == "config error: config.problem: unknown fields: ['lable']\n"
    assert not out.exists()


# an oscillator whose value leaves the float range at an event of the one
# adversarial-stale schedule, after the one synchronous sweep of k_max 1
OVERFLOWING_ASYNC = base_config(
    label="ovf", problem={"A": [[-0.05, 10.0], [-10.0, -0.05]], "c": [0, 0],
                          "u0": [5e307, 0], "T": 8},
    p=16, fine={"rule": "trapezoidal", "steps": 200}, k_max=1, epsilon=0.0,
    schedules=[{"seed": 1, "delay_bound": 2, "policy": "adversarial-stale"}])


def test_overflowing_async_event_exits_one(tmp_path, capsys):
    rc, out = run_cli(tmp_path, OVERFLOWING_ASYNC)
    assert rc == 1
    assert capsys.readouterr().err == ("config error: adversarial-stale/s1/D2: component 11 "
                                       "produced a non-finite value at event 613\n")
    assert not out.exists()  # an untraced run makes its output tree last
    # a traced run keeps the traces written before the failing schedule
    rc, out = run_cli(tmp_path, OVERFLOWING_ASYNC, extra=["--traces"], out_name="traced")
    assert rc == 1
    assert [path.name for path in out.rglob("*")] == ["traces", "ovf-sync.json"]
    with pytest.raises(EventOverflowError) as info:
        pintlab.cli.run_experiment(parse_config(OVERFLOWING_ASYNC), tmp_path / "lib")
    assert (info.value.component, info.value.event) == (11, 613)


@pytest.mark.parametrize("overrides, extra, field", [
    ({"label": "x" * 300}, [], "config.label"),
    ({"label": "s", "schedules": [{"seed": 10**260, "delay_bound": 1}]}, [],
     "config.schedules[0]"),
    ({"label": "s"}, ["--seed-override", str(10**260)], "config.schedules[0]"),
])
def test_overlong_trace_name_exits_one(tmp_path, capsys, overrides, extra, field):
    # each trace file name must fit the 255 bytes of a file name; a traced
    # run checks them all, with the seeds of --seed-override, before it writes
    rc, out = run_cli(tmp_path, base_config(**overrides), extra=["--traces", *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: trace file name ")
    assert err.endswith(" is longer than 255 bytes\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("costs", [
    {"fine_cost": 1, "coarse_cost": 1, "overhead": 1e308},
    {"fine_cost": 1e308, "coarse_cost": 1e308},
])
def test_costs_that_overflow_the_model_exit_one(tmp_path, capsys, costs):
    # the report would hold Infinity or NaN for a model cost or a speedup
    cfg = base_config(p=8, costs=costs, schedules=[{"seed": 1, "delay_bound": 1}])
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    # random-fair, window 16: 7 others fire at least 1250 times in 20000 events
    assert capsys.readouterr().err == ("config error: config.costs: the cost model leaves "
                                       "the float range at p=8, 8 sweeps and 11250 "
                                       "activations of one worker\n")
    assert not out.exists()


def _no_constant(name):
    raise ValueError(f"report.json holds {name}")


def _some_cost_overflows(config, k_cap, kappa_cap):
    """Whether a cost the run reports leaves the float range at some k in
    1..k_cap sweeps or at kappa_cap activations, by brute force."""
    span = config.ivp.t_final / config.p
    fine, coarse = (PROPAGATOR_RULES[spec.rule](config.ivp, span, spec.steps)
                    for spec in (config.fine, config.coarse))
    params = CostParams(config.p, **config.costs(fine.cost_units, coarse.cost_units))
    costs = [sequential_cost(params), *(sync_cost(params, k) for k in range(1, k_cap + 1)),
             async_cost(params, kappa_cap)]
    if config.p >= 2:
        costs.append(speedup_bound(params))
    return not all(map(math.isfinite, costs))


@settings(deadline=None, max_examples=60)
@given(p=st.integers(1, 8), k_max=st.sampled_from([None, 1, 3]),
       costs=st.fixed_dictionaries({}, optional={
           key: st.floats(0.0, sys.float_info.max)
           for key in ("fine_cost", "coarse_cost", "overhead")}),
       max_events=st.sampled_from([3, 400, 2**31 - 1]),
       policy=st.sampled_from(["round-robin", "random-fair"]))
@example(p=8, k_max=None, costs={"fine_cost": 1, "coarse_cost": 1, "overhead": 5e306},
         max_events=20000, policy="random-fair")
def test_accepted_costs_keep_the_report_finite(p, k_max, costs, max_events, policy):
    # every config that parses writes a report.json of finite numbers only,
    # and a config rejected for its costs does overflow a cost of the model
    cfg = base_config(p=p, k_max=k_max, costs=costs, fine={"rule": "trapezoidal", "steps": 4},
                      schedules=[{"seed": 1, "delay_bound": 1, "max_events": max_events,
                                  "policy": policy}])
    try:
        config = parse_config(cfg)
    except ConfigError as exc:
        if "leaves the float range" in str(exc):
            config = parse_config({**cfg, "costs": {}})
            config.fine_cost, config.coarse_cost, config.overhead = (
                costs.get(key) for key in ("fine_cost", "coarse_cost", "overhead"))
            kappa_cap = config.schedules[0].busiest_bound(p)
            assert _some_cost_overflows(config, min(p, k_max or p), kappa_cap), exc
        return
    with tempfile.TemporaryDirectory() as tmp:
        pintlab.cli.run_experiment(config, tmp)
        json.loads(Path(tmp, "report.json").read_text(encoding="utf-8"),
                   parse_constant=_no_constant)


@pytest.mark.parametrize("problem, p, norm", [
    ({"A": [[9.0]], "c": [0.0], "u0": [1.0], "T": 40.0}, 400, "10"),
    # a near-singular step passes the rank test, as a 1 x 1 matrix always does
    ({"A": [[8.0]], "c": [0.0], "u0": [1.0], "T": 8.0000008}, 64, "1e+07"),
])
def test_overflowing_coarse_power_exits_one(tmp_path, capsys, problem, p, norm):
    cfg = base_config(problem=problem, p=p, fine={"rule": "trapezoidal", "steps": 4})
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.p: coarse norm {norm} to the power p={p} ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("out_name", ["file", "file/sub"])
def test_unusable_output_directory_exits_one(tmp_path, capsys, out_name):
    # --out names an existing file, or a path below one
    (tmp_path / "file").write_text("", encoding="utf-8")
    rc, out = run_cli(tmp_path, base_config(), out_name=out_name)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory: ")
    assert str(out if out_name == "file" else out.parent) in err
    assert err.count("\n") == 1


# ----------------------------------------------------------------- run path

def test_run_writes_artifacts_and_exits_zero(tmp_path):
    rc, out = run_cli(tmp_path, base_config(), extra=["--traces"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = read_summary(out)
    assert report["config"]["label"] == "demo"
    assert report["exit_code"] == 0
    assert report["sync_convergent"]["holds"] is True
    modes = [r["mode"] for r in rows]
    assert modes[0] == "sequential"
    assert "sync" in modes and modes.count("async") == 2
    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert "demo-sync.json" in traces
    assert any(name.startswith("demo-round-robin") for name in traces)


def test_module_entry_point_runs(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "pintlab", "run", "--config",
                           str(write_config(tmp_path, base_config(p=4))), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["exit_code"] == 0


def test_runs_are_byte_deterministic(tmp_path):
    rc1, out1 = run_cli(tmp_path, base_config(), out_name="a")
    rc2, out2 = run_cli(tmp_path, base_config(), out_name="b")
    assert rc1 == rc2 == 0
    for name in ("report.json", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sequential_row_is_reference(tmp_path):
    _, out = run_cli(tmp_path, base_config(schedules=[]))
    rows = read_summary(out)
    seq = [r for r in rows if r["mode"] == "sequential"]
    assert len(seq) == 1
    assert float(seq[0]["error_vs_oracle"]) == 0.0


def test_threshold_iteration_count_monotone_in_epsilon(tmp_path):
    ks = {}
    for eps in (1e-4, 1e-5, 1e-6):
        _, out = run_cli(tmp_path, base_config(epsilon=eps, schedules=[]),
                         out_name=f"out-{eps}")
        sync = [r for r in read_summary(out) if r["mode"] == "sync"][0]
        ks[eps] = int(sync["iterations"])
    assert ks[1e-6] >= ks[1e-5] >= ks[1e-4]
    assert ks[1e-5] == 7


def test_kmax_capped_run_exits_two(tmp_path, capsys):
    cfg = base_config(epsilon=1e-13, k_max=2, schedules=[])
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    sync = [r for r in read_summary(out) if r["mode"] == "sync"][0]
    assert sync["stop_reason"] == "k_max"
    assert capsys.readouterr().err == "warning: stopped before converging: sync (k_max)\n"


def test_horizon_stop_warning_names_its_runs(tmp_path, capsys):
    # only the run whose schedule ran out of events is named, by its tag
    cfg = base_config()
    cfg["schedules"].append({"seed": 3, "delay_bound": 1, "max_events": 5})
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    stops = [r["stop_reason"] for r in read_summary(out)]
    assert stops[-1] == "horizon" and not {"horizon", "k_max"} & set(stops[:-1])
    assert capsys.readouterr().err == (
        "warning: stopped before converging: random-fair/s3/D1 (horizon)\n")
    rc, _ = run_cli(tmp_path, base_config(), out_name="clean")
    assert rc == 0 and capsys.readouterr().err == ""


def test_single_subinterval_schedule_runs_without_speedup(tmp_path):
    # the speedup bound needs p >= 2, so at p = 1 an async run leaves its
    # speedup keys out, as a horizon stop does, instead of crashing the run
    rc, out = run_cli(tmp_path, base_config(p=1))
    assert rc == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    runs = [run for run in report["runs"] if run["mode"] == "async"]
    assert len(runs) == 2
    assert all(not {"speedup_bound", "speedup_achieved"} & set(run) for run in runs)


def test_horizon_stopped_run_writes_its_partial_trace(tmp_path):
    # a run that exhausts max_events still writes the trace it made, one
    # line per event, as jsonl_lines gives it for HorizonExhausted's trace
    cfg = base_config(schedules=[{"seed": 3, "delay_bound": 1, "max_events": 5}])
    rc, out = run_cli(tmp_path, cfg, extra=["--traces"])
    assert rc == 2
    config = parse_config(cfg)
    span = config.ivp.t_final / config.p
    fine, coarse = (PROPAGATOR_RULES[spec.rule](config.ivp, span, spec.steps)
                    for spec in (config.fine, config.coarse))
    with pytest.raises(HorizonExhausted) as info:
        run_async_parareal(coarse, fine, config.ivp.u0, config.p, config.schedules[0],
                           epsilon=config.epsilon)
    trace = info.value.trace
    assert trace.n_events == 5
    written = (out / "traces" / "demo-random-fair-s3-D1.jsonl").read_text(encoding="utf-8")
    assert len(written.splitlines()) == trace.n_events
    assert written == "".join(trace.jsonl_lines())


@pytest.mark.parametrize("overrides, horizon_events, stops", [
    ({}, 5, ["threshold", "stop-predicate", "stop-predicate", "horizon"]),
    ({"epsilon": 0.0, "k_max": 2, "schedules": [{"seed": 1, "delay_bound": 1}]}, None,
     ["k_max", "quiescence"]),
    ({"p": 3}, None, ["exact", "stop-predicate", "stop-predicate"]),
])
def test_summary_rows_are_report_projections(tmp_path, overrides, horizon_events, stops):
    # each summary row after the sequential one says what its run's report
    # entry says, column by column, whatever stopped the run
    cfg = base_config(**overrides)
    if horizon_events is not None:
        cfg["schedules"].append({"seed": 3, "delay_bound": 1, "max_events": horizon_events})
    _, out = run_cli(tmp_path, cfg)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = read_summary(out)
    assert [run["stop_reason"] for run in report["runs"]] == stops
    assert [row["mode"] for row in rows] == ["sequential"] + [r["mode"] for r in report["runs"]]
    shared = {
        "label": report["config"]["label"], "p": report["config"]["p"],
        "sync_factor": report["contraction"]["sync_factor"],
        "async_factor": report["contraction"]["async_factor"],
        "sync_margin": report["sync_convergent"]["margin"],
        "async_margin": report["async_convergent"]["margin"],
    }
    for row, run in zip(rows[1:], report["runs"]):
        want = {**shared, "mode": run["mode"], "model_cost": run["model_cost"],
                "error_vs_oracle": run["error_vs_oracle"], "stop_reason": run["stop_reason"]}
        if run["mode"] == "async":
            sched = run["schedule"]
            want.update(policy=sched["policy"], seed=sched["seed"],
                        delay_bound=sched["delay_bound"], iterations=run["kappa"],
                        events=run["events"])
        else:
            want.update(iterations=run["iterations"])
            # the overhead fit needs k (p - 1) > k (k + 1) / 2; at p <= 3 it can fail
            k, p = run["iterations"], report["config"]["p"]
            assert (row["fitted_overhead"] == "") == (k * (p - 1) <= k * (k + 1) / 2)
        # fitted_overhead is the one column the report does not hold
        for col in SUMMARY_COLUMNS:
            if col != "fitted_overhead":
                assert row[col] == ("" if want.get(col) is None else str(want[col])), \
                    (run["mode"], col)


def test_seed_override_renumbers_schedules(tmp_path):
    cfg = base_config()
    cfg["schedules"][1]["max_events"] = 5000
    rc, out = run_cli(tmp_path, cfg, extra=["--seed-override", "40"])
    assert rc == 0
    rows = [r for r in read_summary(out) if r["mode"] == "async"]
    assert sorted(int(r["seed"]) for r in rows) == [40, 41]
    # only the seed changes; every other schedule field is kept
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    got = [r["schedule"] for r in report["runs"] if r["mode"] == "async"]
    assert got == [{"seed": 40, "delay_bound": 0, "policy": "round-robin",
                    "max_events": 20_000},
                   {"seed": 41, "delay_bound": 2, "policy": "random-fair",
                    "max_events": 5000}]


def test_each_trace_is_freed_before_the_next_schedule_runs(tmp_path, monkeypatch):
    # wrapped as the benchmark tracer wraps it: a module global of pintlab.cli
    # that the engine binding keeps; the first schedule stops at its horizon,
    # so the trace of a HorizonExhausted is checked too
    run = pintlab.cli.run_async_parareal
    refs = []

    def run_and_watch(*args, **kwargs):
        assert [ref() for ref in refs] == [None] * len(refs)
        try:
            trace = run(*args, **kwargs)
        except HorizonExhausted as exc:
            refs.append(weakref.ref(exc.trace))
            raise
        refs.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(pintlab.cli, "run_async_parareal", run_and_watch)
    schedules = [{"seed": 3, "delay_bound": 1, "policy": "random-fair", "max_events": 5},
                 *base_config()["schedules"]]
    rc, _ = run_cli(tmp_path, base_config(schedules=schedules), extra=["--traces"])
    assert rc == 2
    assert len(refs) == 3


CONFIG_PROBLEMS = st.one_of(
    st.builds(lambda n, t: {"name": "heat1d", "n_interior": n, "t_final": t},
              st.integers(1, 4), st.sampled_from([0.1, 0.2])),
    st.builds(lambda rate: {"name": "scalar-decay", "rate": rate, "t_final": 4.0},
              st.sampled_from([0.5, 1.0, 1.5])),
    st.just({"A": [[-1.0, 0.5], [0.0, -2.0]], "c": [0.1, 0.0], "u0": [1.0, 2.0], "T": 2.0}),
)
CONFIG_COSTS = st.fixed_dictionaries({}, optional={"fine_cost": st.sampled_from([0.5, 3]),
                                                   "coarse_cost": st.sampled_from([1, 2.5]),
                                                   "overhead": st.sampled_from([0, 0.25])})
CONFIG_SCHEDULES = st.lists(
    st.builds(lambda seed, d, policy: {"seed": seed, "delay_bound": d, "policy": policy,
                                       "max_events": 400},
              st.integers(0, 9), st.integers(0, 2),
              st.sampled_from(["round-robin", "random-fair"])),
    max_size=2)


@settings(deadline=None, max_examples=40)
@given(problem=CONFIG_PROBLEMS, p=st.integers(1, 6),
       norm=st.sampled_from(["spectral", "infinity"]), k_max=st.sampled_from([None, 2, 10]),
       costs=CONFIG_COSTS, schedules=CONFIG_SCHEDULES)
def test_report_config_reruns_to_the_same_bytes(problem, p, norm, k_max, costs, schedules):
    # the report's "config" echo writes an absent k_max or cost as null, and
    # a run of that echo writes the same report.json and summary.csv
    cfg = base_config(problem=problem, p=p, norm=norm, costs=costs, schedules=schedules,
                      fine={"rule": "trapezoidal", "steps": 4})
    if k_max is not None:
        cfg["k_max"] = k_max
    with tempfile.TemporaryDirectory() as tmp:
        rc, first = run_cli(Path(tmp), cfg, out_name="first")
        echo = json.loads((first / "report.json").read_text(encoding="utf-8"))["config"]
        assert echo["k_max"] == k_max
        assert {key for key, v in echo["costs"].items() if v is None} == (
            {"fine_cost", "coarse_cost", "overhead"} - set(costs))
        assert rc == run_cli(Path(tmp), echo, out_name="again")[0]
        for name in ("report.json", "summary.csv"):
            assert (first / name).read_bytes() == (Path(tmp) / "again" / name).read_bytes()


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, base_config())
    cfg = load_config(path)
    assert cfg.label == "demo"
    assert cfg.p == 8
    assert len(cfg.schedules) == 2


# -------------------------------------------------------------------- table

def test_table_sorting_and_format(tmp_path):
    _, out = run_cli(tmp_path, base_config())
    table_path = tmp_path / "table.csv"
    rc = main(["table", "--in", str(out / "summary.csv"),
               "--out", str(table_path)])
    assert rc == 0
    with open(table_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mode"] for r in rows[:2]] == ["sequential", "sync"]
    assert all(r["mode"] == "async" for r in rows[2:])
    schedules = [r["schedule"] for r in rows]
    assert schedules[0] == schedules[1] == "-"
    assert schedules[2].startswith("random-fair") or \
        schedules[2].startswith("round-robin")
    for row in rows:
        assert re.fullmatch(r"\d\.\d{2}E[+-]\d+", row["error_vs_oracle"])


def test_table_rejects_foreign_csv(tmp_path, capsys):
    alien = tmp_path / "alien.csv"
    alien.write_text("a,b\n1,2\n", encoding="utf-8")
    rc = main(["table", "--in", str(alien), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    capsys.readouterr()
    # every column present, but a value that is no number, a short row whose
    # missing fields read None, and bytes that are not UTF-8
    header = ",".join(SUMMARY_COLUMNS) + "\n"
    fields = {"p": "abc", "mode": "sync", "model_cost": "10", "error_vs_oracle": "0.0"}
    bad_p = ",".join(fields.get(col, "") for col in SUMMARY_COLUMNS)
    for name, content in [("bad_value.csv", (header + bad_p + "\n").encode()),
                          ("short_row.csv", (header + "demo,4,sync\n").encode()),
                          ("latin1.csv", (header + "d\xe9mo,4\n").encode("latin-1"))]:
        path = tmp_path / name
        path.write_bytes(content)
        rc = main(["table", "--in", str(path), "--out", str(tmp_path / "t.csv")])
        assert rc == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err, (name, err)
    absent = tmp_path / "absent.csv"
    assert main(["table", "--in", str(absent), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot read summary '{absent}'")


# Modules a run may leave unloaded: scipy is never needed, hashlib (OpenSSL)
# only by an async JSONL trace, numpy.random (whose secrets import loads
# OpenSSL) never, the async simulator, its event log, its audits and its
# PCG64 stream only by a run with schedules, the table code only by the
# table subcommand, and the reference and theory forms (pintlab.theory) never.
ASYNC_MODULES = ["pintlab._pcg64", "pintlab.async_audit", "pintlab.async_engine",
                 "pintlab.async_log", "pintlab.async_parareal"]
WATCHED = ["hashlib", "numpy.random", "scipy", "pintlab.table", "pintlab.theory",
           *ASYNC_MODULES]

RUN_PROBE = """
from pintlab.cli import main
assert main(["run", "--config", sys.argv[1], "--out", sys.argv[2], *sys.argv[3:]]) == 0
"""


def test_cli_import_leaves_scipy_unloaded():
    assert run_probe("import pintlab.cli") == []


def test_config_compiles_before_numpy_loads():
    # cli imports config ahead of numpy: config.py compiled once numpy had
    # loaded raised sync-p512's peak_rss_mb by 0.10-0.14 MiB
    code = """
import importlib.abc
numpy_loaded = []
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "pintlab.config" and not numpy_loaded:
            numpy_loaded.append("numpy" in sys.modules)
sys.meta_path.insert(0, Probe())
import pintlab.cli
assert numpy_loaded == [False], numpy_loaded
"""
    assert run_probe(code) == []


def test_package_import_loads_no_submodule():
    # exports load their submodule on first use, and a schedule parses
    # without the engine
    code = """
import pintlab
assert [name for name in sys.modules if name.startswith("pintlab.")] == []
from pintlab import AsyncSchedule, run_parareal
from pintlab.config import _parse_schedule
assert _parse_schedule({"seed": 1, "delay_bound": 2}, "s") == AsyncSchedule(1, 2)
"""
    assert run_probe(code) == []


def test_sync_run_leaves_openssl_unloaded(tmp_path):
    # hashlib pulls in OpenSSL, and only an async JSONL trace needs it; a run
    # without schedules is the synchronous baseline and loads no async code
    cfg = write_config(tmp_path, {k: v for k, v in base_config(p=4).items()
                                  if k != "schedules"})
    assert run_probe(RUN_PROBE, cfg, tmp_path / "out", "--traces") == []
    assert list((tmp_path / "out" / "traces").iterdir())


def test_async_run_leaves_numpy_random_and_openssl_unloaded(tmp_path):
    # the schedules draw from pintlab's own PCG64, so numpy.random (whose
    # secrets import loads OpenSSL) stays out of an untraced async run; the
    # async modules it does load show that the probe sees what a run loads
    cfg = write_config(tmp_path, base_config(p=4))
    assert run_probe(RUN_PROBE, cfg, tmp_path / "out") == ASYNC_MODULES
    assert (tmp_path / "out" / "report.json").exists()


def run_probe(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout's src; the WATCHED
    modules loaded when it ends, in WATCHED order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([name for name in {WATCHED!r} if name in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_module_placement_compile_peaks():
    # every process compiles from source each module it loads, and the
    # largest compile peak sets a floor under the run's peak RSS; measured
    # by the probes of scripts/compile_peaks.py (ROADMAP, Module placement)
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("compile_peaks",
                                                  root / "scripts" / "compile_peaks.py")
    peaks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(peaks)
    src = root / "src"
    sync = peaks.loaded_modules(peaks.CONFIG, src)
    async_only = sorted(peaks.loaded_modules({**peaks.CONFIG, "schedules": [peaks.SCHEDULE]},
                                             src) - sync)
    assert async_only == ASYNC_MODULES
    kib = {module: peaks.compile_peak(src / f"{module.replace('.', '/')}.py", src) / 1024
           for module in ["pintlab.analysis", "pintlab.cli", *async_only]}
    # scripts/compile_peaks.py's LIMITS table holds each limit and its comparison
    limits = {module: peaks.LIMITS.get(module) or peaks.LIMITS["async"] for module in kib}
    assert all(compare(kib[module], limit) for module, (compare, limit) in limits.items()), kib


TRACED_RUN = """
import importlib.util, json, sys
from pintlab.cli import parse_config, run_experiment
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
config = parse_config(json.loads(sys.argv[2]))
tracer.span("cli.run_experiment", run_experiment, config, sys.argv[3], True)
print(json.dumps(tracer.per_layer(0)))
"""


def test_benchmark_tracer_names_resolve(tmp_path):
    # the benchmark's per-layer tracer swaps pintlab names for timing wrappers
    # by (module, attribute); a rename under src/ must fail here, not in a
    # traced benchmark run
    root = Path(__file__).resolve().parents[1]
    path = root / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name, (module, attr) in {**tracing.SPANS, **tracing.LEAVES}.items():
        assert callable(getattr(module, attr, None)), (name, module.__name__, attr)
    assert "stop" in inspect.signature(simulate_async).parameters
    # install() also wraps PROPAGATOR_RULES values and BlockVector.copy and
    # reads the traces it counts: one traced run exercises every hook, in a
    # child process because the wrappers stay for the life of the process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(path), json.dumps(base_config(p=4)),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    per_layer = json.loads(proc.stdout)
    # the two update leaves must stay on the hot paths: a sweep or a mapping
    # that stops calling the wrapped parareal_update would read 0 here, and so
    # would an async run that calls the audit, the envelope or the termination
    # scan by a name other than pintlab.cli's module globals; the config's
    # epsilon of 1e-5 makes every event call the wrapped stop predicate
    for name in ("model.fold_s", "async_engine.events", "parareal.sweeps",
                 "async_parareal.eval_s", "parareal.update_s", "async_engine.validate_s",
                 "analysis.envelope_s", "analysis.termination_s",
                 "async_parareal.stop_checks"):
        assert per_layer[name] > 0, name
