"""Acceptance suite: every release gate runs here at its stated tolerance.

Each criterion records one PASS/FAIL line; the collected lines are printed
in the terminal summary (see conftest.py) so a full run reads as a
checklist. Tests still assert, so a FAIL is also a red test.
"""
import json
import time

import numpy as np

from pintlab.analysis import (
    CostParams,
    async_cost,
    async_error_envelope,
    chazan_miranker_check,
    check_finite_termination,
    compare_factors,
    contraction_factors,
    factors_from_norms,
    fit_overhead,
    speedup_bound,
    sync_cost,
)
from pintlab.async_engine import (
    AsyncSchedule,
    linear_relaxation_mapping,
    relaxation_solution,
    simulate_async,
    update_counts,
)
from pintlab.async_parareal import run_async_parareal
from pintlab.cli import main
from pintlab.linalg import NormKind, max_block_norm
from pintlab.model import (
    AffinePropagator,
    backward_euler_propagator,
    heat1d_system,
    scalar_decay_system,
    trapezoidal_propagator,
)
from pintlab.parareal import (
    STOP_THRESHOLD,
    build_parareal_system,
    coarse_init,
    parareal_iterate,
    run_parareal,
    sequential_fine_solve,
)
from pintlab.schedule import POLICY_ADVERSARIAL, POLICY_RANDOM_FAIR, POLICY_ROUND_ROBIN

from helpers import nth_iterate

HEAT_SPAN = 0.2
RESULTS: list[tuple[int, bool, str]] = []


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    RESULTS.append((num, ok, detail))


def heat_setup(n: int):
    ivp = heat1d_system(n_interior=n, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0,
                        t_final=HEAT_SPAN)
    coarse = backward_euler_propagator(ivp, HEAT_SPAN, 1)
    fine = trapezoidal_propagator(ivp, HEAT_SPAN, 100)
    return ivp, coarse, fine


def scalar_setup():
    ivp = scalar_decay_system(rate=1.0, t_final=8.0)
    span = ivp.t_final / 8
    return ivp, backward_euler_propagator(ivp, span, 1), \
        trapezoidal_propagator(ivp, span, 25)


def suite_layout(seed: int) -> tuple[int, int, int]:
    """Deterministic (n, delay_bound, p) assignment for seeds 1..20 covering
    both system sizes, D in {1,2,3}, and p in {2..8}."""
    n = 4 if seed % 2 == 1 else 8
    delay_bound = (seed - 1) % 3 + 1
    p = 2 + (seed - 1) % 7
    return n, delay_bound, p


def test_01_sync_finite_termination():
    # p corrected sweeps must reproduce the sequential fine solution to
    # relative 1e-12 on both heat sizes, for every p in 2..8, within 1 s
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for n in (4, 8):
        ivp, coarse, fine = heat_setup(n)
        assert fine.cost_units / coarse.cost_units == 100.0
        for p in range(2, 9):
            oracle = sequential_fine_solve(fine, ivp.u0, p)
            trace = run_parareal(coarse, fine, ivp.u0, p, 0.0)
            gap = np.max(np.abs(trace.final.data - oracle.data)
                         / np.abs(oracle.data))
            worst = max(worst, gap)
            if trace.k_final != p or gap > 1e-12:
                failures.append((n, p, trace.k_final, gap))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _record(1, ok, f"sync exact termination: 14 runs, worst rel gap "
                   f"{worst:.1e}, {elapsed:.2f}s")
    assert ok, (failures, elapsed)


def test_02_async_exact_quiescence():
    # 20 fair random schedules, quiescence-only stop: each must land on the
    # sequential oracle (rel 1e-12; observed bitwise) with a finite match
    # index, all within 5 s
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for seed in range(1, 21):
        n, delay_bound, p = suite_layout(seed)
        ivp, coarse, fine = heat_setup(n)
        oracle = sequential_fine_solve(fine, ivp.u0, p)
        sched = AsyncSchedule(seed=seed, delay_bound=delay_bound,
                              policy=POLICY_RANDOM_FAIR)
        trace = run_async_parareal(coarse, fine, ivp.u0, p, sched)
        final = trace.state_after(len(trace.events) - 1)
        rel = np.max(np.abs(final.data - oracle.data) / np.abs(oracle.data))
        worst = max(worst, rel)
        idx = check_finite_termination(trace, oracle)
        if rel > 1e-12 or idx is None:
            failures.append((seed, rel, idx))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _record(2, ok, f"async exact quiescence: 20 schedules, worst rel error "
                   f"{worst:.1e}, {elapsed:.2f}s")
    assert ok, (failures, elapsed)


def test_03_sync_error_contraction_bound():
    # iterate error must sit under factor**k times the initial error at
    # every sweep, slack 1 + 1e-10; checked in both norms plus the mixed
    # pairing (spectral factor against max-abs error) on systems whose
    # coarse spectral norm is below one
    cases = []
    for n in (4, 8):
        ivp, coarse, fine = heat_setup(n)
        cases.append((f"heat-{n}", coarse, fine, ivp.u0, 8))
    ivp, coarse, fine = scalar_setup()
    cases.append(("scalar-decay", coarse, fine, ivp.u0, 8))
    literal = (AffinePropagator(np.array([[0.8]]), np.zeros(1), 1.0),
               AffinePropagator(np.array([[0.77880]]), np.zeros(1), 25.0))
    cases.append(("literal-scalar", literal[0], literal[1], [1.0], 4))

    slack = 1.0 + 1e-10
    failures = []
    worst = 0.0
    for label, coarse, fine, u0, p in cases:
        spectral = contraction_factors(coarse, fine, p, kind=NormKind.SPECTRAL)
        assert spectral.coarse_norm < 1.0, label
        oracle = sequential_fine_solve(fine, u0, p)
        trace = run_parareal(coarse, fine, u0, p, 0.0)
        iterates = [nth_iterate(coarse, fine, u0, p, j)
                    for j in range(trace.k_final + 1)]
        pairings = [(kind, contraction_factors(coarse, fine, p, kind=kind), kind)
                    for kind in NormKind]
        pairings.append(("mixed", spectral, NormKind.INFINITY))
        for tag, report, err_kind in pairings:
            errors = [max_block_norm(it - oracle, err_kind)
                      for it in iterates]
            for k, e_k in enumerate(errors):
                bound = report.sync_factor ** k * errors[0]
                if e_k > bound * slack:
                    failures.append((label, tag, k, e_k, bound))
                if bound > 0.0:
                    worst = max(worst, e_k / bound)
    ok = not failures
    _record(3, ok, f"sync contraction bound: 4 systems x 3 pairings, worst "
                   f"error/bound ratio {worst:.6f}")
    assert ok, failures


def test_04_staleness_envelope_bound():
    # per-event depth envelope must dominate the measured error on every
    # trace, including maximally stale adversarial schedules, slack 1+1e-10
    slack = 1.0 + 1e-10
    failures = []
    worst = 0.0
    n_traces = 0
    for n in (4, 8):
        ivp, coarse, fine = heat_setup(n)
        p = 5
        oracle = sequential_fine_solve(fine, ivp.u0, p)
        schedules = [
            AsyncSchedule(seed=11, delay_bound=2, policy=POLICY_RANDOM_FAIR),
            AsyncSchedule(seed=0, delay_bound=0, policy=POLICY_ROUND_ROBIN),
        ]
        schedules += [AsyncSchedule(seed=0, delay_bound=d,
                                    policy=POLICY_ADVERSARIAL)
                      for d in (1, 2, 3)]
        for sched in schedules:
            trace = run_async_parareal(coarse, fine, ivp.u0, p, sched)
            n_traces += 1
            for kind in NormKind:
                report = contraction_factors(coarse, fine, p, kind=kind)
                _, bounds, _ = async_error_envelope(trace, report, oracle)
                measured = [max_block_norm(trace.initial - oracle, kind)]
                measured += [max_block_norm(trace.state_after(i) - oracle, kind)
                             for i in range(len(trace.events))]
                for idx, (m, b) in enumerate(zip(measured, bounds)):
                    if m > b * slack:
                        failures.append((n, sched.policy, sched.seed,
                                         sched.delay_bound, kind.value, idx))
                    if b > 0.0:
                        worst = max(worst, m / b)
    ok = not failures
    _record(4, ok, f"staleness envelope: {n_traces} traces x 2 norms, worst "
                   f"error/bound ratio {worst:.6f}")
    assert ok, failures[:10]


def test_05_factor_ordering_random_sample():
    # over 1000 random admissible norm pairs the synchronous factor must be
    # strictly below the asynchronous one, with zero exceptions
    rng = np.random.default_rng(2024)
    exceptions = 0
    min_gap = np.inf
    for _ in range(1000):
        coarse_norm = rng.uniform(0.0, 1.0)
        defect_norm = rng.uniform(0.0, 1.0 - coarse_norm)
        p = int(rng.integers(2, 65))
        report = factors_from_norms(coarse_norm, defect_norm, p)
        cmp = compare_factors(report)
        if not (cmp.applicable and report.sync_factor < report.async_factor):
            exceptions += 1
        else:
            min_gap = min(min_gap, cmp.gap)
    ok = exceptions == 0
    _record(5, ok, f"factor ordering: 1000 admissible samples, "
                   f"{exceptions} exceptions, smallest gap {min_gap:.3e}")
    assert ok


def test_06_nilpotent_iteration_matrix():
    # the preconditioned block iteration matrix is strictly lower block
    # triangular, so its (p+1)-th power must vanish to 1e-10 in max-abs for
    # every p <= 6 and state dimension <= 8; one corrected sweep must match
    # one Richardson step to 1e-12
    failures = []
    worst_power = 0.0
    for d in range(1, 9):
        ivp, coarse, fine = heat_setup(d)
        for p in range(1, 7):
            system = build_parareal_system(coarse, fine, ivp.u0, p)
            power = np.linalg.matrix_power(system.iteration_matrix(), p + 1)
            m = float(np.max(np.abs(power)))
            worst_power = max(worst_power, m)
            if m > 1e-10:
                failures.append(("power", d, p, m))

    worst_match = 0.0
    for d, p in ((4, 6), (8, 4)):
        ivp, coarse, fine = heat_setup(d)
        system = build_parareal_system(coarse, fine, ivp.u0, p)
        lam_sweep = coarse_init(coarse, ivp.u0, p)
        lam_rich = lam_sweep.copy()
        scale = float(np.max(np.abs(lam_sweep.data)))
        for _ in range(3):
            lam_sweep = parareal_iterate(coarse, fine, lam_sweep)
            lam_rich = system.richardson_step(lam_rich)
            gap = float(np.max(np.abs(lam_sweep.data - lam_rich.data))) / scale
            worst_match = max(worst_match, gap)
            if gap > 1e-12:
                failures.append(("richardson", d, p, gap))
    ok = not failures
    _record(6, ok, f"nilpotent block iteration: 48 powers (max {worst_power:.1e}), "
                   f"Richardson match (max {worst_match:.1e})")
    assert ok, failures


def test_07_cost_model_reference_numbers():
    ref = dict(p=16, fine_cost=14.0, coarse_cost=0.14, overhead=1.53)
    sync_total = sync_cost(CostParams(k=10, **ref))
    async_total = async_cost(CostParams(kappa=24, **ref))
    bound = speedup_bound(CostParams(**ref)).bound
    fitted = fit_overhead(sync_total, 16, 10, 14.0, 0.14)
    measured_wall = 337.0  # hardware total this activation model approximates
    checks = {
        "sync 288.99": abs(sync_total - 288.99) <= 1e-9,
        "async 341.60": abs(async_total - 341.60) <= 1e-9,
        "within 2% of wall 337": abs(async_total - measured_wall)
                                 / measured_wall < 0.02,
        "speedup 2.515": abs(bound - 2.515) <= 1e-3,
        "fit exact": fitted == 1.53,
    }
    ok = all(checks.values())
    _record(7, ok, f"cost model: sync {sync_total:.2f}, async {async_total:.2f} "
                   f"({abs(async_total - 337.0) / 3.37:.2f}% off wall), "
                   f"bound {bound:.4f}, refit {fitted!r}")
    assert ok, checks


def test_08_zero_delay_bitwise_reduction():
    # a cyclic zero-staleness schedule is the synchronous sweep: states at
    # cycle boundaries must agree bitwise and the busiest-worker activation
    # count must equal the sweep count
    ivp, coarse, fine = scalar_setup()
    p = 8
    epsilon = 1e-5
    sync = run_parareal(coarse, fine, ivp.u0, p, epsilon)
    sched = AsyncSchedule(seed=0, delay_bound=0, policy=POLICY_ROUND_ROBIN)
    trace = run_async_parareal(coarse, fine, ivp.u0, p, sched, epsilon=epsilon)
    _, kappa = update_counts(trace)
    bitwise = all(
        np.array_equal(trace.state_after(cycle * p + p - 1).data,
                       nth_iterate(coarse, fine, ivp.u0, p, cycle + 1).data)
        for cycle in range(sync.k_final)
    )
    ok = (sync.stop_reason == STOP_THRESHOLD and kappa == sync.k_final
          and bitwise)
    _record(8, ok, f"zero-delay reduction: k={sync.k_final}, kappa={kappa}, "
                   f"cycle states bitwise equal: {bitwise}")
    assert ok


def test_09_async_activation_counts():
    # at a 1e-6 threshold the busiest asynchronous worker can never finish
    # in fewer activations than the synchronous sweep count; the ratio is
    # reported for context, not bounded (it depends on the delay schedule)
    epsilon = 1e-6
    ratios = []
    failures = []
    for seed in range(1, 21):
        n, delay_bound, p = suite_layout(seed)
        ivp, coarse, fine = heat_setup(n)
        sync = run_parareal(coarse, fine, ivp.u0, p, epsilon)
        sched = AsyncSchedule(seed=seed, delay_bound=delay_bound,
                              policy=POLICY_RANDOM_FAIR)
        trace = run_async_parareal(coarse, fine, ivp.u0, p, sched,
                                   epsilon=epsilon)
        _, kappa = update_counts(trace)
        ratios.append(kappa / sync.k_final)
        if kappa < sync.k_final:
            failures.append((seed, kappa, sync.k_final))
    ok = not failures
    _record(9, ok, f"activation counts: kappa >= k in 20/20 runs; kappa/k "
                   f"min {min(ratios):.2f} mean {float(np.mean(ratios)):.2f} "
                   f"max {max(ratios):.2f} (reported only)")
    assert ok, failures


def test_10_relaxation_radius_criterion():
    # the absolute-iteration-matrix radius of the diagonally dominant 2x2
    # splitting is exactly one half, and every fair bounded-staleness run of
    # the relaxation demo must converge because the radius is below one
    a_mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    m_mat = np.diag([2.0, 2.0])
    rhs = np.array([1.0, 2.0])
    holds, margin = chazan_miranker_check(a_mat, m_mat)
    radius_ok = holds and abs(margin - 0.5) <= 1e-12

    mapping, init = linear_relaxation_mapping(a_mat, np.diag(m_mat), rhs)
    x_star = relaxation_solution(a_mat, rhs)
    worst = 0.0
    failures = []
    for seed in range(1, 21):
        _, delay_bound, _ = suite_layout(seed)
        sched = AsyncSchedule(seed=seed, delay_bound=delay_bound)
        trace = simulate_async(mapping, init, sched, stop=None)
        final = trace.state_after(len(trace.events) - 1)
        err = float(np.max(np.abs(final.data[1:, 0] - x_star)))
        worst = max(worst, err)
        if err > 1e-12:
            failures.append((seed, err))
    ok = radius_ok and not failures
    _record(10, ok, f"relaxation criterion: radius margin {margin!r}, 20 "
                    f"runs converged, worst error {worst:.1e}")
    assert ok, (radius_ok, failures)


def test_11_cli_byte_determinism(tmp_path):
    cfg = {
        "label": "determinism",
        "problem": {"name": "scalar-decay", "rate": 1.0, "t_final": 8.0},
        "p": 8,
        "fine": {"rule": "trapezoidal", "steps": 25},
        "coarse": {"rule": "backward-euler", "steps": 1},
        "epsilon": 1e-5,
        "schedules": [
            {"seed": 1, "delay_bound": 0, "policy": "round-robin"},
            {"seed": 2, "delay_bound": 2, "policy": "random-fair"},
            {"seed": 3, "delay_bound": 1, "policy": "adversarial-stale"},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--traces"])
        assert rc == 0
        rc = main(["table", "--in", str(out / "summary.csv"),
                   "--out", str(out / "table.csv")])
        assert rc == 0
        outs.append(out)
    a_files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                     if p.is_file())
    b_files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                     if p.is_file())
    same_names = a_files == b_files
    diffs = [str(rel) for rel in a_files
             if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]
    ok = same_names and not diffs
    _record(11, ok, f"CLI determinism: {len(a_files)} files byte-identical "
                    f"across two runs")
    assert ok, (same_names, diffs)
