"""Contraction factors, convergence checks, staleness envelope, termination
detection, and the solve-unit cost model."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pintlab.analysis import (
    CheckResult,
    CostParams,
    async_convergence_check,
    async_cost,
    async_error_envelope,
    asymptotic_speedups,
    chazan_miranker_check,
    check_finite_termination,
    compare_factors,
    contraction_factors,
    factors_from_norms,
    fit_overhead,
    sequential_cost,
    speedup_bound,
    sync_convergence_check,
    sync_cost,
)
from pintlab.async_engine import (
    CHUNK_ROWS,
    AsyncSchedule,
    AsyncTrace,
    UpdateRecord,
)
from pintlab.async_parareal import run_async_parareal
from pintlab.errors import (
    DimensionError,
    EnvelopeUndefinedError,
    InvalidThetaError,
    UndefinedLimitError,
    UnfittableError,
)
from pintlab.linalg import BlockVector, NormKind, max_block_norm
from pintlab.model import backward_euler_propagator, heat1d_system, trapezoidal_propagator
from pintlab.parareal import run_parareal, sequential_fine_solve
from pintlab.schedule import POLICIES, POLICY_ADVERSARIAL

from helpers import replay_envelope, scan_finite_termination, state_errors

# ------------------------------------------------------- contraction factors

def test_worked_scalar_factors():
    r = factors_from_norms(0.8, 0.0212, p=4)
    assert r.theta == 0.8
    assert r.sync_factor == pytest.approx((1 - 0.8 ** 4) / 0.2 * 0.0212, rel=1e-12)
    assert r.sync_factor == pytest.approx(0.0625824, rel=1e-9)
    assert r.sync_factor == pytest.approx(0.06258, abs=5e-6)  # quoted rounding
    assert r.async_factor == pytest.approx(0.8212, rel=1e-12)


def test_worked_scalar_checks_and_gap():
    r = factors_from_norms(0.8, 0.0212, p=4)
    sync = sync_convergence_check(r)
    assert sync.holds
    rhs = 1.0 + 0.8 ** 4 * 0.0212
    assert sync.margin == pytest.approx(min(0.2, rhs - 0.8212), rel=1e-12)
    asyn = async_convergence_check(r)
    assert asyn.holds
    assert asyn.margin == pytest.approx(0.17880, rel=1e-9)
    cmp = compare_factors(r)
    assert cmp.applicable
    assert cmp.gap == pytest.approx(0.7586176, rel=1e-9)
    assert cmp.gap == pytest.approx(0.75862, abs=5e-6)
    assert cmp.sync_factor < cmp.async_factor


def test_factors_from_live_propagators(literal_scalar_pair):
    coarse, fine = literal_scalar_pair
    r = contraction_factors(coarse, fine, 4)
    assert r.coarse_norm == pytest.approx(0.8, rel=1e-12)
    assert r.defect_norm == pytest.approx(0.0212, rel=1e-12)
    assert r.sync_factor == pytest.approx(0.0625824, rel=1e-9)


def test_theta_one_limit():
    assert factors_from_norms(0.8, 0.0212, p=4, theta=1.0).sync_factor \
        == pytest.approx(4 * 0.0212, rel=1e-12)
    # coarse norm exactly one triggers the same limit by default
    assert factors_from_norms(1.0, 0.1, p=3).sync_factor == pytest.approx(0.3)


def test_theta_below_coarse_norm_rejected():
    with pytest.raises(InvalidThetaError):
        factors_from_norms(0.8, 0.0212, p=4, theta=0.5)
    with pytest.raises(ValueError):
        factors_from_norms(-0.1, 0.0212, p=4)
    with pytest.raises(ValueError):
        factors_from_norms(0.8, 0.0212, p=0)


def test_compare_factors_preconditions():
    inflated = factors_from_norms(0.8, 0.0212, p=4, theta=0.9)
    with pytest.raises(ValueError):
        compare_factors(inflated)
    divergent = factors_from_norms(0.9, 0.3, p=4)
    cmp = compare_factors(divergent)
    assert not cmp.applicable
    assert cmp.gap is None


def test_divergent_coarse_fails_both_checks():
    r = factors_from_norms(1.1, 0.05, p=4)
    assert not sync_convergence_check(r).holds
    assert not async_convergence_check(r).holds


@settings(deadline=None, max_examples=300)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1e6),
       st.integers(min_value=1, max_value=10_000))
def test_convergence_checks_asymptotically_equivalent(coarse, defect, p):
    # the sync condition is the async one plus the slack coarse^p * defect:
    # weaker at every p, and equal once that slack rounds away against 1
    r = factors_from_norms(coarse, defect, p)
    sync, asyn = sync_convergence_check(r), async_convergence_check(r)
    assert sync.margin >= asyn.margin
    if asyn.holds:
        assert sync.holds
    if coarse ** p * defect < 1e-17:
        assert sync.margin == asyn.margin


def test_sync_condition_weaker_at_finite_p():
    r = factors_from_norms(0.5, 0.6, p=1)
    assert sync_convergence_check(r).holds
    assert not async_convergence_check(r).holds


def test_check_result_is_tuple():
    res = CheckResult(True, 0.25)
    holds, margin = res
    assert holds and margin == 0.25 and res.holds and res.margin == 0.25


# ---------------------------------------------------------------- envelope

def _envelope_event(comp, fresh_version, remembered_version):
    reads = ((comp - 1, 1, fresh_version), (comp - 1, 2, remembered_version))
    return UpdateRecord(component=comp, reads=reads, delta=0.0)


def _envelope_trace(events, p):
    return AsyncTrace.from_records(
        events, [np.zeros(1) for _ in events],
        initial=BlockVector(np.zeros((p + 1, 1))), stop_reason="quiescence",
        schedule=AsyncSchedule(seed=0, delay_bound=0),
        persistent_slots={2: 1},
    )


def test_envelope_depths_hand_trace():
    # three zero-staleness sweeps over p=3: the depth floor climbs one per
    # completed sweep and saturates on the third
    events = []
    fresh = {1: 0, 2: 0, 3: 0}   # last fresh version each component consumed
    latest = {0: 0, 1: 0, 2: 0, 3: 0}
    for _sweep in range(3):
        for comp in (1, 2, 3):
            events.append(_envelope_event(comp, latest[comp - 1], fresh[comp]))
            fresh[comp] = latest[comp - 1]
            latest[comp] += 1
    trace = _envelope_trace(events, 3)
    report = factors_from_norms(0.3, 0.2, p=3, kind=NormKind.INFINITY)
    fixed = BlockVector(np.array([[0.0], [1.0], [0.0], [0.0]]))
    depths, bounds, _ = async_error_envelope(trace, report, fixed)
    assert list(depths) == [0, 0, 0, 1, 1, 1, 2, 2, 2, math.inf]
    assert list(bounds) == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5,
                            0.25, 0.25, 0.25, 0.0]


def test_envelope_stale_read_lowers_global_depth():
    # p=4: component 4 climbs to depth 3 above the minimum 2 of component 3,
    # then a stale read of component 3's version 0 (depth 0) drops it to 1,
    # below that minimum, which must follow it down
    events = [
        _envelope_event(1, 0, 0),   # reads only the pinned source: depth inf
        _envelope_event(2, 1, 0),   # min(inf, 0) + 1 = 1
        _envelope_event(3, 1, 0),   # min(1, 0) + 1 = 1
        _envelope_event(4, 1, 0),   # 1; every live component is past 0
        _envelope_event(2, 1, 1),   # inf
        _envelope_event(3, 2, 1),   # min(inf, 1) + 1 = 2
        _envelope_event(4, 2, 1),   # min(2, 1) + 1 = 2; global rises to 2
        _envelope_event(4, 2, 2),   # 3, above the minimum
        _envelope_event(4, 0, 2),   # stale: min(0, 2) + 1 = 1; global falls to 1
        _envelope_event(3, 2, 2),   # inf
        _envelope_event(4, 3, 3),   # inf everywhere
    ]
    trace = _envelope_trace(events, 4)
    report = factors_from_norms(0.3, 0.2, p=4, kind=NormKind.INFINITY)
    fixed = BlockVector(np.array([[0.0], [1.0], [0.0], [0.0], [0.0]]))
    depths, bounds, _ = async_error_envelope(trace, report, fixed)
    assert list(depths) == [0, 0, 0, 0, 1, 1, 1, 2, 2, 1, 1, math.inf]
    assert list(bounds) == [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.25, 0.5, 0.5, 0.0]
    want = replay_envelope(trace, report, fixed)
    assert depths.tobytes() == want[0].tobytes() and bounds.tobytes() == want[1].tobytes()


def test_envelope_undefined_when_factor_too_large(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, 3,
                               AsyncSchedule(seed=1, delay_bound=1))
    report = factors_from_norms(0.9, 0.3, p=3)
    with pytest.raises(EnvelopeUndefinedError):
        async_error_envelope(trace, report, trace.initial)


@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.SPECTRAL])
def test_envelope_dominates_measured_error(heat_setups, kind):
    ivp, coarse, fine = heat_setups[4]
    p = 5
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=3, delay_bound=2))
    report = contraction_factors(coarse, fine, p, kind=kind)
    fixed = sequential_fine_solve(fine, ivp.u0, p)
    depths, bounds, _ = async_error_envelope(trace, report, fixed)
    assert len(bounds) == len(trace.events) + 1
    assert bounds[-1] == 0.0
    measured = [max_block_norm(trace.initial - fixed, kind)]
    for idx in range(len(trace.events)):
        measured.append(max_block_norm(trace.state_after(idx) - fixed, kind))
    for m, b in zip(measured, bounds):
        assert m <= b * (1.0 + 1e-10)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**16),
       st.sampled_from([NormKind.INFINITY, NormKind.SPECTRAL]), st.data())
def test_envelope_matches_version_replay(heat_setups, policy, delay_bound, p, seed,
                                         kind, data):
    # the per-component depth tables give the version-counter replay's
    # depths and bounds bit for bit, and still reject a read of a version
    # the source never produced, negative ones included
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    report = contraction_factors(coarse, fine, p, kind=kind)
    fixed = sequential_fine_solve(fine, ivp.u0, p)
    got = async_error_envelope(trace, report, fixed)[:2]
    want = replay_envelope(trace, report, fixed)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    # the tampered record keeps its component's (source, slot) pattern:
    # from_records rejects any other before the envelope sees it
    at = data.draw(st.integers(0, len(trace.events)))
    comp = data.draw(st.integers(1, p))
    reached = sum(ev.component == comp - 1 for ev in trace.events[:at])
    version = data.draw(st.sampled_from([-1, reached + 1]))
    bad = UpdateRecord(component=comp, reads=((comp - 1, 1, 0), (comp - 1, 2, version)),
                       delta=0.0)
    tampered = AsyncTrace.from_records(
        trace.events[:at] + [bad] + trace.events[at:],
        trace.values[:at] + [trace.values[0]] + trace.values[at:],
        initial=trace.initial, schedule=trace.schedule,
        persistent_slots=trace.persistent_slots)
    for envelope in (async_error_envelope, replay_envelope):
        with pytest.raises(KeyError):
            envelope(tampered, report, fixed)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16),
       st.sampled_from([NormKind.INFINITY, NormKind.SPECTRAL]))
def test_envelope_errors_match_state_norms(heat_setups, policy, delay_bound, p, seed,
                                           kind):
    # the error kept per block gives the whole-state norm of every state,
    # byte for byte: same kernel, same bits, whichever batch a row sits in
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    report = contraction_factors(coarse, fine, p, kind=kind)
    fixed = sequential_fine_solve(fine, ivp.u0, p)
    errors = async_error_envelope(trace, report, fixed)[2]
    want = state_errors(trace, fixed, kind)
    assert errors.dtype == want.dtype and errors.tobytes() == want.tobytes()


def test_envelope_errors_across_chunk_boundaries():
    # four full chunks and three rows, so the walk crosses four seams;
    # random values move the largest block error up and down
    dim = 5
    p, n_events = 3, 4 * CHUNK_ROWS + 3
    rng = np.random.default_rng(7)
    events = [UpdateRecord(component=int(c), reads=(), delta=0.0)
              for c in rng.integers(1, p + 1, size=n_events)]
    trace = AsyncTrace.from_records(
        events, rng.standard_normal((n_events, dim)) * rng.uniform(0.5, 2.0, (n_events, 1)),
        initial=BlockVector(rng.standard_normal((p + 1, dim))),
        schedule=AsyncSchedule(seed=0, delay_bound=0))
    assert [len(rows) for _, rows in trace.value_blocks()] == [CHUNK_ROWS] * 4 + [3]
    fixed = BlockVector(rng.standard_normal((p + 1, dim)))
    for kind in NormKind:
        report = factors_from_norms(0.3, 0.2, p=p, kind=kind)
        errors = async_error_envelope(trace, report, fixed)[2]
        assert errors.tobytes() == state_errors(trace, fixed, kind).tobytes()


# ---------------------------------------------------- termination detection

def test_finite_termination_sync(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    p = 4
    reference = sequential_fine_solve(fine, ivp.u0, p)
    trace = run_parareal(coarse, fine, ivp.u0, p, 0.0, reference=reference)
    assert trace.finite_termination_index == p
    unreachable = BlockVector(np.full_like(reference.data, 1e6))
    trace = run_parareal(coarse, fine, ivp.u0, p, 0.0, reference=unreachable)
    assert trace.finite_termination_index is None
    assert run_parareal(coarse, fine, ivp.u0, p, 0.0).finite_termination_index is None


def test_finite_termination_async(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    p = 4
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=4, delay_bound=1))
    reference = sequential_fine_solve(fine, ivp.u0, p)
    idx = check_finite_termination(trace, reference)
    assert idx is not None
    assert 0 < idx <= len(trace.events)
    # the index counts events, and it is the first state that matches
    match = lambda state: np.allclose(state.data, reference.data, rtol=1e-12, atol=0.0)
    assert match(trace.state_after(idx - 1))
    assert not match(trace.state_after(idx - 2))
    # a reference is a state: p + 1 blocks of the trace's block dimension
    for shape in [(p, reference.block_dim), (p + 1, reference.block_dim + 1)]:
        with pytest.raises(DimensionError, match="reference of shape"):
            check_finite_termination(trace, BlockVector(np.zeros(shape)))


def _mixed_reference(trace, times, scale):
    """Block c of the state after event times[c], scaled by 1 + scale."""
    blocks = [trace.state_after(t)[c] for c, t in enumerate(times)]
    return BlockVector(np.stack(blocks) * (1.0 + scale))


SCALES = [0.0, 0.5e-12, 1e-12, 1.5e-12, 1e-9]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16),
       st.data())
def test_finite_termination_matches_state_scan(heat_setups, policy, delay_bound, p,
                                               seed, data):
    # per-block flags and a mismatch count give the index of the per-state
    # scan: for the oracle, for intermediate states at or just around the
    # relative-1e-12 boundary, and for references whose blocks come from
    # different events, so blocks match and then stop matching
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    assert check_finite_termination(trace, oracle) == scan_finite_termination(trace, oracle)
    n = len(trace.events)
    times = data.draw(st.one_of(
        st.integers(-1, n - 1).map(lambda t: [t] * (p + 1)),
        st.lists(st.integers(-1, n - 1), min_size=p + 1, max_size=p + 1)))
    reference = _mixed_reference(trace, times, data.draw(st.sampled_from(SCALES)))
    assert (check_finite_termination(trace, reference)
            == scan_finite_termination(trace, reference))


def test_finite_termination_on_a_long_trace():
    # 1,585 events: the scan crosses many of its row runs
    p = dim = 16
    ivp = heat1d_system(n_interior=dim, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=0.2 * p)
    coarse = backward_euler_propagator(ivp, 0.2, 1)
    fine = trapezoidal_propagator(ivp, 0.2, 20)
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=1, delay_bound=3,
                                             policy=POLICY_ADVERSARIAL))
    n = len(trace.events)
    assert n > 1000
    rng = np.random.default_rng(3)
    references = [sequential_fine_solve(fine, ivp.u0, p)]
    for t in (-1, 0, 255, 256, 511, 700, n - 1):
        references.append(_mixed_reference(trace, [t] * (p + 1), 0.0))
    for _ in range(6):
        times = rng.integers(-1, n, size=p + 1)
        references.append(_mixed_reference(trace, times, 0.0))
    for reference in references:
        assert (check_finite_termination(trace, reference)
                == scan_finite_termination(trace, reference))


def test_chazan_miranker_frozen():
    holds, margin = chazan_miranker_check([[2.0, 1.0], [1.0, 2.0]],
                                          [[2.0, 0.0], [0.0, 2.0]])
    assert holds
    assert margin == pytest.approx(0.5, abs=1e-12)
    holds, margin = chazan_miranker_check([[1.0, 2.0], [2.0, 1.0]],
                                          np.eye(2))
    assert not holds
    assert margin == pytest.approx(-1.0, abs=1e-10)


# ------------------------------------------------------------- cost model

REF = dict(p=16, fine_cost=14.0, coarse_cost=0.14, overhead=1.53)


def test_reference_cost_numbers():
    params = CostParams(k=10, kappa=10, **REF)
    assert sequential_cost(params) == pytest.approx(224.0, rel=1e-12)
    assert sync_cost(params) == pytest.approx(288.99, abs=1e-9)
    assert async_cost(params) == pytest.approx(143.64, abs=1e-9)
    kappa24 = CostParams(k=10, kappa=24, **REF)
    assert async_cost(kappa24) == pytest.approx(341.60, abs=1e-9)


def test_speedup_bound_numbers():
    params = CostParams(k=10, kappa=10, **REF)
    report = speedup_bound(params)
    assert report.bound == pytest.approx(1.0 + 14 * 1.53 / 14.14, rel=1e-12)
    assert report.bound == pytest.approx(2.5148514851485148, abs=1e-3)
    assert report.achieved == pytest.approx(288.99 / 143.64, rel=1e-12)
    assert report.achieved <= report.bound
    bare = speedup_bound(CostParams(**REF))
    assert bare.achieved is None


def test_asymptotic_limits():
    params = CostParams(k=10, **REF)
    sync_lim, async_lim, cross_lim = asymptotic_speedups(params)
    assert sync_lim == pytest.approx(14.0 / (0.14 + 15.3), rel=1e-12)
    assert async_lim == pytest.approx(100.0, rel=1e-12)
    assert cross_lim == pytest.approx(1.0 + 15.3 / 0.14, rel=1e-12)
    with pytest.raises(UndefinedLimitError):
        asymptotic_speedups(CostParams(p=4, fine_cost=1.0, coarse_cost=0.0, k=2))


def test_fit_overhead_round_trip_frozen():
    total = sync_cost(CostParams(k=10, **REF))
    assert fit_overhead(total, 16, 10, 14.0, 0.14) == pytest.approx(1.53, rel=1e-12)


def test_fit_overhead_edges():
    with pytest.raises(UnfittableError):
        fit_overhead(100.0, 16, 0, 14.0, 0.14)
    with pytest.raises(UnfittableError):
        # k = p makes the parenthesized cascade term vanish identically
        fit_overhead(100.0, 3, 3, 14.0, 0.14)
    assert fit_overhead(0.0, 16, 10, 14.0, 0.14) == 0.0  # floored


def test_cost_model_edges():
    params = CostParams(p=4, fine_cost=2.0, coarse_cost=0.5, overhead=1.0, k=0)
    assert sync_cost(params) == pytest.approx(2.0)  # initialization only
    with pytest.raises(ValueError):
        sync_cost(CostParams(p=4, fine_cost=2.0, coarse_cost=0.5))
    with pytest.raises(ValueError):
        sync_cost(CostParams(p=4, fine_cost=2.0, coarse_cost=0.5, k=5))
    with pytest.raises(ValueError):
        async_cost(CostParams(p=4, fine_cost=2.0, coarse_cost=0.5))
    with pytest.raises(ValueError):
        speedup_bound(CostParams(p=1, fine_cost=2.0, coarse_cost=0.5))
    with pytest.raises(UndefinedLimitError):
        speedup_bound(CostParams(p=4, fine_cost=0.0, coarse_cost=0.0))
    with pytest.raises(ValueError):
        speedup_bound(CostParams(p=4, fine_cost=2.0, coarse_cost=0.5,
                                 k=3, kappa=2))
    with pytest.raises(ValueError):
        CostParams(p=0, fine_cost=1.0, coarse_cost=0.1)
    with pytest.raises(ValueError):
        CostParams(p=4, fine_cost=-1.0, coarse_cost=0.1)


@given(
    p=st.integers(min_value=2, max_value=64),
    k=st.integers(min_value=1, max_value=8),
    fine=st.floats(min_value=0.5, max_value=100.0),
    coarse=st.floats(min_value=0.01, max_value=10.0),
    overhead=st.floats(min_value=0.0, max_value=10.0),
)
def test_fit_round_trip_property(p, k, fine, coarse, overhead):
    if k > p:
        k = p
    denom = k * (p - 1) - k * (k + 1) / 2.0
    if k < 1 or denom <= 0.0:
        return
    total = sync_cost(CostParams(p=p, fine_cost=fine, coarse_cost=coarse,
                                 overhead=overhead, k=k))
    fitted = fit_overhead(total, p, k, fine, coarse)
    assert fitted == pytest.approx(overhead, rel=1e-9, abs=1e-12)


@given(
    p=st.integers(min_value=2, max_value=64),
    k=st.integers(min_value=0, max_value=8),
    fine=st.floats(min_value=0.5, max_value=100.0),
    coarse=st.floats(min_value=0.01, max_value=10.0),
)
def test_zero_overhead_costs_coincide(p, k, fine, coarse):
    # without serialization overhead, matching activation counts make the
    # synchronous and asynchronous wall models identical
    k = min(k, p)
    params = CostParams(p=p, fine_cost=fine, coarse_cost=coarse,
                        overhead=0.0, k=k, kappa=k)
    assert sync_cost(params) == pytest.approx(async_cost(params), rel=1e-12)


@given(
    p=st.integers(min_value=2, max_value=64),
    k=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=50),
    fine=st.floats(min_value=0.5, max_value=100.0),
    coarse=st.floats(min_value=0.01, max_value=10.0),
    overhead=st.floats(min_value=0.0, max_value=10.0),
)
def test_achieved_never_exceeds_bound(p, k, extra, fine, coarse, overhead):
    k = min(k, p)
    params = CostParams(p=p, fine_cost=fine, coarse_cost=coarse,
                        overhead=overhead, k=k, kappa=k + extra)
    report = speedup_bound(params)  # raises AssertionError on violation
    assert report.achieved <= report.bound * (1.0 + 1e-12)
