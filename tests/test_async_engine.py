"""Event simulator: determinism, schedule auditing, quiescence, the columnar
event log, and the linear-relaxation demo."""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pintlab._pcg64 import PCG64
from pintlab.analysis import factors_from_norms
from pintlab.async_audit import (
    check_finite_termination,
    from_records,
    update_counts,
    validate_schedule,
)
from pintlab.async_engine import AsyncMapping, simulate_async
from pintlab.async_log import CHUNK_ROWS, AsyncTrace, UpdateRecord
from pintlab.async_parareal import async_parareal_mapping, run_async_parareal
from pintlab.errors import DimensionError, HorizonExhausted
from pintlab.linalg import BlockVector, NormKind
from pintlab.model import backward_euler_propagator, heat1d_system, trapezoidal_propagator
from pintlab.parareal import coarse_init
from pintlab.schedule import (
    INDEX_MAX,
    POLICIES,
    POLICY_ADVERSARIAL,
    POLICY_RANDOM_FAIR,
    POLICY_ROUND_ROBIN,
    STOP_HORIZON,
    STOP_PREDICATE,
    STOP_QUIESCENCE,
    AsyncSchedule,
)
from pintlab.theory import linear_relaxation_mapping, relaxation_solution

from helpers import (
    ReplaySchedule,
    envelope_columns,
    event_rows,
    replay_engine_views,
    replay_walk,
    scan_activation_order,
    sliding_window_fairness,
    trace_deltas,
    trace_values,
    value_blocks,
)

JACOBI_A = np.array([[2.0, 1.0], [1.0, 2.0]])
JACOBI_B = np.array([1.0, 2.0])
JACOBI_DIAG = np.array([2.0, 2.0])


def jacobi_pieces():
    return linear_relaxation_mapping(JACOBI_A, JACOBI_DIAG, JACOBI_B)


# ---------------------------------------------------------------- schedules

def test_schedule_validation_and_round_trip():
    sched = AsyncSchedule(seed=5, delay_bound=2, policy=POLICY_ROUND_ROBIN)
    assert sched.window(4) == 12
    assert AsyncSchedule.from_dict(sched.to_dict()) == sched
    with pytest.raises(ValueError):
        AsyncSchedule(seed=1, delay_bound=-1)
    with pytest.raises(ValueError):
        AsyncSchedule(seed=1, delay_bound=0, policy="eager")
    with pytest.raises(ValueError):
        AsyncSchedule(seed=1, delay_bound=0, max_events=0)
    # non-int fields are rejected, not truncated
    with pytest.raises(TypeError):
        AsyncSchedule.from_dict({"seed": 1.9, "delay_bound": 2.7, "max_events": 99.9})
    for doc in ({"seed": 1.9, "delay_bound": 2}, {"seed": 1, "delay_bound": 2.7},
                {"seed": 1, "delay_bound": 2, "max_events": 99.9},
                {"seed": True, "delay_bound": 2}, {"seed": 1, "delay_bound": "2"},
                {"delay_bound": 2}):
        with pytest.raises(TypeError):
            AsyncSchedule.from_dict(doc)
    with pytest.raises(TypeError):
        AsyncSchedule(seed=1, delay_bound=False)
    with pytest.raises(ValueError):
        AsyncSchedule.from_dict({"seed": 1, "delay_bound": 2, "polcy": POLICY_ROUND_ROBIN})
    # SeedSequence takes no negative seed
    with pytest.raises(ValueError, match="seed"):
        AsyncSchedule(seed=-1, delay_bound=0)


def test_mapping_validation():
    fn = lambda i, reads: np.zeros(1)
    with pytest.raises(ValueError):
        AsyncMapping(eval_fn=fn, read_set={})
    with pytest.raises(ValueError):
        # the keys must be exactly 1..n
        AsyncMapping(eval_fn=fn, read_set={1: ((0, 1),), 3: ((0, 1),)})
    with pytest.raises(DimensionError):
        AsyncMapping(eval_fn=fn, read_set={1: ((5, 1),)})
    with pytest.raises(DimensionError):
        AsyncMapping(eval_fn=fn, read_set={1: ((0, 0),)})
    with pytest.raises(ValueError):
        AsyncMapping(eval_fn=fn, read_set={1: ((0, 1), (0, 2), (0, 3))},
                     persistent_slots={3: 2, 2: 1})
    with pytest.raises(ValueError):
        # persisted slot must re-read the same source as its base slot
        AsyncMapping(eval_fn=fn, read_set={1: ((0, 1), (2, 2)), 2: ((1, 1), (1, 2))},
                     persistent_slots={2: 1})


# -------------------------------------------------------------- determinism

def test_identical_schedules_reproduce_bitwise(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=9, delay_bound=2)
    t1 = run_async_parareal(coarse, fine, ivp.u0, 5, sched)
    t2 = run_async_parareal(coarse, fine, ivp.u0, 5, sched)
    assert len(t1.events) == len(t2.events)
    for e1, e2 in zip(t1.events, t2.events):
        assert e1 == e2  # frozen dataclass equality: component, reads, delta
    values1, values2 = trace_values(t1), trace_values(t2)
    assert len(values1) == len(values2) == len(t1.events)
    for v1, v2 in zip(values1, values2):
        assert np.array_equal(v1, v2)


def test_different_seeds_differ(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    t1 = run_async_parareal(coarse, fine, ivp.u0, 5,
                            AsyncSchedule(seed=1, delay_bound=2))
    t2 = run_async_parareal(coarse, fine, ivp.u0, 5,
                            AsyncSchedule(seed=2, delay_bound=2))
    assert [e.component for e in t1.events] != [e.component for e in t2.events]


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=0, max_value=2))
@example(64, 3, 1, 1)
def test_deadline_pick_matches_full_scan(p, delay_bound, seed, draws):
    # the first key of last_fired, kept in firing order, picks what the
    # per-event scan of every component's deadline picks, staleness draws
    # interleaved: each component has `draws` sampled slots, and a persisted
    # one that draws nothing
    persistent = {draws + 1: 1} if draws else {}
    read_set = {i: tuple((i - 1, slot) for slot in [*range(1, draws + 1), *persistent])
                for i in range(1, p + 1)}
    mapping = AsyncMapping(eval_fn=lambda i, reads: np.zeros(1), read_set=read_set,
                           persistent_slots=persistent)
    n_events = 20 * p * (delay_bound + 1)  # 20 fairness windows
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, max_events=n_events)
    script = list(sched.script(mapping))
    assert all(len(lags) == draws and all(0 <= lag <= delay_bound for lag in lags)
               for _, lags in script)
    order = [comp for comp, _ in script]
    assert order == scan_activation_order(seed, p, delay_bound, n_events, draws)


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.integers(min_value=0, max_value=2**96),
                 st.integers(min_value=2**128, max_value=2**200)),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2**31),
                          st.one_of(st.integers(min_value=1, max_value=3),
                                    st.integers(min_value=1, max_value=INDEX_MAX + 1))),
                min_size=1, max_size=25).filter(lambda draws: len(draws) % 2))
# a range of 2**32 // 3 + 2 rejects a third of its 32-bit draws
@example(0, [(0, 2**32 // 3 + 2)] * 5)
@example(2**96, [(1, 1), (0, INDEX_MAX + 1), (1, 1)])
def test_generator_matches_numpy_draw_for_draw(seed, draws):
    # interleaved ranges, ranges of one that draw nothing, and odd counts of
    # draws, so that the high half of a 64-bit output crosses calls
    ours, numpy_rng = PCG64(seed), np.random.default_rng(seed)
    for lo, span in draws:
        assert ours.integers(lo, lo + span) == numpy_rng.integers(lo, lo + span)


# ----------------------------------------------------------- schedule audit

@pytest.mark.parametrize("policy", [POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR,
                                    POLICY_ADVERSARIAL])
@pytest.mark.parametrize("delay_bound", [0, 1, 3])
def test_generated_schedules_audit_clean(heat_setups, policy, delay_bound):
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=13, delay_bound=delay_bound, policy=policy)
    trace = run_async_parareal(coarse, fine, ivp.u0, 6, sched)
    report = validate_schedule(trace)
    assert report.ok, (report.fairness_violations, report.staleness_violations,
                       report.provenance_violations)


def _handmade_trace(events, n_updatable, window_sched, persistent=None):
    return from_records(
        events,
        [np.zeros(1) for _ in events],
        initial=BlockVector(np.zeros((n_updatable + 1, 1))),
        stop_reason="stop-predicate",
        schedule=window_sched,
        persistent_slots=persistent or {},
    )


def _ev(comp, reads=()):
    return UpdateRecord(component=comp, reads=tuple(reads), delta=1.0)


def test_fairness_violation_detected():
    # p=3, D=3 -> window 12; component 2 stops firing after event 10
    sched = AsyncSchedule(seed=0, delay_bound=3)
    events = []
    for k in range(11):
        events.append(_ev(1 + k % 3))
    for k in range(11, 40):
        events.append(_ev(1 if k % 2 else 3))
    trace = _handmade_trace(events, 3, sched)
    report = validate_schedule(trace)
    assert not report.ok
    # component 2 last fires at event 10, so the first windows are clean and
    # the first offending window starts at 11
    assert report.fairness_violations == [(11, 2)]


@settings(deadline=None, max_examples=200)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=3))
def test_fairness_gaps_match_sliding_windows(data, p, delay_bound):
    # rounds of random permutations are fair for D >= 1 (and often not for
    # D = 0); deleted events open longer gaps, so many traces are unfair
    rounds = data.draw(st.lists(st.permutations(range(1, p + 1)), max_size=80))
    fired = [comp for rnd in rounds for comp in rnd][:80]
    dropped = data.draw(st.sets(st.integers(0, max(len(fired) - 1, 0)),
                                max_size=len(fired) // 2))
    fired = [comp for k, comp in enumerate(fired) if k not in dropped]
    trace = _handmade_trace([_ev(comp) for comp in fired], p,
                            AsyncSchedule(seed=0, delay_bound=delay_bound))
    assert validate_schedule(trace).fairness_violations == sliding_window_fairness(trace)


def test_staleness_violation_detected():
    sched = AsyncSchedule(seed=0, delay_bound=2)
    events = [_ev(1) for _ in range(5)]          # comp 1 reaches version 5
    events.append(_ev(2, reads=[(1, 1, 0)]))     # event 5 reads version 0: too old
    events.append(_ev(2, reads=[(1, 1, 9)]))     # event 6: version 9 does not exist
    trace = _handmade_trace(events, 2, sched)
    report = validate_schedule(trace)
    assert report.staleness_violations == [(5, 1, 0, 3), (6, 1, 9, 3)]
    assert report.fairness_violations == []
    assert report.provenance_violations == []


def test_provenance_violation_detected():
    sched = AsyncSchedule(seed=0, delay_bound=1)
    good = _ev(1, reads=[(0, 1, 0), (0, 2, 0)])
    bad = _ev(1, reads=[(0, 1, 0), (0, 2, 1)])   # event 1 must replay version 0
    trace = _handmade_trace([good, bad], 1, sched, persistent={2: 1})
    report = validate_schedule(trace)
    assert report.provenance_violations == [(1, 2, 1)]


def test_adversarial_reads_are_maximally_stale(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    bound = 2
    sched = AsyncSchedule(seed=1, delay_bound=bound, policy=POLICY_ADVERSARIAL)
    trace = run_async_parareal(coarse, fine, ivp.u0, 4, sched)
    versions = [0] * 5
    for ev in trace.events:
        for source, slot, version in ev.reads:
            if slot not in trace.persistent_slots:
                assert version == max(versions[source] - bound, 0)
        versions[ev.component] += 1


# ------------------------------------------------------ quiescence behavior

def test_quiescence_on_fixed_point_start():
    # start exactly at the fixed point: every update is a bitwise no-op, so
    # the run stops after exactly (D + 3) windows
    mapping, init = jacobi_pieces()
    start = BlockVector(np.array([[0.0], [0.0], [1.0]]))
    d = 1
    sched = AsyncSchedule(seed=4, delay_bound=d)
    trace = simulate_async(mapping, start, sched, stop=None)
    assert trace.stop_reason == STOP_QUIESCENCE
    assert len(trace.events) == (d + 3) * sched.window(2)
    assert all(ev.delta == 0.0 for ev in trace.events)


def test_quiescence_requires_buffers_to_flush():
    # stale reads can reproduce current values for a while even though a
    # fresher read would still change them; the streak rule must outlast the
    # delay bound rather than stop at the first quiet window
    mapping, init = jacobi_pieces()
    x_star = relaxation_solution(JACOBI_A, JACOBI_B)
    for seed, d in [(7, 3), (11, 2), (3, 1)]:
        sched = AsyncSchedule(seed=seed, delay_bound=d)
        trace = simulate_async(mapping, init, sched, stop=None)
        final = trace.state_after(len(trace.events) - 1)
        assert trace.stop_reason == STOP_QUIESCENCE
        assert np.array_equal(final.data[1:, 0], x_star)


def test_horizon_exhausted_carries_partial_trace():
    def grow(i, values):
        return values[0] + 1.0

    mapping = AsyncMapping(eval_fn=grow, read_set={1: ((1, 1),)})
    init = BlockVector(np.zeros((2, 1)))
    sched = AsyncSchedule(seed=0, delay_bound=0, max_events=50)
    with pytest.raises(HorizonExhausted) as exc_info:
        simulate_async(mapping, init, sched, stop=None)
    trace = exc_info.value.trace
    assert len(trace.events) == 50
    assert trace.stop_reason == STOP_HORIZON == "horizon"


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=60))
def test_horizon_trace_names_its_stop(policy, delay_bound, p, seed, max_events):
    # every value carries a running count, so no run quiesces: each one
    # ends on its horizon, and the partial trace says so
    mapping, init, _ = _recording_mapping(p, 2)
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy,
                          max_events=max_events)
    with pytest.raises(HorizonExhausted) as exc_info:
        simulate_async(mapping, init, sched)
    trace = exc_info.value.trace
    assert trace.stop_reason == STOP_HORIZON
    assert trace.n_events == len(trace.events) == max_events


def test_engine_rejects_mismatched_init():
    mapping, _ = jacobi_pieces()
    with pytest.raises(DimensionError):
        simulate_async(mapping, BlockVector(np.zeros((5, 1))),
                       AsyncSchedule(seed=0, delay_bound=0))


@pytest.mark.parametrize("lags", [(), (1, 0)])
def test_engine_rejects_script_with_wrong_lag_count(lags):
    # slot 2 persists slot 1, so component 1 takes one lag per event
    mapping = AsyncMapping(eval_fn=lambda i, values: values[0] + 1.0,
                           read_set={1: ((0, 1), (0, 2))}, persistent_slots={2: 1})
    sched = ReplaySchedule(seed=0, delay_bound=1, events=((1, (0,)), (1, lags)))
    with pytest.raises(ValueError, match=f"event 1: component 1 has 1 sampled reads, "
                                         f"but the script gave {len(lags)} lags"):
        simulate_async(mapping, BlockVector(np.zeros((2, 1))), sched)


# ------------------------------------------------------------ relaxation demo

def test_zero_delay_round_robin_is_gauss_seidel():
    mapping, init = jacobi_pieces()
    sched = AsyncSchedule(seed=0, delay_bound=0, policy=POLICY_ROUND_ROBIN)
    n_sweeps = 6
    stop = lambda k, deltas, drained: k + 1 >= 2 * n_sweeps
    trace = simulate_async(mapping, init, sched, stop=stop)
    x = np.zeros(2)
    states = []
    for _ in range(n_sweeps):
        x[0] = x[0] + (JACOBI_B[0] - JACOBI_A[0] @ x) / JACOBI_DIAG[0]
        states.append(x.copy())
        x[1] = x[1] + (JACOBI_B[1] - JACOBI_A[1] @ x) / JACOBI_DIAG[1]
        states.append(x.copy())
    for idx, want in enumerate(states):
        got = trace.state_after(idx).data[1:, 0]
        assert np.array_equal(got, want), idx


def test_relaxation_demo_converges_with_threshold_stop():
    mapping, init = jacobi_pieces()
    x_star = relaxation_solution(JACOBI_A, JACOBI_B)
    sched = AsyncSchedule(seed=6, delay_bound=2)
    stop = lambda k, deltas, drained: drained() and float(np.max(deltas[1:])) < 1e-12
    trace = simulate_async(mapping, init, sched, stop=stop)
    final = trace.state_after(len(trace.events) - 1)
    assert np.max(np.abs(final.data[1:, 0] - x_star)) < 1e-10


def test_relaxation_demo_stops_on_the_predicate():
    # the run of test_relaxation_demo_converges_with_threshold_stop: every
    # component reads itself one version behind, a read that drained exempts
    mapping, init = jacobi_pieces()
    sched = AsyncSchedule(seed=6, delay_bound=2)
    stop = lambda k, deltas, drained: drained() and float(np.max(deltas[1:])) < 1e-12
    assert simulate_async(mapping, init, sched, stop=stop).stop_reason == STOP_PREDICATE


def test_relaxation_rejects_zero_diagonal():
    with pytest.raises(ValueError):
        linear_relaxation_mapping(JACOBI_A, [2.0, 0.0], JACOBI_B)
    with pytest.raises(DimensionError):
        linear_relaxation_mapping(JACOBI_A, [2.0, 2.0, 2.0], JACOBI_B)


# ------------------------------------------------------------ trace plumbing

def test_update_counts_and_jsonl(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, 4,
                               AsyncSchedule(seed=2, delay_bound=1))
    counts, kappa = update_counts(trace)
    assert counts[0] == 0
    assert int(np.sum(counts)) == len(trace.events)
    assert kappa == int(np.max(counts[1:]))
    lines = list(trace.jsonl_lines())
    assert len(lines) == len(trace.events)
    doc = json.loads(lines[0])
    assert set(doc) == {"k", "component", "reads", "digest", "delta"}


def test_version_value_reconstruction(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, 4,
                               AsyncSchedule(seed=8, delay_bound=2))
    versions = [0] * 5
    for idx, (ev, value) in enumerate(zip(trace.events, trace_values(trace))):
        versions[ev.component] += 1
        got = trace.version_value(ev.component, versions[ev.component])
        assert np.shares_memory(got, value)
        assert np.array_equal(got, trace.state_after(idx)[ev.component])
    assert np.array_equal(trace.version_value(1, 0), trace.initial[1])
    with pytest.raises(KeyError):
        trace.version_value(1, versions[1] + 100)
    with pytest.raises(KeyError):
        trace.version_value(1, -1)
    with pytest.raises(IndexError):
        trace.state_after(len(trace.events))
    # -1 is the start; events[-2] is an event, so state_after(-2) is no state
    assert np.array_equal(trace.state_after(-1).data, trace.initial.data)
    with pytest.raises(IndexError):
        trace.state_after(-2)
    assert trace.n_updatable == 4


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR, POLICY_ADVERSARIAL]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16))
def test_event_log_views_agree(heat_setups, policy, delay_bound, p, seed):
    # state_after(k), values[k] and version_value are three views of one
    # log; they must agree with the state rebuilt by writing each value into
    # its block, at every event, and no version past the last one exists
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy)
    trace = run_async_parareal(coarse, fine, ivp.u0, p, sched)
    state = trace.initial.data.copy()
    assert np.array_equal(trace.state_after(-1).data, state)
    versions = [0] * (p + 1)
    for k, (ev, value) in enumerate(zip(trace.events, trace_values(trace))):
        after = trace.state_after(k)
        state[ev.component] = value
        assert np.array_equal(state, after.data), k
        assert np.array_equal(value, after[ev.component]), k
        versions[ev.component] += 1
        assert np.shares_memory(trace.version_value(ev.component, versions[ev.component]),
                                value)
    assert update_counts(trace)[0].tolist() == versions
    for comp in range(p + 1):
        with pytest.raises(KeyError):
            trace.version_value(comp, versions[comp] + 1)


def _two_sampled_slots_mapping(p):
    # slots 1 and 2 both sample the predecessor and slot 3 replays slot 1,
    # so drained takes the fresher of two sampled reads of one source
    def eval_fn(i, values):
        first, second, kept = values
        return 0.5 * (first + second) + 0.25 * (first - kept)

    read_set = {i: ((i - 1, 1), (i - 1, 2), (i - 1, 3)) for i in range(1, p + 1)}
    mapping = AsyncMapping(eval_fn=eval_fn, read_set=read_set, persistent_slots={3: 1})
    init = BlockVector(np.vstack([np.ones((1, 2)), np.zeros((p, 2))]))
    return mapping, init


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["async-parareal", "relaxation", "two-sampled-slots"]),
       st.sampled_from([POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR, POLICY_ADVERSARIAL]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**16))
def test_engine_views_match_side_table_replay(heat_setups, kind, policy,
                                              delay_bound, p, seed):
    # drained and last_deltas come from the event log alone; they must equal
    # the views rebuilt from version counters and consumed-version tables
    if kind == "async-parareal":
        ivp, coarse, fine = heat_setups[4]
        mapping = async_parareal_mapping(coarse, fine, p)
        init = coarse_init(coarse, ivp.u0, p)
    elif kind == "relaxation":
        a = np.eye(p) * (p + 1.0) + np.ones((p, p))
        mapping, init = linear_relaxation_mapping(a, np.diag(a), np.arange(1.0, p + 1))
    else:
        mapping, init = _two_sampled_slots_mapping(p)
    seen = []

    def record(k, deltas, drained):
        seen.append((k, drained(), deltas))
        return False

    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy,
                          max_events=1500)
    try:
        trace = simulate_async(mapping, init, sched, stop=record)
    except HorizonExhausted as exc:
        trace = exc.trace
    assert validate_schedule(trace).ok
    want = replay_engine_views(trace, mapping.read_set)
    # quiescence ends the run before the predicate sees the last event
    quiet = trace.stop_reason == STOP_QUIESCENCE
    assert [k for k, _, _ in seen] == list(range(len(trace.events) - quiet))
    for (k, drained, deltas), (want_drained, want_deltas) in zip(seen, want):
        assert drained == want_drained, k
        assert np.array_equal(deltas, want_deltas), k


def test_drain_check_runs_only_when_read(heat_setups, monkeypatch):
    # a predicate that never calls drained costs no drain walk: each
    # event reads its two inputs and its own current value from the log,
    # and nothing else does
    ivp, coarse, fine = heat_setups[4]
    mapping = async_parareal_mapping(coarse, fine, 4)
    calls = []
    version_value = AsyncTrace.version_value
    monkeypatch.setattr(AsyncTrace, "version_value",
                        lambda trace, *args: calls.append(args) or version_value(trace, *args))
    trace = simulate_async(mapping, coarse_init(coarse, ivp.u0, 4),
                           AsyncSchedule(seed=1, delay_bound=2),
                           stop=lambda k, deltas, drained: k >= 40)
    assert trace.n_events == 41
    assert len(calls) == 3 * 41


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_value_rejected(bad):
    mapping = AsyncMapping(eval_fn=lambda i, reads: np.array([bad]),
                           read_set={1: ((0, 1),)})
    with pytest.raises(ValueError, match="non-finite"):
        simulate_async(mapping, BlockVector(np.zeros((2, 1))),
                       AsyncSchedule(seed=0, delay_bound=0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_value_rejected_at_its_event(bad):
    # finite values first; the bad entry sits in the middle of event 3's block
    def eval_fn(i, values):
        out = values[0] + 1.0
        if out[0] == 4.0:
            out[1] = bad
        return out

    mapping = AsyncMapping(eval_fn=eval_fn, read_set={1: ((1, 1),)})
    with pytest.raises(ValueError, match="component 1 produced a non-finite value at event 3$"):
        simulate_async(mapping, BlockVector(np.zeros((2, 3))),
                       AsyncSchedule(seed=0, delay_bound=0))


def _pack_one_value(value):
    return from_records([_ev(1)], [value], initial=BlockVector(np.zeros((2, 2))),
                        schedule=AsyncSchedule(seed=0, delay_bound=0))


def _simulate_one_value(value):
    mapping = AsyncMapping(eval_fn=lambda i, reads: value, read_set={1: ((0, 1),)})
    return simulate_async(mapping, BlockVector(np.zeros((2, 2))),
                          AsyncSchedule(seed=0, delay_bound=0))


@pytest.mark.parametrize("log", [_pack_one_value, _simulate_one_value])
@pytest.mark.parametrize("value", [np.zeros(3), np.zeros(1), np.zeros((1, 2)), 0.0])
def test_values_of_another_shape_rejected(log, value):
    # every logged value has the block shape, whether packed or produced
    with pytest.raises(DimensionError, match="shape"):
        log(value)


def test_overflowing_delta_of_finite_values_is_logged():
    # finite values whose difference overflows give delta inf, not an error
    produce = iter([1e308, -1e308])
    mapping = AsyncMapping(eval_fn=lambda i, reads: np.array([next(produce)]),
                           read_set={1: ((0, 1),)})
    with np.errstate(over="ignore"):
        trace = simulate_async(mapping, BlockVector(np.zeros((2, 1))),
                               AsyncSchedule(seed=0, delay_bound=0),
                               stop=lambda k, deltas, drained: k >= 1)
    assert list(trace_deltas(trace)) == [1e308, np.inf]


def test_records_name_components_of_the_trace():
    # a negative index would wrap to component p in the log's tables
    sched = AsyncSchedule(seed=0, delay_bound=0)
    for events in ([_ev(-1)], [_ev(3)], [_ev(1, reads=[(-1, 1, 0)])],
                   [_ev(1, reads=[(3, 1, 0)])]):
        with pytest.raises(DimensionError):
            _handmade_trace(events, 2, sched)
    # versions are audited, not rejected
    trace = _handmade_trace([_ev(1, reads=[(2, 1, -1)])], 2, sched)
    assert validate_schedule(trace).staleness_violations == [(0, 2, -1, 0)]


def test_records_keep_their_components_read_pattern():
    # the log keeps one (source, slot) pattern per component and only the
    # versions per event, so a record that reads other pairs is refused
    sched = AsyncSchedule(seed=0, delay_bound=0)
    first = _ev(2, reads=[(1, 1, 0), (1, 2, 0)])
    for other in ([], [(1, 1, 0)], [(1, 1, 0), (1, 3, 0)], [(0, 1, 0), (1, 2, 0)],
                  [(1, 2, 0), (1, 1, 0)], [(1, 1, 0), (1, 2, 0), (1, 2, 0)]):
        with pytest.raises(ValueError, match="event 2: component 2"):
            _handmade_trace([first, _ev(1), _ev(2, reads=other)], 2, sched)
    trace = _handmade_trace([first, _ev(1), _ev(2, reads=[(1, 1, 1), (1, 2, 0)])], 2, sched)
    assert trace.read_set == {2: ((1, 1), (1, 2)), 1: ()}
    assert [list(v) for v in trace.read_versions] == [[], [], [0, 0, 1, 0]]
    assert trace.events[2].reads == ((1, 1, 1), (1, 2, 0))
    # a persisted slot whose base slot is not read from its source is refused
    # when packed: read_plans holds the one rule that packing and a mapping share
    with pytest.raises(ValueError, match="persistent slot 2 must share its source "
                                         "with base slot 1"):
        _handmade_trace([_ev(1, reads=[(0, 2, 0)])], 1, sched, persistent={2: 1})


READ_SLOTS = [0, 1, 2, 3, 2**31]


@st.composite
def read_rules(draw):
    """A (read_set, persistent_slots) pair with keys 1..p: sources in
    -1..p + 1, slots from READ_SLOTS, and persisted reads that follow their
    base slot's source, read a foreign one, or sit in a chained map."""
    p = draw(st.integers(min_value=1, max_value=3))
    source, slot = st.integers(min_value=-1, max_value=p + 1), st.sampled_from(READ_SLOTS)
    persistent = draw(st.one_of(st.sampled_from([{}, {2: 1}, {3: 1, 2: 1}, {3: 2, 2: 1}]),
                                st.dictionaries(slot, slot, max_size=3)))
    read_set = {}
    for i in range(1, p + 1):
        reads = draw(st.lists(st.tuples(source, slot), max_size=3))
        for held, base in persistent.items():
            if draw(st.booleans()):
                same = [s for s, read in reads if read == base]
                reads.append((same[0] if same and draw(st.booleans()) else draw(source), held))
        read_set[i] = tuple(reads)
    return read_set, persistent


def _refusal(build):
    """The type of the ValueError that build() raises, or None."""
    try:
        build()
    except ValueError as error:
        return type(error)
    return None


@settings(deadline=None, max_examples=300)
@given(read_rules())
@example(({1: ((0, 1), (0, 2), (0, 3))}, {3: 2, 2: 1}))
@example(({1: ((0, 0),)}, {}))
@example(({1: ((0, 2**31),)}, {}))
@example(({1: ((0, 1), (0, 2)), 2: ((1, 1), (1, 2))}, {2: 1}))
def test_packing_refuses_what_a_mapping_refuses(rule):
    # from_records and AsyncMapping check a read set through the same
    # read_plans, so one record per component reading its pattern packs
    # exactly when the mapping builds, and a refusal has the same type
    read_set, persistent = rule
    records = [_ev(i, reads=[(source, slot, 0) for source, slot in reads])
               for i, reads in read_set.items()]
    mapping = _refusal(lambda: AsyncMapping(eval_fn=lambda i, values: np.zeros(1),
                                            read_set=read_set, persistent_slots=persistent))
    packed = _refusal(lambda: _handmade_trace(records, len(read_set),
                                              AsyncSchedule(seed=0, delay_bound=0), persistent))
    assert mapping == packed


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16))
def test_records_repack_into_the_same_log(heat_setups, policy, delay_bound, p, seed):
    # an engine trace's records and values, packed again, give back every
    # event's reads and the JSONL trace byte for byte
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    packed = from_records(trace.events, trace_values(trace), initial=trace.initial,
                          schedule=trace.schedule, persistent_slots=trace.persistent_slots,
                          stop_reason=trace.stop_reason)
    reads = [ev.reads for ev in trace.events]
    assert [ev.reads for ev in packed.events] == reads
    assert packed.events[-1].reads == reads[-1]
    assert ([reads for _, reads, _, _ in trace.walk()]
            == [reads for _, reads, _, _ in packed.walk()] == reads)
    assert "".join(packed.jsonl_lines()) == "".join(trace.jsonl_lines())
    fired = set(trace.component)
    assert packed.read_set == {i: r for i, r in trace.read_set.items() if i in fired}


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16))
def test_plain_triples_pack_like_update_records(heat_setups, policy, delay_bound, p, seed):
    # from_records unpacks each record as a (component, reads, delta) triple,
    # so plain tuples pack into a trace that walks, validates and serialises
    # exactly as one packed from UpdateRecords
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    records, values = trace.events, trace_values(trace)
    triples = [tuple(record) for record in records]
    assert {type(triple) for triple in triples} == {tuple}
    packed = [from_records(events, values, initial=trace.initial, schedule=trace.schedule,
                           persistent_slots=trace.persistent_slots,
                           stop_reason=trace.stop_reason)
              for events in (records, triples)]
    walks = [list(packed_trace.walk(lambda rows, _: [row.tobytes() for row in rows]))
             for packed_trace in packed]
    assert walks[0] == walks[1]
    assert validate_schedule(packed[0]) == validate_schedule(packed[1])
    assert "".join(packed[0].jsonl_lines()) == "".join(packed[1].jsonl_lines())
    assert packed[1].events == records


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16),
       st.data())
def test_walk_matches_the_index_replay(heat_setups, policy, delay_bound, p, seed, data):
    # at every event the walk's component, reads and delta are those that
    # index arithmetic on the columns gives, its per_rows result is the
    # event's value, and a packed trace with one broken persisted read walks
    # the same way while validate_schedule reports that read
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                             policy=policy))
    walked = list(trace.walk(lambda rows, _: rows))
    replayed = replay_walk(trace)
    assert [event[:3] for event in walked] == replayed
    assert [np.signbit(delta) for _, _, delta, _ in walked] == [
        np.signbit(delta) for _, _, delta in replayed]
    versions = [0] * (p + 1)
    for comp, _, _, value in walked:
        versions[comp] += 1
        assert value.tobytes() == trace.version_value(comp, versions[comp]).tobytes()
    assert validate_schedule(trace).ok

    records, values = trace.events, trace_values(trace)
    k = data.draw(st.integers(0, len(records) - 1))
    comp, reads, delta = records[k].component, records[k].reads, records[k].delta
    source, slot, version = reads[1]  # the persisted slot replays the fresh one
    assert slot in trace.persistent_slots
    records[k] = UpdateRecord(comp, (reads[0], (source, slot, version + 1)), delta)
    broken = from_records(records, values, initial=trace.initial, schedule=trace.schedule,
                          persistent_slots=trace.persistent_slots)
    assert [event[:3] for event in broken.walk()] == replay_walk(broken)
    assert broken.events == records
    assert validate_schedule(broken).provenance_violations == [(k, slot, version + 1)]


def test_log_keeps_a_copy_of_each_value():
    # an eval_fn that reuses one output buffer must not rewrite logged values
    out = np.zeros(1)

    def count_up(i, values):
        out[0] = values[0][0] + 1.0
        return out

    mapping = AsyncMapping(eval_fn=count_up, read_set={1: ((1, 1),)})
    trace = simulate_async(mapping, BlockVector(np.zeros((2, 1))),
                           AsyncSchedule(seed=0, delay_bound=0),
                           stop=lambda k, deltas, drained: k >= 4)
    assert [float(v[0]) for v in trace_values(trace)] == [1.0, 2.0, 3.0, 4.0, 5.0]


# ---------------------------------------------------------- columnar log

# Read orders of the recording mapping. In both, the persisted slot 2 replays
# its base slot 1; "base-last" puts the base after it, behind a sampled self
# read at position 0.
READ_LAYOUTS = {
    "base-first": lambda i: ((i - 1, 1), (i - 1, 2), (i, 3)),
    "base-last": lambda i: ((i, 3), (i - 1, 2), (i - 1, 1)),
}


def _recording_mapping(p, dim, layout="base-first"):
    """Mapping whose eval_fn records what each event read and produced.

    Component i reads its predecessor through a sampled slot 1 and a
    persisted slot 2, and itself through a sampled slot 3, in the order of
    READ_LAYOUTS[layout]. Entry 0 of every value is a running event count, so
    each version is unique and a read value pins the version it came from.
    """
    seen = []

    def eval_fn(i, values):
        out = np.empty(dim)
        out[0] = len(seen) + 1
        out[1:] = 0.5 * values[0][1:] + 0.25 * values[1][1:] + 0.125 * values[2][1:] + i
        seen.append((i, [value.copy() for value in values], out.copy()))
        return out

    read_set = {i: READ_LAYOUTS[layout](i) for i in range(1, p + 1)}
    mapping = AsyncMapping(eval_fn=eval_fn, read_set=read_set, persistent_slots={2: 1})
    init = BlockVector(-np.arange(1.0, (p + 1) * dim + 1).reshape(p + 1, dim))
    return mapping, init, seen


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR, POLICY_ADVERSARIAL]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=1, max_value=80),
       st.sampled_from(sorted(READ_LAYOUTS)))
@example(POLICY_RANDOM_FAIR, 2, 3, 1, 40, "base-last")
def test_log_records_what_each_event_read_and_produced(policy, delay_bound, p, seed,
                                                      n_events, layout):
    # events[k], values[k] and JSONL line k are built from the columns; they
    # must say exactly what eval_fn saw and returned at event k, and the
    # persisted slot must replay its base slot's previous read wherever the
    # base sits in the read order
    mapping, init, seen = _recording_mapping(p, 3, layout)
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy)
    stop = lambda k, deltas, drained: k + 1 >= n_events
    trace = simulate_async(mapping, init, sched, stop=stop)
    events, values = trace.events, trace_values(trace)
    assert len(events) == len(values) == len(seen) == n_events
    lines = list(trace.jsonl_lines())
    assert len(lines) == n_events
    latest = init.data.copy()
    remembered = [0] * (p + 1)  # per component, the version its last slot-1 read took
    for k, (comp, read_values, out) in enumerate(seen):
        ev = events[k]
        assert ev.component == comp
        assert [(src, slot) for src, slot, _ in ev.reads] == list(mapping.read_set[comp])
        for (source, slot, version), value in zip(ev.reads, read_values, strict=True):
            assert np.array_equal(trace.version_value(source, version), value), (k, source, slot)
        versions = {slot: version for _, slot, version in ev.reads}
        assert versions[2] == remembered[comp], k
        remembered[comp] = versions[1]
        assert np.array_equal(values[k], out)
        assert ev.delta == float(np.max(np.abs(out - latest[comp])))
        latest[comp] = out
        digest = hashlib.sha256(out.tobytes()).hexdigest()[:16]
        assert json.loads(lines[k]) == {"k": k, "component": comp,
                                        "reads": [list(r) for r in ev.reads],
                                        "digest": digest, "delta": ev.delta}
    assert trace.events[-1] == events[n_events - 1]
    assert trace.events[1:3] == [events[k] for k in range(1, min(3, n_events))]
    with pytest.raises(IndexError):
        trace.events[n_events]
    with pytest.raises(ValueError):
        trace_values(trace)[0][0] = 0.0   # served read-only from the log
    assert validate_schedule(trace).ok
    # re-executing the trace's own script on a fresh mapping rewrites it byte for byte
    fresh, _, _ = _recording_mapping(p, 3, layout)
    replayed = simulate_async(fresh, init, ReplaySchedule.of(trace), stop=stop)
    assert "".join(replayed.jsonl_lines()) == "".join(lines)


def test_values_agree_across_chunk_boundaries():
    # four full chunks and two rows, so every view of the log crosses four
    # seams; each must agree with what eval_fn returned
    p, dim, n_events = 3, 3, 4 * CHUNK_ROWS + 2
    mapping, init, seen = _recording_mapping(p, dim)
    trace = simulate_async(mapping, init, AsyncSchedule(seed=5, delay_bound=1),
                           stop=lambda k, deltas, drained: k + 1 >= n_events)
    blocks = list(value_blocks(trace))
    assert [len(rows) for _, rows in blocks] == [CHUNK_ROWS] * 4 + [2]
    assert [c for fired, _ in blocks for c in fired] == [c for c, _, _ in seen]
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]),
                          np.stack([out for _, _, out in seen]))
    state = init.data.copy()
    versions = [0] * (p + 1)
    values = trace_values(trace)
    for k, (comp, _, out) in enumerate(seen):
        assert np.array_equal(values[k], out), k
        versions[comp] += 1
        assert np.array_equal(trace.version_value(comp, versions[comp]), out), k
        state[comp] = out
        assert np.array_equal(trace.state_after(k).data, state), k


# ------------------------------------------------------------ compact log

def _assert_log_matches_outputs(trace, outs, fixed):
    """Check every view of the log against ``outs``, the (component, value)
    each event produced, replayed one event at a time.

    Values are compared by bytes, so a signed zero must keep its sign. An
    event adds a row exactly when its value's bytes differ from its
    component's current version (a component's first event always adds one).
    The envelope's measured errors and the termination index are checked
    against the states replayed here, for both norms.
    """
    assert trace.n_events == len(outs)
    lines = list(trace.jsonl_lines())
    produced = [[] for _ in range(trace.initial.n_blocks)]
    state = trace.initial.data.copy()
    states = [state.copy()]
    new_rows = 0
    values = trace_values(trace)
    for k, (comp, out) in enumerate(outs):
        new_rows += not produced[comp] or produced[comp][-1].tobytes() != out.tobytes()
        produced[comp].append(out)
        state[comp] = out
        states.append(state.copy())
        assert values[k].tobytes() == out.tobytes(), k
        assert trace.version_value(comp, len(produced[comp])).tobytes() == out.tobytes(), k
        assert trace.state_after(k).data.tobytes() == state.tobytes(), k
        assert json.loads(lines[k])["digest"] == hashlib.sha256(out.tobytes()).hexdigest()[:16]
    assert len(trace.row_component) == new_rows
    assert sorted(set(event_rows(trace))) == list(range(new_rows))
    for comp, versions in enumerate(produced):
        for version, out in enumerate(versions, 1):
            assert trace.version_value(comp, version).tobytes() == out.tobytes()
    for kind in NormKind:
        report = factors_from_norms(0.3, 0.2, p=trace.n_updatable, kind=kind)
        diffs = [st - fixed.data for st in states]
        want = [np.max(np.abs(d)) if kind is NormKind.INFINITY
                else np.max(np.linalg.norm(d, axis=1)) for d in diffs]
        assert envelope_columns(trace, report, fixed)[2].tolist() == want
    match = next((k for k, st in enumerate(states)
                  if np.allclose(st, fixed.data, rtol=1e-12, atol=0.0)), None)
    assert check_finite_termination(trace, fixed) == match


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(POLICIES),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**16))
def test_compact_log_matches_per_event_outputs(policy, delay_bound, p, seed):
    # run to quiescence, so most events repeat their component's value and
    # share its row; every view must still read as if each event had one
    ivp = heat1d_system(n_interior=3, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=0.2)
    coarse = backward_euler_propagator(ivp, 0.2, 1)
    fine = trapezoidal_propagator(ivp, 0.2, 20)
    inner = async_parareal_mapping(coarse, fine, p)
    outs = []

    def eval_fn(i, values):
        out = inner.eval_fn(i, values)
        outs.append((i, out.copy()))
        return out

    mapping = AsyncMapping(eval_fn, inner.read_set, inner.persistent_slots)
    init = coarse_init(coarse, ivp.u0, p)
    trace = simulate_async(mapping, init, AsyncSchedule(seed=seed, delay_bound=delay_bound,
                                                        policy=policy))
    assert trace.stop_reason == STOP_QUIESCENCE
    assert len(trace.row_component) < trace.n_events
    _assert_log_matches_outputs(trace, outs, trace.state_after(trace.n_events - 1))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(POLICIES),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**16))
def test_engine_delta_is_zero_exactly_on_reused_rows(policy, delay_bound, p, seed):
    # the log keeps one delta per row: an event that reuses its component's
    # row reads +0.0, and any other event the delta of the row it wrote,
    # which is its change against the component's previous value
    ivp = heat1d_system(n_interior=3, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=0.2)
    coarse = backward_euler_propagator(ivp, 0.2, 1)
    fine = trapezoidal_propagator(ivp, 0.2, 20)
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy))
    delta, values = trace_deltas(trace), trace_values(trace)
    assert len(delta) == trace.n_events
    latest_row = [None] * (p + 1)
    latest = list(trace.initial.data)
    reused = 0
    for k, (comp, row) in enumerate(zip(trace.component, event_rows(trace))):
        change = float(np.max(np.abs(values[k] - latest[comp])))
        if row == latest_row[comp]:
            reused += 1
            assert delta[k] == 0.0 and not np.signbit(delta[k]), k
            assert values[k].tobytes() == latest[comp].tobytes(), k
        else:
            assert trace.row_component[row] == comp, k
            assert delta[k] == trace.row_delta[row] == change, k
        latest_row[comp], latest[comp] = row, values[k]
    assert reused == trace.n_events - len(trace.row_delta)


def test_records_keep_their_delta_when_their_value_repeats():
    # a recorded event may repeat its component's current bytes with a
    # nonzero or a negative-zero delta; such an event gets its own row, and
    # only a +0.0 delta shares one, so every record comes back unchanged
    deltas = [2.0, 0.5, 0.0, -0.0, 0.0, np.inf, 0.0]
    records = [UpdateRecord(component=1, reads=((0, 1, 0),), delta=d) for d in deltas]
    trace = from_records(records, [np.array([3.0, -1.0])] * len(records),
                         initial=BlockVector(np.zeros((2, 2))),
                         schedule=AsyncSchedule(seed=0, delay_bound=0))
    assert trace.events == records
    assert [np.signbit(ev.delta) for ev in trace.events] == [np.signbit(d) for d in deltas]
    assert event_rows(trace) == [0, 1, 1, 2, 2, 3, 3]
    assert list(trace.row_delta) == [2.0, 0.5, -0.0, np.inf]
    assert [json.loads(line)["delta"] for line in trace.jsonl_lines()] == deltas


def test_signed_zeros_keep_their_own_rows():
    # 0.0 == -0.0, so delta is 0, but the bytes and the digest differ
    produce = iter([0.0, -0.0, -0.0, 0.0])
    mapping = AsyncMapping(eval_fn=lambda i, reads: np.array([next(produce)]),
                           read_set={1: ((0, 1),)})
    trace = simulate_async(mapping, BlockVector(np.ones((2, 1))),
                           AsyncSchedule(seed=0, delay_bound=0))
    assert trace.n_events == 4
    assert list(trace_deltas(trace)) == [1.0, 0.0, 0.0, 0.0]
    assert event_rows(trace) == [0, 1, 1, 2]
    assert list(trace.row_component) == [1, 1, 1]
    digests = [json.loads(line)["digest"] for line in trace.jsonl_lines()]
    assert digests[0] == digests[3] != digests[1] == digests[2]
    values = trace_values(trace)
    assert digests == [hashlib.sha256(v.tobytes()).hexdigest()[:16] for v in values]
    assert [bool(np.signbit(v[0])) for v in values] == [False, True, True, False]
    assert np.signbit(trace.version_value(1, 2)[0])


def test_jsonl_digests_follow_each_components_current_row():
    # the serializer keeps one digest per component, so every line's digest
    # must still hash its own event's value when components repeat their
    # current value (reused rows), go back to an older version or to their
    # initial block, start on a value another component holds, or flip the
    # sign of a zero (new rows)
    initial = BlockVector(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
    a, a_neg, b = np.array([5.0, 0.0]), np.array([5.0, -0.0]), np.array([7.0, 8.0])
    outs = [(1, a), (2, a), (1, a), (1, b), (2, a), (1, a), (2, initial[2]), (1, a_neg),
            (1, a), (2, initial[2]), (1, b)]
    trace = from_records(
        [UpdateRecord(component=comp, reads=((0, 1, 0),), delta=0.0) for comp, _ in outs],
        [out for _, out in outs], initial=initial,
        schedule=AsyncSchedule(seed=0, delay_bound=0))
    assert event_rows(trace) == [0, 1, 0, 2, 1, 3, 4, 5, 6, 4, 7]
    lines = list(trace.jsonl_lines())
    assert len(lines) == trace.n_events
    for k, (line, value) in enumerate(zip(lines, trace_values(trace), strict=True)):
        assert json.loads(line)["digest"] == hashlib.sha256(value.tobytes()).hexdigest()[:16], k


def test_jsonl_writing_memory_does_not_grow_with_events(tmp_path):
    # writing a trace streams it line by line: the peak holds a line, one
    # chunk's writers, the file buffers and one digest per component, never
    # the file, so one bound serves any number of events
    p = dim = 16
    ivp = heat1d_system(n_interior=dim, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=0.2 * p)
    coarse = backward_euler_propagator(ivp, 0.2, 1)
    fine = trapezoidal_propagator(ivp, 0.2, 20)
    trace = run_async_parareal(coarse, fine, ivp.u0, p,
                               AsyncSchedule(seed=1, delay_bound=3, policy=POLICY_ADVERSARIAL))
    path = tmp_path / "trace.jsonl"

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(trace.jsonl_lines())

    write()  # first-call imports (hashlib) and caches
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 64 * 1024
    assert trace.n_events > 1000
    # holding the file once would already break the bound
    assert path.stat().st_size > 2 * bound
    assert peak <= bound
    assert path.read_text(encoding="utf-8") == "".join(trace.jsonl_lines())


def test_repeats_and_new_rows_across_chunk_boundaries():
    # about half the events repeat their component's current value; the
    # others write a fresh value, an older version of their component, or
    # their initial block, and each of those takes a new row. The rows fill
    # more than four chunks, so the event -> row map crosses four seams.
    p, dim = 3, 4
    rng = np.random.default_rng(11)
    initial = BlockVector(rng.standard_normal((p + 1, dim)))
    produced = [[] for _ in range(p + 1)]
    outs = []
    new_rows = 0
    while new_rows < 4 * CHUNK_ROWS + 5:
        comp = int(rng.integers(1, p + 1))
        history = produced[comp]
        pick = rng.random()
        if history and pick < 0.5:
            out = history[-1]
        elif len(history) > 1 and pick < 0.6:
            out = history[int(rng.integers(0, len(history) - 1))]
        elif pick < 0.65:
            out = initial[comp].copy()
        else:
            out = rng.standard_normal(dim)
        new_rows += not history or history[-1].tobytes() != out.tobytes()
        history.append(out)
        outs.append((comp, out))
    trace = from_records(
        [UpdateRecord(component=comp, reads=(), delta=0.0) for comp, _ in outs],
        [out for _, out in outs], initial=initial,
        schedule=AsyncSchedule(seed=0, delay_bound=0))
    assert [len(rows) for _, rows in value_blocks(trace)] == [CHUNK_ROWS] * 4 + [5]
    assert trace.n_events > 8 * CHUNK_ROWS
    _assert_log_matches_outputs(trace, outs, BlockVector(rng.standard_normal((p + 1, dim))))


def test_index_columns_are_four_bytes():
    trace = from_records([_ev(1, reads=[(0, 1, 0)])], [np.zeros(1)],
                         initial=BlockVector(np.zeros((2, 1))),
                         schedule=AsyncSchedule(seed=0, delay_bound=0))
    columns = (trace.component, trace.row_component, *trace.rows, *trace.read_versions)
    assert {column.itemsize for column in columns} == {4}
    # a horizon or a slot past the columns' range fails before the run
    AsyncSchedule(seed=0, delay_bound=0, max_events=2**31 - 1)
    with pytest.raises(ValueError, match="4-byte"):
        AsyncSchedule(seed=0, delay_bound=0, max_events=2**31)
    AsyncSchedule(seed=0, delay_bound=2**31 - 1)
    with pytest.raises(ValueError, match="4-byte"):
        AsyncSchedule(seed=0, delay_bound=2**31)
    AsyncMapping(eval_fn=lambda i, values: values[0], read_set={1: ((0, 2**31 - 1),)})
    with pytest.raises(DimensionError, match="slot"):
        AsyncMapping(eval_fn=lambda i, values: values[0], read_set={1: ((0, 2**31),)})


def test_trace_memory_stays_columnar():
    # the log's footprint is the d floats of each distinct value plus a few
    # typed integers per event, and at most one chunk of slack; one Python
    # record and one ndarray per event would cost about 700 B each
    p = dim = 16
    ivp = heat1d_system(n_interior=dim, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=0.2 * p)
    coarse = backward_euler_propagator(ivp, 0.2, 1)
    fine = trapezoidal_propagator(ivp, 0.2, 20)
    sched = AsyncSchedule(seed=1, delay_bound=3, policy=POLICY_ADVERSARIAL)
    run_async_parareal(coarse, fine, ivp.u0, p, sched)  # first-call imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_async_parareal(coarse, fine, ivp.u0, p, sched)
        footprint = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    events, rows = len(trace.events), len(trace.row_component)
    assert events > 1000
    # a row is d floats plus its writer (4 B) and its delta (8 B); an event
    # is its component, the row of the version it wrote and the two versions
    # it read (4 B each): 16 B, and 20 B of headroom for array growth and the
    # run's fixed allocations
    assert footprint <= rows * (8 * dim + 12) + events * 36 + CHUNK_ROWS * 8 * dim
