"""Asynchronous time-parallel runs: replay fidelity, exactness cascade, the
zero-delay reduction to the synchronous sweep, and replay by re-execution."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pintlab.async_parareal
import pintlab.parareal
from pintlab.async_engine import (
    STOP_HORIZON,
    AsyncSchedule,
    update_counts,
    validate_schedule,
)
from pintlab.async_parareal import (
    FRESH_SLOT,
    REMEMBERED_SLOT,
    async_parareal_mapping,
    async_stop_check,
    run_async_parareal,
)
from pintlab.errors import HorizonExhausted
from pintlab.model import (
    backward_euler_propagator,
    scalar_decay_system,
    trapezoidal_propagator,
)
from pintlab.parareal import (
    STOP_THRESHOLD,
    parareal_update,
    run_parareal,
    sequential_fine_solve,
)
from pintlab.schedule import POLICIES, POLICY_ADVERSARIAL, POLICY_RANDOM_FAIR, POLICY_ROUND_ROBIN

from helpers import ReplaySchedule, nth_iterate


def _read_values(trace, ev):
    """Map an event's recorded reads back to the values each slot consumed."""
    by_slot = {slot: trace.version_value(source, version)
               for source, slot, version in ev.reads}
    return by_slot


def test_mapping_shape(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    mapping = async_parareal_mapping(coarse, fine, 4)
    assert mapping.n_updatable == 4
    assert mapping.persistent_slots == {REMEMBERED_SLOT: FRESH_SLOT}
    for i in range(1, 5):
        assert mapping.read_set[i] == ((i - 1, FRESH_SLOT), (i - 1, REMEMBERED_SLOT))
    with pytest.raises(ValueError):
        async_parareal_mapping(coarse, fine, 0)
    trace = run_async_parareal(coarse, fine, ivp.u0, 4,
                               AsyncSchedule(seed=1, delay_bound=0))
    assert np.array_equal(trace.initial[0], np.asarray(ivp.u0, dtype=float))


@pytest.mark.parametrize("seed,delay_bound", [(1, 0), (2, 1), (3, 3)])
def test_event_replay_matches_kernel(heat_setups, seed, delay_bound):
    # every recorded value must be reproducible from its recorded reads alone,
    # including the exact-cancellation branch when both readings coincide
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound)
    trace = run_async_parareal(coarse, fine, ivp.u0, 5, sched)
    for idx, (ev, value) in enumerate(zip(trace.events, trace.values)):
        values = _read_values(trace, ev)
        want = parareal_update(coarse, fine, values[FRESH_SLOT],
                               values[REMEMBERED_SLOT])
        assert np.array_equal(want, value), idx
        assert np.array_equal(want, trace.state_after(idx)[ev.component]), idx


def test_first_worker_exact_after_first_firing(heat_setups):
    # the first subinterval reads only the constant initial condition, so its
    # first update already lands on the fine value bitwise and never moves
    ivp, coarse, fine = heat_setups[8]
    fine_seq = sequential_fine_solve(fine, ivp.u0, 3)
    for seed in range(1, 6):
        trace = run_async_parareal(coarse, fine, ivp.u0, 3,
                                   AsyncSchedule(seed=seed, delay_bound=3))
        fired = False
        for idx, ev in enumerate(trace.events):
            if ev.component == 1:
                fired = True
            if fired:
                assert np.array_equal(trace.state_after(idx)[1], fine_seq[1]), idx


def test_exactness_cascade_at_quiescence(heat_setups):
    # quiescence-only stop: the final state must equal the purely sequential
    # fine solution bitwise on every subinterval
    ivp, coarse, fine = heat_setups[4]
    p = 6
    fine_seq = sequential_fine_solve(fine, ivp.u0, p)
    for seed, d in [(5, 1), (9, 2), (14, 3)]:
        trace = run_async_parareal(coarse, fine, ivp.u0, p,
                                   AsyncSchedule(seed=seed, delay_bound=d))
        final = trace.state_after(len(trace.events) - 1)
        assert np.array_equal(final.data, fine_seq.data)


def test_remembered_slot_replays_previous_fresh_read(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, 5,
                               AsyncSchedule(seed=12, delay_bound=2))
    prev_fresh = {}
    for ev in trace.events:
        reads = {slot: (source, version) for source, slot, version in ev.reads}
        if ev.component in prev_fresh:
            assert reads[REMEMBERED_SLOT] == prev_fresh[ev.component]
        else:
            source, version = reads[REMEMBERED_SLOT]
            assert version == 0
        prev_fresh[ev.component] = reads[FRESH_SLOT]


def test_stop_check_edges():
    assert async_stop_check([1e-7, 2e-7], epsilon=1e-6, drained=True)
    assert not async_stop_check([1e-6, 2e-7], epsilon=1e-6, drained=True)  # strict
    assert not async_stop_check([1e-9], epsilon=1e-6, drained=False)
    with pytest.raises(ValueError):
        async_stop_check([0.0], epsilon=0.0, drained=True)
    with pytest.raises(ValueError):
        async_stop_check([0.0], epsilon=-1.0, drained=True)


def test_zero_delay_round_robin_reduces_to_sync_sweep():
    # with no staleness and cyclic order, each cycle of p events reproduces
    # one synchronous sweep bitwise, and the event count per worker matches
    # the synchronous iteration count
    ivp = scalar_decay_system(rate=1.0, t_final=8.0)
    p = 8
    span = ivp.t_final / p
    coarse = backward_euler_propagator(ivp, span, 1)
    fine = trapezoidal_propagator(ivp, span, 25)
    epsilon = 1e-5

    sync = run_parareal(coarse, fine, ivp.u0, p, epsilon)
    assert sync.stop_reason == STOP_THRESHOLD
    assert sync.k_final == 7

    sched = AsyncSchedule(seed=0, delay_bound=0, policy=POLICY_ROUND_ROBIN)
    trace = run_async_parareal(coarse, fine, ivp.u0, p, sched, epsilon=epsilon)
    assert trace.stop_reason == "stop-predicate"
    _, kappa = update_counts(trace)
    assert kappa == sync.k_final

    for cycle in range(sync.k_final):
        state = trace.state_after(cycle * p + p - 1)
        sweep = nth_iterate(coarse, fine, ivp.u0, p, cycle + 1)
        assert np.array_equal(state.data, sweep.data), cycle


def test_epsilon_none_means_quiescence_only(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    trace = run_async_parareal(coarse, fine, ivp.u0, 3,
                               AsyncSchedule(seed=2, delay_bound=1))
    assert trace.stop_reason == "quiescence"


def test_epsilon_zero_means_no_threshold(heat_setups, monkeypatch):
    # as in run_parareal, epsilon 0 sets no threshold: the run is the
    # default one, bit for bit
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=2, delay_bound=1)
    default = run_async_parareal(coarse, fine, ivp.u0, 3, sched)
    zero = run_async_parareal(coarse, fine, ivp.u0, 3, sched, epsilon=0.0)
    assert zero.stop_reason == default.stop_reason == "quiescence"
    assert "".join(zero.jsonl_lines()) == "".join(default.jsonl_lines())
    assert zero.state_after(zero.n_events - 1).data.tobytes() == \
        default.state_after(default.n_events - 1).data.tobytes()
    # a negative epsilon raises in both runners before anything runs
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(pintlab.async_parareal, "coarse_init", no_run)
    monkeypatch.setattr(pintlab.parareal, "coarse_init", no_run)
    with pytest.raises(ValueError, match="epsilon"):
        run_async_parareal(coarse, fine, ivp.u0, 3, sched, epsilon=-1e-9)
    with pytest.raises(ValueError, match="epsilon"):
        run_parareal(coarse, fine, ivp.u0, 3, epsilon=-1e-9)


@pytest.mark.parametrize("run", [
    lambda coarse, fine, u0: run_parareal(coarse, fine, u0, 3, epsilon=math.nan),
    lambda coarse, fine, u0: run_async_parareal(
        coarse, fine, u0, 3, AsyncSchedule(seed=2, delay_bound=1), epsilon=math.nan),
    lambda coarse, fine, u0: async_stop_check([0.0], epsilon=math.nan, drained=True),
], ids=["run_parareal", "run_async_parareal", "async_stop_check"])
def test_nan_epsilon_raises(heat_setups, run):
    # NaN fails every comparison, so a sign test alone lets it through
    ivp, coarse, fine = heat_setups[4]
    with pytest.raises(ValueError, match="epsilon"):
        run(coarse, fine, ivp.u0)


def _async_run(coarse, fine, u0, p, schedule, epsilon):
    try:
        return run_async_parareal(coarse, fine, u0, p, schedule, epsilon=epsilon)
    except HorizonExhausted as exc:
        return exc.trace


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(POLICIES), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**16),
       st.sampled_from([0.0, 1e-9]),
       st.one_of(st.just(20_000), st.integers(min_value=1, max_value=60)))
@example(POLICY_RANDOM_FAIR, 3, 8, 1, 1e-9, 20_000)
@example(POLICY_ADVERSARIAL, 2, 8, 1, 0.0, 37)
def test_replay_reexecution_reproduces_trace(heat_setups, policy, delay_bound, p, seed,
                                             epsilon, max_events):
    # feeding a trace's components and read lags back as the script must
    # reproduce every logged byte and the stop, horizon stops included
    ivp, coarse, fine = heat_setups[4]
    sched = AsyncSchedule(seed=seed, delay_bound=delay_bound, policy=policy,
                          max_events=max_events)
    trace = _async_run(coarse, fine, ivp.u0, p, sched, epsilon)
    replayed = _async_run(coarse, fine, ivp.u0, p, ReplaySchedule.of(trace), epsilon)
    assert "".join(replayed.jsonl_lines()) == "".join(trace.jsonl_lines())
    assert replayed.stop_reason == trace.stop_reason
    assert trace.stop_reason != STOP_HORIZON or trace.n_events == max_events
    assert validate_schedule(replayed).ok
