"""Synchronous corrected iteration: worked scalar values, stop logic,
finite termination, bounded memory, and equivalence with the block
Richardson form."""
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pintlab.errors import DimensionError, SweepOverflowError
from pintlab.linalg import BlockVector, NormKind, max_block_norm
from pintlab.model import (
    AffinePropagator,
    backward_euler_propagator,
    heat1d_system,
    scalar_decay_system,
    trapezoidal_propagator,
)
from pintlab.parareal import (
    STOP_EXACT,
    STOP_KMAX,
    STOP_THRESHOLD,
    SWEEP_CHUNK,
    coarse_init,
    parareal_update,
    run_parareal,
    sequential_fine_solve,
)
from pintlab.theory import build_parareal_system, parareal_iterate

from helpers import nth_iterate, replay_parareal


def test_coarse_init_geometric_sequence(literal_scalar_pair):
    coarse, _ = literal_scalar_pair
    lam = coarse_init(coarse, [1.0], 3)
    assert np.allclose(lam.data.ravel(), [1.0, 0.8, 0.64, 0.512], rtol=0, atol=1e-15)


def test_sequential_fine_solve_frozen(literal_scalar_pair):
    _, fine = literal_scalar_pair
    lam = sequential_fine_solve(fine, [1.0], 2)
    assert lam.data[1, 0] == pytest.approx(0.77880, abs=1e-12)
    assert lam.data[2, 0] == pytest.approx(0.60653, abs=1e-4)  # ~ exp(-0.5)


def test_first_sweep_worked_example(literal_scalar_pair):
    coarse, fine = literal_scalar_pair
    lam0 = coarse_init(coarse, [1.0], 2)
    lam1 = parareal_iterate(coarse, fine, lam0)
    # hand value: 0.8*0.77880 + 0.77880*0.8 - 0.8*0.8
    assert np.allclose(lam1.data.ravel(), [1.0, 0.77880, 0.60608],
                       rtol=0, atol=1e-12)


def test_update_kernel_branches(literal_scalar_pair):
    coarse, fine = literal_scalar_pair
    fresh = np.array([0.77880])
    old = np.array([0.8])
    corrected = parareal_update(coarse, fine, fresh, old)
    assert corrected[0] == pytest.approx(0.60608, abs=1e-12)
    # bitwise-equal readings collapse to a pure fine application
    same = parareal_update(coarse, fine, old.copy(), old)
    assert np.array_equal(same, fine.apply(old))


def test_equal_propagators_stop_at_first_sweep():
    ivp = scalar_decay_system(rate=1.0, t_final=4.0)
    coarse = backward_euler_propagator(ivp, 1.0, 5)
    trace = run_parareal(coarse, coarse, ivp.u0, 4, epsilon=1e-12)
    assert trace.k_final == 1
    assert trace.stop_reason == STOP_THRESHOLD
    assert trace.deltas == [0.0]
    assert np.array_equal(trace.final.data, coarse_init(coarse, ivp.u0, 4).data)


def test_epsilon_zero_disables_threshold_even_on_zero_delta():
    # strict comparison: delta == 0 < 0 is false, so the run goes to k = p
    ivp = scalar_decay_system(rate=1.0, t_final=3.0)
    coarse = backward_euler_propagator(ivp, 1.0, 2)
    trace = run_parareal(coarse, coarse, ivp.u0, 3, epsilon=0.0)
    assert trace.k_final == 3
    assert trace.stop_reason == STOP_EXACT


def test_exact_termination_matches_sequential_bitwise(heat_setups):
    for n in (4, 8):
        ivp, coarse, fine = heat_setups[n]
        for p in (2, 5):
            trace = run_parareal(coarse, fine, ivp.u0, p, epsilon=0.0)
            assert trace.stop_reason == STOP_EXACT
            oracle = sequential_fine_solve(fine, ivp.u0, p)
            assert np.array_equal(trace.final.data, oracle.data)


def test_prefix_is_frozen_and_exact_bitwise(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    p = 6
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    for k in range(1, p + 1):
        lam_k = nth_iterate(coarse, fine, ivp.u0, p, k)
        lam_prev = nth_iterate(coarse, fine, ivp.u0, p, k - 1)
        for i in range(0, k):
            # frozen copy of the previous sweep
            assert np.array_equal(lam_k.data[i], lam_prev.data[i])
        for i in range(0, k + 1):
            # and that prefix is the exact fine trajectory, bitwise
            assert np.array_equal(lam_k.data[i], oracle.data[i])


def test_k_max_stop():
    ivp = scalar_decay_system(rate=1.0, t_final=6.0)
    coarse = backward_euler_propagator(ivp, 1.0, 1)
    fine = trapezoidal_propagator(ivp, 1.0, 25)
    trace = run_parareal(coarse, fine, ivp.u0, 6, epsilon=1e-14, k_max=2)
    assert trace.k_final == 2
    assert trace.stop_reason == STOP_KMAX
    assert len(trace.deltas) == 2
    with pytest.raises(ValueError):
        run_parareal(coarse, fine, ivp.u0, 6, epsilon=-1.0)
    with pytest.raises(ValueError):
        run_parareal(coarse, fine, ivp.u0, 6, epsilon=1e-9, k_max=0)


def _heat_pair(n: int, p: int, fine_steps: int, span: float = 0.2):
    ivp = heat1d_system(n_interior=n, length=1.0, boundary_left=23.0,
                        boundary_right=23.0, initial_temp=30.0, t_final=span * p)
    return (ivp, backward_euler_propagator(ivp, span, 1),
            trapezoidal_propagator(ivp, span, fine_steps))


P_AND_K_MAX = st.integers(1, 12).flatmap(
    lambda p: st.tuples(st.just(p), st.one_of(st.none(), st.integers(1, p))))


@settings(deadline=None, max_examples=60)
@given(p_k_max=P_AND_K_MAX, n=st.integers(2, 6),
       epsilon=st.sampled_from([0.0, 1e-9, 1e-3]),
       span=st.sampled_from([0.2, 2.0]))
# span 2.0 settles the rod early: here sweep 8 already matches the oracle
# (rtol 1e-12), four sweeps before the exact stop
@example(p_k_max=(12, None), n=4, epsilon=0.0, span=2.0)
def test_streaming_sweeps_equal_full_history_replay(p_k_max, n, epsilon, span):
    p, k_max = p_k_max
    ivp, coarse, fine = _heat_pair(n, p, 20, span)
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    trace = run_parareal(coarse, fine, ivp.u0, p, epsilon, k_max, reference=oracle)
    history, deltas, stop_reason, index = replay_parareal(
        coarse, fine, ivp.u0, p, epsilon, k_max, reference=oracle)
    assert np.array_equal(trace.final.data, history[-1].data)
    assert trace.deltas == deltas
    assert trace.k_final == len(history) - 1
    assert trace.stop_reason == stop_reason
    assert trace.finite_termination_index == index
    if trace.stop_reason == STOP_EXACT:
        assert index is not None
    unreachable = BlockVector(np.full_like(oracle.data, 1e6))
    assert run_parareal(coarse, fine, ivp.u0, p, epsilon, k_max,
                        reference=unreachable).finite_termination_index is None
    start = coarse_init(coarse, ivp.u0, p)
    assert run_parareal(coarse, fine, ivp.u0, p, epsilon, k_max,
                        reference=start).finite_termination_index == 0
    assert run_parareal(coarse, fine, ivp.u0, p, epsilon,
                        k_max).finite_termination_index is None


@st.composite
def signed_zero_setups(draw):
    """(u0, coarse, fine) of dimension 1..3 whose entries come from a small
    set holding both zeros: products hit exact zeros of either sign, and the
    two readings of an update often coincide."""
    d = draw(st.integers(1, 3))
    entries = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])

    def array(*shape):
        values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(values).reshape(shape)

    order = draw(st.sampled_from("CF"))  # lu_solve's propagators are Fortran-ordered
    coarse, fine = (AffinePropagator(np.asarray(array(d, d), order=order), array(d), 1.0)
                    for _ in range(2))
    return array(d), coarse, fine


@settings(deadline=None, max_examples=100)
@given(setup=signed_zero_setups(), p=st.integers(1, 8))
def test_lean_sweeps_equal_reference_sweeps_bitwise(setup, p):
    # run_parareal takes each G(old) from its component's coarse memo and
    # copies the frozen prefix; parareal_iterate recomputes every row with
    # the four-argument kernel. Iterate j of both has the same bytes for
    # every j (array_equal would miss a flipped zero sign).
    u0, coarse, fine = setup
    lam = coarse_init(coarse, u0, p)
    for j in range(1, p + 1):
        lam = parareal_iterate(coarse, fine, lam)
        assert nth_iterate(coarse, fine, u0, p, j).data.tobytes() == lam.data.tobytes(), j


def test_coarse_memo_keys_on_bytes(literal_scalar_pair):
    # the memo stands in for G(old) only when old has the key's bytes: with
    # a planted value in place of G(+0.0), a reading of +0.0 takes it and a
    # reading of -0.0, though == +0.0, has its G computed
    coarse, fine = literal_scalar_pair
    memo = [None, None]
    parareal_update(coarse, fine, np.array([0.0]), np.array([5.0]), memo)
    assert memo[0] == np.array([0.0]).tobytes()
    assert memo[1].tobytes() == coarse.apply(np.array([0.0])).tobytes()
    memo[1] = planted = np.array([7.0])
    fresh = np.array([1.0])
    for old, g_old in ((np.array([-0.0]), coarse.apply(np.array([-0.0]))),
                       (np.array([0.0]), planted)):
        key = memo[0]
        got = parareal_update(coarse, fine, fresh, old, memo)
        assert got.tobytes() == ((coarse.apply(fresh) + fine.apply(old)) - g_old).tobytes()
        # either way the memo then holds G(fresh)
        assert memo[0] == fresh.tobytes()
        assert memo[1].tobytes() == coarse.apply(fresh).tobytes()
        memo[:] = key, planted
    # equal readings apply the fine map alone and leave the memo as it was
    same = parareal_update(coarse, fine, fresh, fresh.copy(), memo)
    assert same.tobytes() == fine.apply(fresh).tobytes()
    assert memo[0] == np.array([0.0]).tobytes() and memo[1] is planted


def test_readings_of_either_zero_sign_are_equal():
    # readings are compared with ==, not by bytes: +0.0 and -0.0 give the
    # fine value alone, which (G(+0.0) + F(-0.0)) - G(-0.0) would round away
    coarse = AffinePropagator(np.array([[0.5]]), np.array([1.0]), 1.0)
    fine = AffinePropagator(np.array([[0.5]]), np.array([1e-17]), 1.0)
    for memo in (None, [None, None]):
        got = parareal_update(coarse, fine, np.array([0.0]), np.array([-0.0]), memo)
        assert got.tobytes() == np.array([1e-17]).tobytes()


def test_sweep_chunks_cross_their_seams():
    # p + 1 rows span three SWEEP_CHUNK chunks: each sweep's delta and the
    # reference test, taken chunk by chunk, agree with the whole-iterate
    # replay, and a mismatch in the last chunk alone is still seen
    p = 2 * SWEEP_CHUNK + 5
    ivp, coarse, fine = _heat_pair(4, p, 10)
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    trace = run_parareal(coarse, fine, ivp.u0, p, 0.0, reference=oracle)
    history, deltas, _, index = replay_parareal(coarse, fine, ivp.u0, p, 0.0,
                                                reference=oracle)
    assert trace.deltas == deltas
    assert 0 < trace.finite_termination_index == index < p
    assert np.array_equal(trace.final.data, history[-1].data)
    moved = oracle.data.copy()
    moved[-1] *= 2.0
    assert run_parareal(coarse, fine, ivp.u0, p, 0.0,
                        reference=BlockVector(moved)).finite_termination_index is None


def test_sweep_memory_does_not_grow_with_k():
    # k+1 stored iterates would be 257 of them; the loop needs a handful.
    p, n = 256, 16
    ivp, coarse, fine = _heat_pair(n, p, 10)
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    tracemalloc.start()
    try:
        trace = run_parareal(coarse, fine, ivp.u0, p, 0.0, reference=oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.k_final == p and trace.finite_termination_index is not None
    assert peak < 16 * (p + 1) * n * 8


def test_propagated_iterate_is_built_in_place():
    # the iterate fills one (p + 1) x d array; p + 1 row arrays stacked at
    # the end peaked at about four times its size
    p, n = 2**14, 16
    ivp, coarse, fine = _heat_pair(n, p, 10)
    sequential_fine_solve(fine, ivp.u0, 4)  # first-call caches
    tracemalloc.start()
    try:
        oracle = sequential_fine_solve(fine, ivp.u0, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.data.shape == (p + 1, n)
    assert peak <= 1.5 * oracle.data.nbytes


def test_block_system_fixed_point_is_fine_trajectory(heat_setups):
    ivp, coarse, fine = heat_setups[4]
    p = 5
    system = build_parareal_system(coarse, fine, ivp.u0, p)
    oracle = sequential_fine_solve(fine, ivp.u0, p)
    residual = system.a_block @ oracle.flat - system.rhs
    assert np.max(np.abs(residual)) < 1e-12 * max(1.0, max_block_norm(oracle, NormKind.INFINITY))


def test_richardson_step_equals_full_sweep(heat_setups):
    ivp, coarse, fine = heat_setups[8]
    p = 4
    system = build_parareal_system(coarse, fine, ivp.u0, p)
    lam = coarse_init(coarse, ivp.u0, p)
    for _ in range(3):
        swept = parareal_iterate(coarse, fine, lam)
        stepped = system.richardson_step(lam)
        scale = max(1.0, max_block_norm(swept, NormKind.INFINITY))
        assert max_block_norm(swept - stepped, NormKind.INFINITY) < 1e-12 * scale
        lam = swept


def test_iteration_matrix_nilpotent_exactly():
    ivp = scalar_decay_system(rate=1.0, t_final=4.0)
    coarse = backward_euler_propagator(ivp, 1.0, 1)
    fine = trapezoidal_propagator(ivp, 1.0, 25)
    p = 4
    system = build_parareal_system(coarse, fine, ivp.u0, p)
    t = system.iteration_matrix()
    power = np.linalg.matrix_power(t, p + 1)
    # strictly lower block-triangular: the (p+1)-th power is structural zero
    assert np.max(np.abs(power)) == 0.0


def test_build_system_validates():
    ivp = scalar_decay_system()
    coarse = backward_euler_propagator(ivp, 1.0, 1)
    other = heat1d_system(2, 1.0, 0.0, 0.0, 0.0, 1.0)
    fine2 = backward_euler_propagator(other, 1.0, 1)
    with pytest.raises(Exception):
        build_parareal_system(coarse, fine2, ivp.u0, 3)
    with pytest.raises(ValueError):
        build_parareal_system(coarse, coarse, ivp.u0, 0)


def _scalar_map(factor):
    return AffinePropagator(np.array([[factor]]), np.zeros(1), 1.0)


@pytest.mark.parametrize("run, error, message", [
    (lambda: sequential_fine_solve(_scalar_map(0.5), [1.0], 0), ValueError, "p >= 1"),
    (lambda: coarse_init(_scalar_map(0.5), [1.0], 0), ValueError, "p >= 1"),
    (lambda: build_parareal_system(_scalar_map(0.5), _scalar_map(0.5), [1.0, 2.0], 3),
     DimensionError, "initial state has dim 2"),
    # the fine map sends 10 past the float range in the first sweep
    (lambda: run_parareal(_scalar_map(1.0), _scalar_map(1e308), [10.0], 2, 0.0),
     ValueError, "must be finite"),
])
def test_malformed_runs_rejected(run, error, message):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
        run()


def test_overflowing_sweep_carries_its_index():
    # sweep 1 sends 10 past the float range; the error names that sweep and
    # numpy's overflow warnings stay quiet (they would fail as errors here)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SweepOverflowError, match="^sweep 1 of the synchronous run ") as info:
            run_parareal(_scalar_map(1.0), _scalar_map(1e308), [10.0], 2, 0.0)
    assert info.value.sweep == 1


def test_sync_trace_json():
    ivp = scalar_decay_system(rate=1.0, t_final=3.0)
    coarse = backward_euler_propagator(ivp, 1.0, 1)
    fine = trapezoidal_propagator(ivp, 1.0, 25)
    trace = run_parareal(coarse, fine, ivp.u0, 3, epsilon=0.0)
    doc = json.loads(trace.to_json())
    assert doc["k_final"] == 3 and doc["stop_reason"] == STOP_EXACT
    assert len(doc["deltas"]) == 3
    assert set(doc) == {"k_final", "stop_reason", "deltas"}


def test_coarse_init_shape_matches_p():
    coarse = AffinePropagator(np.eye(2) * 0.5, np.ones(2), 1.0)
    lam = coarse_init(coarse, [2.0, 0.0], 4)
    assert isinstance(lam, BlockVector)
    assert lam.n_blocks == 5 and lam.block_dim == 2
