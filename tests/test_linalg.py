"""Norms, block vectors, spectral radius, LU: frozen examples, closed-form
cross-checks, and property sweeps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pintlab.errors import DimensionError, SingularMatrixError
from pintlab.linalg import (
    PIVOT_REL_TOL,
    BlockVector,
    NormKind,
    as_matrix,
    block_norms,
    blocks_match,
    lu_solve,
    max_block_norm,
    operator_norm,
)
from pintlab.theory import spectral_radius

from helpers import (
    eig_magnitudes_2x2,
    eig_magnitudes_3x3,
    from_blocks,
    rel_close,
    spectral_norm_closed,
    spectral_radius_closed,
)


# ---------------------------------------------------------------- block vector

def test_block_vector_round_trip():
    x = from_blocks([[1.0, 2.0], [3.0, -4.0], [0.0, 0.5]])
    assert x.n_blocks == 3 and x.block_dim == 2
    assert np.array_equal(x.flat, [1, 2, 3, -4, 0, 0.5])
    y = BlockVector.from_flat(x.flat, 3)
    assert np.array_equal(x.data, y.data)
    assert max_block_norm(x, NormKind.INFINITY) == 4.0


def test_block_vector_sub_and_copy_independent():
    x = BlockVector(np.ones((2, 3)))
    y = x.copy()
    y.data[0, 0] = 7.0
    assert x.data[0, 0] == 1.0
    d = y - x
    assert max_block_norm(d, NormKind.INFINITY) == 6.0
    with pytest.raises(DimensionError):
        _ = x - BlockVector(np.ones((3, 3)))


def test_block_vector_validation():
    with pytest.raises(DimensionError):
        BlockVector(np.ones(4))
    with pytest.raises(ValueError):
        BlockVector([[np.nan, 1.0]])
    with pytest.raises(DimensionError):
        BlockVector.from_flat(np.ones(5), 2)


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_as_matrix_takes_only_two_dimensions(shape):
    with pytest.raises(DimensionError, match=f"ndim={len(shape)}"):
        as_matrix(np.ones(shape))


def test_max_block_norm_kinds():
    x = from_blocks([[3.0, 4.0], [1.0, -2.0]])
    assert max_block_norm(x, NormKind.SPECTRAL) == 5.0
    assert max_block_norm(x, NormKind.INFINITY) == 4.0
    for shape in ((0, 2), (2, 0)):
        for kind in NormKind:
            assert max_block_norm(BlockVector(np.zeros(shape)), kind) == 0.0


# --------------------------------------------------------------- operator norm

def test_infinity_norm_exact():
    assert operator_norm([[1.0, -2.0], [3.0, 4.0]], NormKind.INFINITY) == 7.0


def test_spectral_norm_diagonal():
    assert rel_close(operator_norm(np.diag([3.0, -5.0])), 5.0, 1e-10)


def test_spectral_norm_vs_closed_form_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        for n in (2, 3):
            m = rng.normal(size=(n, n))
            got = operator_norm(m, NormKind.SPECTRAL)
            want = spectral_norm_closed(m)
            assert rel_close(got, want, 1e-12), (m, got, want)


def test_operator_norm_submultiplicative_infinity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        na = operator_norm(a, NormKind.INFINITY)
        nb = operator_norm(b, NormKind.INFINITY)
        assert operator_norm(a @ b, NormKind.INFINITY) <= na * nb * (1 + 1e-12)


def test_operator_norm_rejects_non_square():
    with pytest.raises(DimensionError):
        operator_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        operator_norm([[np.inf, 0.0], [0.0, 1.0]])


# ------------------------------------------------------------- spectral radius

def test_spectral_radius_frozen_cases():
    # distinct real eigenvalues
    assert rel_close(spectral_radius([[2.0, 1.0], [1.0, 2.0]]), 3.0, 1e-9)
    # opposite-sign dominant pair: growth alternates with period two
    assert rel_close(spectral_radius(np.diag([2.0, -2.0])), 2.0, 1e-9)
    # pure complex pair (scaled rotation)
    rot = 1.25 * np.array([[0.6, -0.8], [0.8, 0.6]])
    assert rel_close(spectral_radius(rot), 1.25, 1e-9)
    # non-normal complex pair, |lambda| = 1 but M far from orthogonal
    assert rel_close(spectral_radius([[0.0, 2.0], [-0.5, 0.0]]), 1.0, 1e-9)


def test_spectral_radius_vs_closed_form_random():
    # Every case must agree with the closed form, tied dominant magnitudes
    # (complex-conjugate pairs) included.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        for n in (2, 3):
            m = rng.normal(size=(n, n))
            mags = eig_magnitudes_2x2(m) if n == 2 else eig_magnitudes_3x3(m)
            got = spectral_radius(m)
            assert rel_close(got, mags[-1], 1e-12), (m, got, mags[-1])


def test_radius_bounded_by_operator_norms():
    # true radius from the closed form, against both operator norms and the
    # Perron root of |M|
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.normal(size=(3, 3))
        rho = spectral_radius_closed(m)
        assert rho <= operator_norm(m, NormKind.INFINITY) * (1 + 1e-12)
        assert rho <= operator_norm(m, NormKind.SPECTRAL) * (1 + 1e-9)
        assert rho <= spectral_radius(np.abs(m)) * (1 + 1e-8)


def test_nilpotent_radius_is_exactly_zero():
    m = np.zeros((4, 4))
    m[1, 0] = 3.0
    m[2, 1] = -2.0
    m[3, 2] = 0.5
    assert spectral_radius(m) == 0.0


def test_all_ones_start_orthogonal_to_dominant_space():
    # dominant eigenvector (1, -1) is orthogonal to the all-ones vector
    m = np.array([[0.0, -2.0], [-2.0, 0.0]])  # eigenpairs: 2 @ (1,-1), -2 @ (1,1)
    assert rel_close(spectral_radius(m), 2.0, 1e-9)


def test_quasi_periodic_growth_exact_radius():
    # |lambda| = 1 complex pair conjugated by a strong diagonal scaling: the
    # growth of M^k x is quasi-periodic, yet the radius is exactly one.
    s = np.diag([1.0, 3.0])
    theta = 1.0
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    m = s @ rot @ np.linalg.inv(s)
    assert abs(spectral_radius(m) - 1.0) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_radius_of_diagonal_is_max_abs(a, b):
    assert rel_close(spectral_radius(np.diag([a, b])), max(abs(a), abs(b)), 1e-8)


# ------------------------------------------------------------------- lu_solve

def test_lu_solve_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = lu_solve(a, np.array([3.0, 5.0]))
    assert np.allclose(a @ x, [3.0, 5.0], rtol=0, atol=1e-14)


def test_lu_solve_matrix_rhs():
    a = np.array([[4.0, 0.0], [0.0, 2.0]])
    x = lu_solve(a, np.eye(2))
    assert np.allclose(x, np.diag([0.25, 0.5]))


def test_lu_solve_returns_fortran_order():
    # propagator matrices are sliced from the solution, and their layout
    # fixes the BLAS path, hence the bits, of every later matvec
    x = lu_solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.eye(2))
    assert x.flags.f_contiguous


def test_lu_solve_singular():
    with pytest.raises(SingularMatrixError) as exc_info:
        lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    assert exc_info.value.pivot < 1e-14
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.ones(2))


def test_lu_solve_shape_errors():
    with pytest.raises(DimensionError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionError):
        lu_solve(np.eye(3), np.ones(2))


# Entries bounded away from zero unless exactly zero, so products never
# underflow and a rank-one matrix stays rank one to working precision.
_ENTRY = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(min_value=1, max_value=600),
       st.integers(min_value=1, max_value=40))
def test_row_kernels_do_not_depend_on_the_batch(data, n, d):
    # the post-hoc walks batch rows by chunk of the value column; a row's
    # norm and match flag must have the same bits in any batch that holds it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    ref = x * (1.0 + rng.choice([0.0, 5e-13, 2e-12], (n, d)))
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    for kind in NormKind:
        whole = block_norms(x, kind)
        assert block_norms(x[lo:hi], kind).tobytes() == whole[lo:hi].tobytes()
        assert block_norms(x[lo:lo + 1], kind).tobytes() == whole[lo:lo + 1].tobytes()
    assert blocks_match(x[lo:hi], ref[lo:hi]).tolist() == blocks_match(x, ref)[lo:hi].tolist()


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=6))
def test_lu_solve_rank_one_is_singular(data, n):
    u = data.draw(arrays(float, n, elements=_ENTRY))
    v = data.draw(arrays(float, n, elements=_ENTRY))
    sigma_max = float(np.linalg.norm(u) * np.linalg.norm(v))  # of u v^T
    with pytest.raises(SingularMatrixError) as exc_info:
        lu_solve(np.outer(u, v), np.ones(n))
    assert exc_info.value.pivot <= PIVOT_REL_TOL * sigma_max


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=1, max_value=6))
def test_lu_solve_well_conditioned_residual(data, n):
    # strict diagonal dominance by at least one keeps the condition small
    off = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    a = off + (n + 1.0) * np.eye(n)
    b = data.draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    x = lu_solve(a, b)
    assert float(np.max(np.abs(a @ x - b))) <= 1e-12
