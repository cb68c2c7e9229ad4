"""Problem builders and implicit propagators: frozen values, stability,
order of accuracy, algebra of composition."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pintlab.config import ExperimentConfig, PropagatorSpec, parse_config
from pintlab.errors import (
    DegenerateProblemError,
    DimensionError,
    SingularSystemError,
)
from pintlab.linalg import NormKind, operator_norm
from pintlab.model import (
    AffinePropagator,
    LinearIVP,
    PROPAGATOR_RULES,
    backward_euler_propagator,
    compose,
    fine_from_onestep,
    heat1d_system,
    scalar_decay_system,
    trapezoidal_propagator,
)


def test_backward_euler_scalar_exact():
    ivp = scalar_decay_system(rate=1.0)
    prop = backward_euler_propagator(ivp, 1.0, 1)
    assert prop.matrix[0, 0] == pytest.approx(0.5, rel=1e-15)  # 1/(1 - dt*(-1))
    prop = backward_euler_propagator(scalar_decay_system(rate=0.25), 1.0, 1)
    assert prop.matrix[0, 0] == pytest.approx(0.8, rel=1e-15)


def test_trapezoidal_scalar_frozen_product():
    # 25 steps of width 0.01 on u' = -u: each step multiplies by 0.995/1.005
    ivp = scalar_decay_system(rate=1.0)
    prop = trapezoidal_propagator(ivp, 0.25, 25)
    closed = (0.995 / 1.005) ** 25
    assert prop.matrix[0, 0] == pytest.approx(closed, rel=1e-12)
    assert abs(prop.matrix[0, 0] - math.exp(-0.25)) < 1e-5
    assert prop.cost_units == 25.0


def test_heat_n1_frozen_matrix():
    ivp = heat1d_system(1, 1.0, 23.0, 23.0, 30.0, 0.2)
    assert ivp.a_mat.shape == (1, 1)
    assert ivp.a_mat[0, 0] == -8.0          # -2 / h^2 with h = 1/2
    assert ivp.forcing[0] == 4.0 * (23.0 + 23.0)
    assert np.array_equal(ivp.u0, [30.0])


def test_heat_steady_state_is_fixed():
    # uniform temperature equal to both boundaries: nothing should move
    ivp = heat1d_system(6, 1.0, 23.0, 23.0, 23.0, 0.2)
    assert np.allclose(ivp.a_mat @ ivp.u0 + ivp.forcing, 0.0, atol=1e-10)
    for rule in PROPAGATOR_RULES.values():
        prop = rule(ivp, 0.2, 10)
        out = prop.apply(ivp.u0)
        assert np.allclose(out, ivp.u0, rtol=0, atol=1e-9)


def test_heat_relaxes_toward_boundary_temperature():
    ivp = heat1d_system(8, 1.0, 23.0, 23.0, 30.0, 0.2)
    prop = trapezoidal_propagator(ivp, 2.0, 200)
    out = prop.apply(ivp.u0)
    assert np.all(np.abs(out - 23.0) < 0.1)


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.1, 0.5])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_one_step_maps_are_contractive(dt, n):
    # both rules are A-stable; the diffusion operator is symmetric negative
    # definite, so every one-step matrix must be a spectral contraction
    ivp = heat1d_system(n, 1.0, 0.0, 0.0, 1.0, 1.0)
    for rule in PROPAGATOR_RULES.values():
        prop = rule(ivp, dt, 1)
        assert operator_norm(prop.matrix, NormKind.SPECTRAL) < 1.0


def test_trapezoidal_is_second_order():
    ivp = scalar_decay_system(rate=1.0)
    exact = math.exp(-1.0)
    errs = [abs(trapezoidal_propagator(ivp, 1.0, s).matrix[0, 0] - exact)
            for s in (8, 16)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_backward_euler_is_first_order():
    ivp = scalar_decay_system(rate=1.0)
    exact = math.exp(-1.0)
    errs = [abs(backward_euler_propagator(ivp, 1.0, s).matrix[0, 0] - exact)
            for s in (8, 16)]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)


def test_compose_is_associative_and_adds_cost():
    rng = np.random.default_rng(5)
    props = [
        AffinePropagator(rng.normal(size=(3, 3)), rng.normal(size=3), c)
        for c in (1.0, 2.5, 4.0)
    ]
    left = compose(compose(props[2], props[1]), props[0])
    right = compose(props[2], compose(props[1], props[0]))
    assert np.allclose(left.matrix, right.matrix, rtol=1e-12, atol=1e-12)
    assert np.allclose(left.offset, right.offset, rtol=1e-12, atol=1e-12)
    assert left.cost_units == right.cost_units == 7.5
    # composition applies first, then second
    x = rng.normal(size=3)
    direct = props[2].apply(props[1].apply(props[0].apply(x)))
    assert np.allclose(left.apply(x), direct, rtol=1e-12, atol=1e-12)


def test_fine_from_onestep_folds_steps():
    ivp = heat1d_system(3, 1.0, 0.0, 5.0, 2.0, 1.0)
    one = backward_euler_propagator(ivp, 0.1, 1)
    folded = fine_from_onestep(one, 4)
    manual = one
    for _ in range(3):
        manual = compose(one, manual)
    assert np.allclose(folded.matrix, manual.matrix, rtol=1e-13)
    assert np.allclose(folded.offset, manual.offset, rtol=1e-13)
    assert folded.cost_units == 4.0
    whole = backward_euler_propagator(ivp, 0.4, 4)
    assert np.allclose(folded.matrix, whole.matrix, rtol=1e-12)
    assert np.allclose(folded.offset, whole.offset, rtol=1e-12)


def test_singular_implicit_step_is_reported():
    # backward Euler on u' = u with dt = 1 makes (I - dt A) exactly singular
    ivp = LinearIVP(np.array([[1.0]]), np.zeros(1), np.ones(1), 2.0)
    with pytest.raises(SingularSystemError) as exc_info:
        backward_euler_propagator(ivp, 1.0, 1)
    assert exc_info.value.dt == 1.0


def test_ivp_validation_and_round_trip():
    with pytest.raises(DimensionError):
        LinearIVP(np.ones((2, 3)), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(DimensionError):
        LinearIVP(np.eye(2), np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        LinearIVP(np.eye(2), np.zeros(2), np.zeros(2), 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearIVP(np.eye(2), [0.0, bad], np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            LinearIVP(np.eye(2), np.zeros(2), [bad, 0.0], 1.0)
        with pytest.raises(ValueError):
            LinearIVP(np.eye(2), np.zeros(2), np.zeros(2), bad)
    ivp = heat1d_system(4, 2.0, 1.0, 3.0, 2.0, 0.5)
    spec = PropagatorSpec("trapezoidal", 1)
    config = ExperimentConfig("echo", ivp, 1, spec, spec, 0.0, None, NormKind.SPECTRAL)
    back = parse_config(config.to_dict()).ivp
    assert np.array_equal(back.a_mat, ivp.a_mat)
    assert np.array_equal(back.forcing, ivp.forcing)
    assert np.array_equal(back.u0, ivp.u0)
    assert back.t_final == ivp.t_final and back.label == ivp.label


def test_heat_degenerate_and_apply_dim_check():
    with pytest.raises(DegenerateProblemError):
        heat1d_system(0, 1.0, 0.0, 0.0, 0.0, 1.0)
    ivp = heat1d_system(2, 1.0, 0.0, 0.0, 0.0, 1.0)
    prop = backward_euler_propagator(ivp, 0.5, 1)
    with pytest.raises(DimensionError):
        prop.apply(np.ones(3))


def _map(dim):
    return AffinePropagator(np.eye(dim), np.zeros(dim), 1.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: compose(_map(1), _map(2)), DimensionError, "different dimension"),
    (lambda: fine_from_onestep(_map(1), 0), ValueError, "step count"),
    (lambda: backward_euler_propagator(scalar_decay_system(), 1.0, 0), ValueError,
     "step count"),
    (lambda: trapezoidal_propagator(scalar_decay_system(), 0.0, 1), ValueError, "span"),
    (lambda: heat1d_system(4, 0.0, 0.0, 0.0, 0.0, 1.0), ValueError, "rod length"),
    (lambda: scalar_decay_system(rate=0.0), ValueError, "decay rate"),
])
def test_degenerate_arguments_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_propagator_registry_is_exactly_the_two_rules():
    assert set(PROPAGATOR_RULES) == {"backward-euler", "trapezoidal"}


@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.01, max_value=10.0),
       st.integers(min_value=1, max_value=30))
def test_scalar_decay_steps_always_contract(rate, span, steps):
    ivp = scalar_decay_system(rate=rate)
    be = backward_euler_propagator(ivp, span, steps).matrix[0, 0]
    tz = trapezoidal_propagator(ivp, span, steps).matrix[0, 0]
    assert 0.0 < be < 1.0
    assert abs(tz) < 1.0
