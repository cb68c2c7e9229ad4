"""Linear initial value problems and one-step integrators as affine maps.

A propagator over a subinterval is materialized once as ``state -> matrix @
state + offset`` so repeated application during the iteration costs a single
matvec. Costs are tracked in solve units: one implicit solve per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateProblemError,
    DimensionError,
    SingularMatrixError,
    SingularSystemError,
    echo,
)
from .linalg import as_matrix, lu_solve

UNIT_STEP_COST = 1.0  # cost units charged per implicit solve


@dataclass
class LinearIVP:
    """u'(t) = A u(t) + c on [0, T] with u(0) = u0."""

    a_mat: np.ndarray
    forcing: np.ndarray
    u0: np.ndarray
    t_final: float
    label: str = "ivp"

    def __post_init__(self):
        self.a_mat = as_matrix(self.a_mat)
        if self.a_mat.shape[0] != self.a_mat.shape[1]:
            raise DimensionError(f"system matrix must be square, got {self.a_mat.shape}")
        self.forcing = np.asarray(self.forcing, dtype=float).reshape(-1)
        self.u0 = np.asarray(self.u0, dtype=float).reshape(-1)
        n = self.a_mat.shape[0]
        if self.forcing.shape[0] != n or self.u0.shape[0] != n:
            raise DimensionError("forcing and initial state must match the matrix size")
        if not (np.all(np.isfinite(self.forcing)) and np.all(np.isfinite(self.u0))):
            raise ValueError("forcing c and initial state u0 must be finite")
        self.t_final = float(self.t_final)
        if not 0.0 < self.t_final < np.inf:
            raise ValueError(f"final time T must be positive and finite, got {self.t_final}")

    @property
    def dim(self) -> int:
        return self.a_mat.shape[0]

    def to_dict(self) -> dict:
        return {
            "A": self.a_mat.tolist(),
            "c": self.forcing.tolist(),
            "u0": self.u0.tolist(),
            "T": self.t_final,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearIVP":
        """Decode ``to_dict`` output: A, c, u0 and T hold JSON numbers (never
        strings or bools) and the label is a string."""
        for key, depth in (("A", 2), ("c", 1), ("u0", 1), ("T", 0)):
            _require_numbers(doc[key], depth, key)
        label = doc.get("label", "ivp")
        if not isinstance(label, str):
            raise TypeError(f"label: expected a string, got {echo(label)}")
        return cls(doc["A"], doc["c"], doc["u0"], doc["T"], label)


def _require_numbers(value, depth: int, where: str) -> None:
    """Require ``depth`` levels of lists around JSON numbers."""
    kinds = list if depth else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{where}: expected {'a list' if depth else 'a number'}, "
                        f"got {echo(value)}")
    for j, item in enumerate(value if depth else ()):
        _require_numbers(item, depth - 1, f"{where}[{j}]")


@dataclass(frozen=True, eq=False)
class AffinePropagator:
    """Exact affine action of an integrator over a fixed span.

    cost_units counts the implicit solves folded into the map; applying the
    map never re-incurs them.
    """

    matrix: np.ndarray
    offset: np.ndarray
    cost_units: float

    def apply(self, state) -> np.ndarray:
        s = np.asarray(state, dtype=float).reshape(-1)
        if s.shape[0] != self.matrix.shape[0]:
            raise DimensionError(
                f"state has dim {s.shape[0]}, propagator expects {self.matrix.shape[0]}"
            )
        return self.matrix @ s + self.offset

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def compose(second: AffinePropagator, first: AffinePropagator) -> AffinePropagator:
    """Affine map applying ``first`` then ``second``; costs add."""
    if second.dim != first.dim:
        raise DimensionError("cannot compose propagators of different dimension")
    return AffinePropagator(
        matrix=second.matrix @ first.matrix,
        offset=second.matrix @ first.offset + second.offset,
        cost_units=second.cost_units + first.cost_units,
    )


def fine_from_onestep(onestep: AffinePropagator, count: int) -> AffinePropagator:
    """Fold ``count`` applications of a one-step map into a single map."""
    if count < 1:
        raise ValueError(f"step count must be >= 1, got {count}")
    folded = onestep
    for _ in range(count - 1):
        folded = compose(onestep, folded)
    return folded


def _theta_propagator(ivp: LinearIVP, span: float, steps: int,
                      theta: float) -> AffinePropagator:
    """theta-method over ``span`` in ``steps`` equal implicit steps.

    One step maps u to (I - theta dt A)^{-1} ((I + (1 - theta) dt A) u + dt c).
    """
    if steps < 1:
        raise ValueError(f"step count must be >= 1, got {steps}")
    if not span > 0.0:
        raise ValueError(f"span must be positive, got {span}")
    dt = span / steps
    eye = np.eye(ivp.dim)
    lhs = eye - theta * dt * ivp.a_mat
    rhs = np.hstack([eye + (1.0 - theta) * dt * ivp.a_mat, dt * ivp.forcing[:, None]])
    try:
        solved = lu_solve(lhs, rhs)
    except SingularMatrixError as err:
        raise SingularSystemError(
            f"implicit step with dt={dt} is singular (pivot {err.pivot:.3e})",
            dt=dt,
            pivot=err.pivot,
        ) from err
    step = AffinePropagator(solved[:, :-1], solved[:, -1], UNIT_STEP_COST)
    return fine_from_onestep(step, steps)


def backward_euler_propagator(ivp: LinearIVP, span: float, steps: int) -> AffinePropagator:
    """Backward Euler (theta = 1) over ``span`` in ``steps`` equal implicit steps."""
    return _theta_propagator(ivp, span, steps, 1.0)


def trapezoidal_propagator(ivp: LinearIVP, span: float, steps: int) -> AffinePropagator:
    """Trapezoidal rule (theta = 1/2) over ``span`` in ``steps`` equal implicit steps."""
    return _theta_propagator(ivp, span, steps, 0.5)


PROPAGATOR_RULES = {
    "backward-euler": backward_euler_propagator,
    "trapezoidal": trapezoidal_propagator,
}


def heat1d_system(n_interior: int, length: float, boundary_left: float,
                  boundary_right: float, initial_temp: float,
                  t_final: float) -> LinearIVP:
    """Method-of-lines 1-D heat equation with Dirichlet boundary temperatures.

    Second-order central differences on n_interior equispaced nodes give
    A = (1/h^2) tridiag(1, -2, 1) with h = length / (n_interior + 1); the
    boundary temperatures enter the forcing at the end nodes.
    """
    if n_interior < 1:
        raise DegenerateProblemError(
            f"need at least one interior node, got {echo(n_interior)}"
        )
    if not length > 0.0:
        raise ValueError(f"rod length must be positive, got {echo(length)}")
    h = length / (n_interior + 1)
    inv_h2 = 1.0 / (h * h)
    a_mat = inv_h2 * (
        np.diag(np.full(n_interior, -2.0))
        + np.diag(np.ones(n_interior - 1), 1)
        + np.diag(np.ones(n_interior - 1), -1)
    )
    forcing = np.zeros(n_interior)
    forcing[0] += boundary_left * inv_h2
    forcing[-1] += boundary_right * inv_h2
    u0 = np.full(n_interior, float(initial_temp))
    return LinearIVP(a_mat, forcing, u0, t_final, label=f"heat1d-n{n_interior}")


def scalar_decay_system(rate: float = 1.0, initial: float = 1.0,
                        t_final: float = 1.0) -> LinearIVP:
    """u' = -rate * u, the one-dimensional smoke-test problem."""
    if not rate > 0.0:
        raise ValueError(f"decay rate must be positive, got {echo(rate)}")
    return LinearIVP([[-rate]], [0.0], [initial], t_final, label="scalar-decay")
