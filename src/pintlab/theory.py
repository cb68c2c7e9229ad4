"""Reference and theory forms that no run executes.

The tests and scripts check the lab against these; ``pintlab run`` never
imports this module. It holds the plain synchronous sweep, the
block-Richardson form of the interface conditions, the certified ordering
of the two contraction factors, the classical absolute-splitting test for
asynchronous relaxation, the diagonal-splitting relaxation demo it applies
to and that demo's direct-solve oracle, the large-p limits of the cost
model, and the spectral radius that test rests on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import CheckResult, ContractionReport, CostParams
from .async_engine import AsyncMapping
from .errors import DimensionError, UndefinedLimitError
from .linalg import BlockVector, _square, lu_solve
from .model import AffinePropagator
from .parareal import parareal_update


def parareal_iterate(coarse: AffinePropagator, fine: AffinePropagator,
                     lam: BlockVector) -> BlockVector:
    """One full sweep over all interface states, ascending in i.

    The coarse term of component i uses the predecessor already updated in
    this sweep; component 0 is pinned to its current value. Every row goes
    through the four-argument ``parareal_update``, with no coarse memo and
    no frozen prefix: the reference that ``run_parareal`` is tested against.
    """
    new = lam.copy()
    for i in range(1, lam.n_blocks):
        new.data[i] = parareal_update(coarse, fine, new.data[i - 1], lam.data[i - 1])
    return new


@dataclass(eq=False)
class BlockSystem:
    """All-at-once form of the interface conditions.

    a_block has identity diagonal blocks and minus-the-fine-map subdiagonal
    blocks; m_block is the coarse preconditioner with the same shape. The
    right-hand side stacks the initial state followed by p copies of the fine
    map's offset. The iteration is exactly preconditioned Richardson:
    lam_next = (I - M^{-1} A) lam + M^{-1} b.
    """

    a_block: np.ndarray
    m_block: np.ndarray
    rhs: np.ndarray
    p: int
    dim: int

    def iteration_matrix(self) -> np.ndarray:
        """I - M^{-1} A, with M^{-1} A from one LU solve. When the coarse map's
        entries are below one in magnitude, no pivot swaps a row."""
        n = (self.p + 1) * self.dim
        return np.eye(n) - lu_solve(self.m_block, self.a_block)

    def richardson_step(self, lam: BlockVector) -> BlockVector:
        """Apply lam -> (I - M^{-1} A) lam + M^{-1} b without forming I - M^{-1}A."""
        flat = lam.flat
        residual = self.rhs - self.a_block @ flat
        updated = flat + lu_solve(self.m_block, residual)
        return BlockVector.from_flat(updated, self.p + 1)


def build_parareal_system(coarse: AffinePropagator, fine: AffinePropagator,
                          u0, p: int) -> BlockSystem:
    """Assemble the all-at-once system whose fixed point is the fine solution."""
    if p < 1:
        raise ValueError(f"need p >= 1 subintervals, got {p}")
    if coarse.dim != fine.dim:
        raise DimensionError("coarse and fine propagators differ in dimension")
    d = fine.dim
    start = np.asarray(u0, dtype=float).reshape(-1)
    if start.shape[0] != d:
        raise DimensionError(f"initial state has dim {start.shape[0]}, expected {d}")
    n = (p + 1) * d
    a_block = np.eye(n)
    m_block = np.eye(n)
    rhs = np.zeros(n)
    rhs[0:d] = start
    for i in range(1, p + 1):
        lo = i * d
        a_block[lo : lo + d, lo - d : lo] = -fine.matrix
        m_block[lo : lo + d, lo - d : lo] = -coarse.matrix
        rhs[lo : lo + d] = fine.offset
    return BlockSystem(a_block=a_block, m_block=m_block, rhs=rhs, p=p, dim=d)


@dataclass(frozen=True)
class RateComparison:
    """Ordering certificate between the two contraction factors."""

    applicable: bool          # False when the async factor is not below one
    sync_factor: float
    async_factor: float
    gap: float | None         # async - sync, certified positive when applicable


def compare_factors(report: ContractionReport) -> RateComparison:
    """Certify sync_factor < async_factor whenever the async factor is below one."""
    if report.async_factor >= 1.0:
        return RateComparison(False, report.sync_factor, report.async_factor, None)
    gap = report.async_factor - report.sync_factor
    if gap <= 0.0 and report.defect_norm > 0.0:
        raise AssertionError(
            "ordering violated: sync factor should be strictly below the "
            f"async factor ({report.sync_factor} vs {report.async_factor})"
        )
    return RateComparison(True, report.sync_factor, report.async_factor, gap)


def chazan_miranker_check(a_mat, m_mat) -> CheckResult:
    """Classical absolute-iteration-matrix test for asynchronous relaxation.

    Computes rho(|I - M^{-1}A|); strictly below one is necessary and
    sufficient for every fair bounded-staleness execution of the splitting
    to converge. The margin is one minus the radius.
    """
    a = np.asarray(a_mat, dtype=float)
    m = np.asarray(m_mat, dtype=float)
    iteration = np.eye(a.shape[0]) - lu_solve(m, a)
    radius = spectral_radius(np.abs(iteration))
    return CheckResult(radius < 1.0, 1.0 - radius)


def linear_relaxation_mapping(a_mat, m_diag, rhs) -> tuple[AsyncMapping, BlockVector]:
    """Diagonal-splitting relaxation x -> (I - M^{-1}A) x + M^{-1} b as an
    async mapping over scalar components.

    Returns the mapping together with the initial state (component 0 is an
    unused pinned placeholder; unknowns start at zero). Single read slot,
    each component reads every unknown.
    """
    a = np.asarray(a_mat, dtype=float)
    d = np.asarray(m_diag, dtype=float).reshape(-1)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    n = a.shape[0]
    if a.shape != (n, n) or d.shape[0] != n or b.shape[0] != n:
        raise DimensionError("relaxation pieces have mismatched sizes")
    if np.any(d == 0.0):
        raise ValueError("splitting diagonal must be invertible")

    def eval_fn(i: int, values: list) -> np.ndarray:
        x = np.concatenate(values)
        return np.array([x[i - 1] + (b[i - 1] - a[i - 1] @ x) / d[i - 1]])

    read_set = {i: tuple((j, 1) for j in range(1, n + 1)) for i in range(1, n + 1)}
    mapping = AsyncMapping(eval_fn=eval_fn, read_set=read_set)
    init = BlockVector(np.zeros((n + 1, 1)))
    return mapping, init


def relaxation_solution(a_mat, rhs) -> np.ndarray:
    """Direct solve used as the oracle for the relaxation demo."""
    return lu_solve(np.asarray(a_mat, dtype=float), np.asarray(rhs, dtype=float))


def asymptotic_speedups(params: CostParams, k: int) -> tuple[float, float, float]:
    """Large-p limits of the three cost ratios at fixed iteration count k:
    sequential/sync, sequential/async, and sync/async."""
    if params.coarse_cost <= 0.0:
        raise UndefinedLimitError(
            "asymptotic ratios diverge or degenerate with zero coarse cost"
        )
    sync_limit = params.fine_cost / (params.coarse_cost + k * params.overhead)
    async_limit = params.fine_cost / params.coarse_cost
    cross_limit = 1.0 + k * params.overhead / params.coarse_cost
    return sync_limit, async_limit, cross_limit


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude, from LAPACK's nonsymmetric eigensolver.

    Balancing isolates the eigenvalues of triangular inputs, so a strictly
    triangular (nilpotent) matrix gets a radius of exactly zero.
    """
    a = _square(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))
