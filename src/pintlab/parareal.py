"""Synchronous coarse/fine interface iteration and its block-matrix form.

The iteration refines interface states lambda_0..lambda_p jointly: each
sweep replaces lambda_i by the coarse prediction from the freshly updated
predecessor plus the fine-minus-coarse correction evaluated at the previous
sweep's predecessor. After k sweeps the first k interface states agree with
the purely sequential fine solution, so p sweeps terminate exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import BlockVector, blocks_match, lu_solve
from .model import AffinePropagator

STOP_THRESHOLD = "threshold"
STOP_KMAX = "k_max"
STOP_EXACT = "exact"


def parareal_update(coarse: AffinePropagator, fine: AffinePropagator,
                    fresh_prev: np.ndarray, old_prev: np.ndarray) -> np.ndarray:
    """One interface-state correction from two predecessor readings.

    Computes coarse(fresh_prev) + fine(old_prev) - coarse(old_prev). When the
    two readings coincide bitwise, the coarse terms cancel algebraically and
    the fine application is returned directly; that keeps already-converged
    states bitwise stable instead of accumulating rounding noise.
    """
    if (fresh_prev == old_prev).all():
        return fine.apply(old_prev)
    return (coarse.apply(fresh_prev) + fine.apply(old_prev)) - coarse.apply(old_prev)


def _propagate(prop: AffinePropagator, u0, p: int) -> BlockVector:
    """u0 followed by its images under 1..p applications of ``prop``."""
    if p < 1:
        raise ValueError(f"need p >= 1 subintervals, got {p}")
    state = np.asarray(u0, dtype=float).reshape(-1)
    rows = np.empty((p + 1, state.shape[0]))
    rows[0] = state
    for j in range(1, p + 1):
        state = prop.apply(state)
        rows[j] = state
    return BlockVector(rows)


def sequential_fine_solve(fine: AffinePropagator, u0, p: int) -> BlockVector:
    """Propagate u0 across all p subintervals with the fine map only.

    This is the reference solution every parallel variant must reproduce.
    """
    return _propagate(fine, u0, p)


def coarse_init(coarse: AffinePropagator, u0, p: int) -> BlockVector:
    """Initial interface states from a sequential coarse pass."""
    return _propagate(coarse, u0, p)


def parareal_iterate(coarse: AffinePropagator, fine: AffinePropagator,
                     lam: BlockVector) -> BlockVector:
    """One full sweep over all interface states, ascending in i.

    The coarse term of component i uses the predecessor already updated in
    this sweep; component 0 is pinned to its current value.
    """
    new = lam.copy()
    for i in range(1, lam.n_blocks):
        new.data[i] = parareal_update(coarse, fine, new.data[i - 1], lam.data[i - 1])
    return new


@dataclass
class SyncTrace:
    """Record of a synchronous run: the last iterate plus stop bookkeeping.

    finite_termination_index is the first sweep (0 is the coarse
    initialization) whose iterate matched the reference given to
    run_parareal, or None when no reference was given or none matched.
    """

    final: BlockVector
    k_final: int
    stop_reason: str
    deltas: list[float]
    finite_termination_index: int | None

    def to_json(self) -> str:
        return json.dumps({
            "k_final": self.k_final,
            "stop_reason": self.stop_reason,
            "deltas": list(self.deltas),
        }, sort_keys=True)


def run_parareal(coarse: AffinePropagator, fine: AffinePropagator, u0, p: int,
                 epsilon: float, k_max: int | None = None, *,
                 reference: BlockVector | None = None) -> SyncTrace:
    """Iterate from the coarse initialization until a stop condition fires.

    Stops when the sweep-to-sweep change drops strictly below epsilon
    ("threshold"), when k reaches p ("exact": the iterate now equals the
    sequential fine solution), or at an explicit smaller budget ("k_max").
    Component i is frozen once i < k: by then it carries its exact value, so
    recomputing it would only waste the corresponding processor.

    Only the previous and the current iterate are held, in two buffers that
    swap roles each sweep. Rows below k-1 already agree in both, so sweep k
    copies over the row that froze last sweep and rewrites rows k..p only;
    its delta is taken over those rows. When a reference is given, each
    iterate is tested against it (``blocks_match`` on every block) until
    the first match, whose sweep index becomes finite_termination_index.
    epsilon and k_max only choose when to stop: the iterate after sweep j is
    the same, bitwise, in every run that gets that far.
    """
    if not epsilon >= 0.0:  # NaN compares False both ways
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    cap = p if k_max is None else min(int(k_max), p)
    if cap < 1:
        raise ValueError(f"iteration budget must allow k >= 1, got k_max={k_max}")
    lam = coarse_init(coarse, u0, p)
    new = BlockVector(np.zeros_like(lam.data))
    match = None
    if reference is not None and blocks_match(lam.data, reference.data).all():
        match = 0
    deltas: list[float] = []
    stop_reason = STOP_KMAX
    for k in range(1, cap + 1):
        old, cur = lam.data, new.data
        cur[k - 1] = old[k - 1]
        # Components below k are already exact; Algorithm-style freeze.
        for i in range(k, p + 1):
            cur[i] = parareal_update(coarse, fine, cur[i - 1], old[i - 1])
        change = np.abs(cur[k:] - old[k:])
        delta = float(np.max(change)) if change.size else 0.0
        if not math.isfinite(delta):  # an iterate stays finite, like every BlockVector
            raise ValueError("block entries must be finite")
        deltas.append(delta)
        lam, new = new, lam
        if (match is None and reference is not None
                and blocks_match(lam.data, reference.data).all()):
            match = k
        if delta < epsilon:
            stop_reason = STOP_THRESHOLD
            break
        if k == p:
            stop_reason = STOP_EXACT
            break
    return SyncTrace(final=lam, k_final=k, stop_reason=stop_reason, deltas=deltas,
                     finite_termination_index=match)


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
