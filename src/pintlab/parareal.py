"""Synchronous coarse/fine interface iteration and its corrector kernel.

The iteration refines interface states lambda_0..lambda_p jointly: each
sweep replaces lambda_i by the coarse prediction from the freshly updated
predecessor plus the fine-minus-coarse correction evaluated at the previous
sweep's predecessor. After k sweeps the first k interface states agree with
the purely sequential fine solution, so p sweeps terminate exactly.

``parareal_update`` is the one corrector kernel; the synchronous sweeps and
the asynchronous mapping call it once per update, each with a per-component
coarse memo, so an update costs two matrix products as the classic cost
count has it. The reference forms that runs never execute (the plain sweep
``parareal_iterate`` and the block-Richardson system) live in ``theory``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SweepOverflowError
from .linalg import BlockVector, blocks_match
from .model import AffinePropagator

STOP_THRESHOLD = "threshold"
STOP_KMAX = "k_max"
STOP_EXACT = "exact"
# Rows per vectorized step of a sweep's delta and reference test: their
# temporaries stay a few KiB instead of an iterate's size beside the memos.
SWEEP_CHUNK = 64


def parareal_update(coarse: AffinePropagator, fine: AffinePropagator,
                    fresh_prev: np.ndarray, old_prev: np.ndarray,
                    memo: list | None = None) -> np.ndarray:
    """One interface-state correction from two predecessor readings.

    Computes G(fresh_prev) + F(old_prev) - G(old_prev), where G and F are the
    coarse and fine maps ``matrix @ x + offset``. When the two readings
    coincide (``==`` on every entry), the coarse terms cancel algebraically
    and F(old_prev) is returned directly; that keeps already-converged
    states bitwise stable instead of accumulating rounding noise.

    ``memo`` is one component's coarse memo: a list ``[key, value]``,
    ``[None, None]`` at first, that then holds the bytes of the last coarse
    input and its G value. G(old_prev) is taken from it when old_prev's bytes
    equal the key (bytes, not ``==``, so a signed zero is never exchanged for
    its twin), and the memo then takes G(fresh_prev). A caller whose old
    reading is its previous fresh one pays two matrix products per update,
    and one when the readings coincide. With or without a memo the result
    has the same bits.
    """
    result = fine.matrix @ old_prev
    result += fine.offset
    # list equality compares Python floats with ==, entry by entry, as
    # (fresh_prev == old_prev).all() does, at a third of its cost on short rows
    if fresh_prev.tolist() == old_prev.tolist():
        return result
    g_fresh = coarse.matrix @ fresh_prev
    g_fresh += coarse.offset
    if memo is not None and memo[0] == old_prev.tobytes():
        g_old = memo[1]
    else:
        g_old = coarse.matrix @ old_prev + coarse.offset
    if memo is not None:
        memo[0], memo[1] = fresh_prev.tobytes(), g_fresh
    result += g_fresh  # F + G rounds as G + F: IEEE addition commutes
    result -= g_old
    return result


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


def _row_chunks(start: int, stop: int) -> list[slice]:
    return [slice(j, j + SWEEP_CHUNK) for j in range(start, stop, SWEEP_CHUNK)]


def _matches(iterate: np.ndarray, reference: np.ndarray) -> bool:
    """``blocks_match(iterate, reference).all()``, a chunk of rows at a time
    up to the first mismatch."""
    return all(blocks_match(iterate[rows], reference[rows]).all()
               for rows in _row_chunks(0, iterate.shape[0]))


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises SweepOverflowError
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
    its delta is taken over those rows. Each component keeps a coarse memo
    (``parareal_update``): its old reading is the fresh one of its previous
    sweep, whose coarse value it still holds. When a reference is given, each
    iterate is tested against it (``blocks_match`` on every block) until
    the first match, whose sweep index becomes finite_termination_index. The
    delta and that test take SWEEP_CHUNK rows at a time, so no temporary the
    size of an iterate sits beside the memos (about four iterates at d = 16).
    epsilon and k_max only choose when to stop: the iterate after sweep j is
    the same, bitwise, in every run that gets that far. A sweep whose delta
    is not finite raises SweepOverflowError, which carries its index.
    """
    if not epsilon >= 0.0:  # NaN compares False both ways
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    cap = p if k_max is None else min(int(k_max), p)
    if cap < 1:
        raise ValueError(f"iteration budget must allow k >= 1, got k_max={k_max}")
    lam = coarse_init(coarse, u0, p)
    new = BlockVector(np.zeros_like(lam.data))
    match = None
    if reference is not None and _matches(lam.data, reference.data):
        match = 0
    memos: list[list] = [[None, None] for _ in range(p + 1)]  # coarse memo per component
    deltas: list[float] = []
    stop_reason = STOP_KMAX
    for k in range(1, cap + 1):
        old, cur = lam.data, new.data
        cur[k - 1] = old[k - 1]
        # Components below k are already exact; Algorithm-style freeze.
        for i in range(k, p + 1):
            cur[i] = parareal_update(coarse, fine, cur[i - 1], old[i - 1], memos[i])
        delta = float(np.max([np.max(np.abs(cur[rows] - old[rows]), initial=0.0)
                              for rows in _row_chunks(k, p + 1)]))
        if not math.isfinite(delta):  # an iterate stays finite, like every BlockVector
            raise SweepOverflowError(f"sweep {k} of the synchronous run overflows: its "
                                     f"iterate and its change must be finite", k)
        deltas.append(delta)
        lam, new = new, lam
        if (match is None and reference is not None
                and _matches(lam.data, reference.data)):
            match = k
        if delta < epsilon:
            stop_reason = STOP_THRESHOLD
            break
        if k == p:
            stop_reason = STOP_EXACT
            break
    return SyncTrace(final=lam, k_final=k, stop_reason=stop_reason, deltas=deltas,
                     finite_termination_index=match)
