"""The coarse/fine interface iteration as an asynchronous mapping.

Each interface state is owned by one worker. On activation, worker i reads
its predecessor twice: slot 1 takes the freshest version the schedule lets
it see (the new coarse input), slot 2 replays the version it consumed at
its previous activation (the remembered input whose coarse term it cancels).
When both readings coincide the update collapses to a pure fine application,
which is what drives finite termination: exactness cascades down the chain
one worker at a time regardless of interleaving.
"""
from __future__ import annotations

import numpy as np

from .async_engine import AsyncMapping, simulate_async
from .async_log import AsyncTrace
from .model import AffinePropagator
from .parareal import coarse_init, parareal_update
from .schedule import AsyncSchedule

FRESH_SLOT = 1
REMEMBERED_SLOT = 2


def async_parareal_mapping(coarse: AffinePropagator, fine: AffinePropagator,
                           p: int) -> AsyncMapping:
    """Two-slot mapping whose synchronous sweep is the classic iteration.

    Component 0 is pinned to the initial state; component i reads only
    component i - 1.
    """
    if p < 1:
        raise ValueError(f"need p >= 1 subintervals, got {p}")
    # a worker's remembered reading is its previous fresh one, so its coarse
    # memo holds G(remembered) from its previous activation
    memos: list[list] = [[None, None] for _ in range(p + 1)]

    def eval_fn(i: int, values: list) -> np.ndarray:
        fresh, remembered = values
        return parareal_update(coarse, fine, fresh, remembered, memos[i])

    read_set = {i: ((i - 1, FRESH_SLOT), (i - 1, REMEMBERED_SLOT)) for i in range(1, p + 1)}
    return AsyncMapping(eval_fn=eval_fn, read_set=read_set,
                        persistent_slots={REMEMBERED_SLOT: FRESH_SLOT})


def run_async_parareal(coarse: AffinePropagator, fine: AffinePropagator, u0,
                       p: int, schedule: AsyncSchedule,
                       epsilon: float = 0.0) -> AsyncTrace:
    """Simulate the asynchronous iteration from the coarse initialization.

    With a positive epsilon, stops once all per-worker last-update changes
    are strictly below it and the read edges are drained; with epsilon 0
    the run continues to exact quiescence (a full fairness window without
    any bitwise change), which the finite-termination property guarantees
    at desk scale. A negative or NaN epsilon raises before the run.
    """
    if not epsilon >= 0.0:  # NaN compares False both ways
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    mapping = async_parareal_mapping(coarse, fine, p)
    init = coarse_init(coarse, u0, p)
    eps = float(epsilon)

    def stop(k: int, deltas: np.ndarray, drained) -> bool:
        # the drain check walks every read plan, so it runs only below eps
        return float(np.max(deltas[1:])) < eps and drained()

    return simulate_async(mapping, init, schedule, stop=stop if eps else None)
