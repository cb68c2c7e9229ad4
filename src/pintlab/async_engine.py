"""Deterministic discrete-event simulator for asynchronous fixed-point maps.

One event is one component update. The scheduled component recomputes its
value from version-stamped values of its inputs; how stale each reading
may be is driven by a seeded schedule, so every run is exactly repeatable.
Component 0 is pinned (it models a constant source such as the initial
state) and is never scheduled. Every value produced goes into the trace's
event log, and every read is served from that log.

Read slots come in two flavors. A sampled slot takes a staleness in
{0..delay_bound} from the schedule's script and reads that many source
updates behind the newest value. A persisted slot replays whichever version
this component consumed through its base slot at its previous event - the
"remembered input" pattern that lets a worker cancel its own stale coarse
term without re-reading old data from the network. ``read_plans`` in
``async_log`` is the one place that spells this rule out; the log itself
(``AsyncTrace``) and the post-hoc audits (``async_audit``) live beside this
module, so a run compiles three small modules instead of one large one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .async_log import AsyncTrace, read_plans
from .errors import DimensionError, HorizonExhausted
from .linalg import BlockVector
from .schedule import STOP_HORIZON, STOP_PREDICATE, STOP_QUIESCENCE, AsyncSchedule


@dataclass
class AsyncMapping:
    """Componentwise fixed-point map evaluated from positional readings.

    read_set[i] lists the (source, slot) pairs component i consumes, and
    eval_fn(i, values) receives the values they read, in that order. Slots
    named in persistent_slots replay the version their base slot consumed at
    the component's previous event; ``plans`` is read_plans of the two, and
    ``n_sampled`` counts each component's sampled reads, one lag each.
    """

    eval_fn: Callable[[int, list[np.ndarray]], np.ndarray]
    read_set: dict[int, tuple[tuple[int, int], ...]]
    persistent_slots: dict[int, int] = field(default_factory=dict)
    plans: dict[int, tuple[tuple[int, int | None], ...]] = field(init=False, repr=False)
    n_sampled: dict[int, int] = field(init=False, repr=False)  # sampled reads per component

    @property
    def n_updatable(self) -> int:
        return len(self.read_set)

    def __post_init__(self):
        p = self.n_updatable
        if p < 1 or sorted(self.read_set) != list(range(1, p + 1)):
            raise ValueError(f"read_set keys must be 1..n, n >= 1; got {sorted(self.read_set)}")
        self.plans = read_plans(self.read_set, self.persistent_slots, p + 1)
        self.n_sampled = {i: sum(base is None for _, base in plan)
                          for i, plan in self.plans.items()}


def simulate_async(mapping: AsyncMapping, init: BlockVector, schedule: AsyncSchedule,
                   stop: Callable[[int, np.ndarray, Callable[[], bool]], bool] | None = None
                   ) -> AsyncTrace:
    """Run the event loop until a stop condition fires.

    Halts when stop(k, last_deltas, drained) returns True after event k, or
    at exact quiescence. last_deltas is a copy of each component's last
    change, +inf until its first update. drained() is True when, for each
    edge, the freshest version its reader's latest event took through a
    sampled slot has the bytes of the source's newest value; a self-read
    always is drained, a component that never fired has drained nothing,
    and the check walks the read plans only when called. Exhausting the
    schedule's script (max_events events) first sets stop_reason to
    STOP_HORIZON and raises HorizonExhausted carrying the partial trace.
    Every read is served from the trace being built, so the returned log is
    exactly what each event consumed.

    Quiescence means no admissible pending read could change any component.
    A single fair window of bitwise-unchanged values is not enough to
    certify that: a read may lag up to delay_bound versions behind the
    newest, so a maximally stale read could still resurface an older value.
    After delay_bound + 3 consecutive unchanged windows the newest
    delay_bound + 1 versions of every component hold the constant values
    and every component's latest firing consumed only those, so any pending
    evaluation replays a computation already seen to be a no-op.
    """
    p = mapping.n_updatable
    if init.n_blocks != p + 1:
        raise DimensionError(f"init has {init.n_blocks} blocks, expected {p + 1}")
    trace = AsyncTrace(init.copy(), schedule, dict(mapping.read_set),
                       dict(mapping.persistent_slots))

    plans, n_sampled = mapping.plans, mapping.n_sampled
    # The log is the only record of versions: a component's version is the
    # number of events it has logged.
    rows, logged = trace.rows, trace.read_versions
    last_deltas = np.full(p + 1, np.inf)
    last_deltas[0] = 0.0
    zero_streak = 0
    quiescent_streak = (schedule.delay_bound + 3) * schedule.window(p)

    def drained() -> bool:  # the rule in the docstring
        for i, plan in plans.items():
            if not rows[i]:
                return False
            consumed: dict[int, int] = {}
            for (source, base), version in zip(plan, logged[i][-len(plan):]):
                if base is None and source != i:
                    consumed[source] = max(consumed.get(source, 0), version)
            for src, version in consumed.items():
                if (trace.version_value(src, version).tobytes()
                        != trace.version_value(src, len(rows[src])).tobytes()):
                    return False
        return True

    for k, (comp, lags) in enumerate(schedule.script(mapping)):
        if len(lags) != n_sampled[comp]:
            raise ValueError(f"event {k}: component {comp} has {n_sampled[comp]} "
                             f"sampled reads, but the script gave {len(lags)} lags")
        plan = plans[comp]
        # the versions this component read at its previous event, 0s before its first
        previous = logged[comp][-len(plan):] or [0] * len(plan)
        lag = iter(lags)
        versions = [max(len(rows[source]) - next(lag), 0) if base is None else previous[base]
                    for source, base in plan]
        values = [trace.version_value(source, version)
                  for (source, _), version in zip(plan, versions)]

        # eval_fn may reuse its output buffer: the log keeps a copy.
        new_value = np.asarray(mapping.eval_fn(comp, values), dtype=float)
        current = trace.version_value(comp, len(rows[comp]))
        if new_value.shape != current.shape:
            raise DimensionError(f"component {comp} produced shape {new_value.shape}, "
                                 f"expected {current.shape}")
        delta = float(np.max(np.abs(new_value - current))) if new_value.size else 0.0
        # a NaN or inf in new_value makes delta non-finite: only then look closer
        if not math.isfinite(delta) and not np.isfinite(new_value).all():
            raise ValueError(f"component {comp} produced a non-finite value at event {k}")
        last_deltas[comp] = delta
        trace.append(comp, versions, delta, new_value)

        zero_streak = zero_streak + 1 if delta == 0.0 else 0
        if zero_streak >= quiescent_streak:
            trace.stop_reason = STOP_QUIESCENCE
            return trace
        if stop is not None and stop(k, last_deltas.copy(), drained):
            trace.stop_reason = STOP_PREDICATE
            return trace

    trace.stop_reason = STOP_HORIZON
    raise HorizonExhausted(f"no stop condition met within {trace.n_events} events", trace)
