"""Packing and post-hoc audits of an asynchronous event log.

``from_records`` packs events recorded elsewhere into a trace; no run calls
it. ``validate_schedule`` replays a trace against the fairness window and
the staleness bound its schedule declares, and checks that every persisted
read replays what its base slot read before; ``update_counts`` gives the
per-component update totals the asynchronous cost model charges. The audits
read only the log's columns, and a run loads this module with its first
schedule.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .async_log import AsyncTrace, UpdateRecord, read_plans
from .errors import DimensionError
from .linalg import BlockVector
from .schedule import AsyncSchedule


def from_records(records: Iterable[UpdateRecord], values: Iterable,
                 initial: BlockVector, schedule: AsyncSchedule,
                 persistent_slots: dict[int, int] | None = None,
                 stop_reason: str = "") -> AsyncTrace:
    """Pack records and the values they produced into a trace, for offline
    checks of events recorded elsewhere; every record comes back unchanged
    from ``events``.

    Components and read sources must lie in 0..n_updatable, every record
    of a component must read the (source, slot) pairs of its first, and
    the persisted slots must pass read_plans.
    """
    trace = AsyncTrace(initial, schedule, {}, dict(persistent_slots or {}), stop_reason)
    for k, (record, value) in enumerate(zip(records, values, strict=True)):
        comp, pattern = record.component, tuple([(s, slot) for s, slot, _ in record.reads])
        if not all(0 <= c < initial.n_blocks for c in [comp, *(s for s, _ in pattern)]):
            raise DimensionError(f"{record}: components lie in 0..{trace.n_updatable}")
        if trace.read_set.setdefault(comp, pattern) != pattern:
            raise ValueError(f"event {k}: component {comp} reads {pattern}, but its "
                             f"earlier events read {trace.read_set[comp]}")
        value = np.asarray(value, dtype=float)
        if value.shape != (initial.block_dim,):
            raise DimensionError(
                f"value of shape {value.shape} for blocks of dim {initial.block_dim}")
        trace.append(comp, [version for *_, version in record.reads], record.delta, value)
    read_plans(trace.read_set, trace.persistent_slots)
    return trace


@dataclass
class ScheduleValidation:
    """Finite-horizon check of the fairness and bounded-staleness assumptions.

    Violations are data, not errors: fairness entries are (window_start,
    component) pairs (first offending window per component), staleness
    entries are (event, source, version, oldest_admissible), and provenance
    entries flag persisted reads that do not replay the component's previous
    base-slot consumption.
    """

    fairness_violations: list[tuple[int, int]]
    staleness_violations: list[tuple[int, int, int, int]]
    provenance_violations: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not (
            self.fairness_violations
            or self.staleness_violations
            or self.provenance_violations
        )


def validate_schedule(trace: AsyncTrace) -> ScheduleValidation:
    """Replay a trace and audit it against its declared (D, W).

    A component fails fairness exactly when two of its consecutive firings,
    counting sentinels at -1 and at the trace length, lie more than W events
    apart; its first offending window starts just after the earlier firing.
    """
    bound = trace.schedule.delay_bound
    win = trace.schedule.window(trace.n_updatable)
    p = trace.n_updatable
    plans = read_plans(trace.read_set, trace.persistent_slots)

    staleness: list[tuple[int, int, int, int]] = []
    provenance: list[tuple[int, int, int]] = []

    versions = [0] * (p + 1)
    previous: list[tuple] = [()] * (p + 1)  # per component, its previous event's reads
    last_fired = [-1] * (p + 1)
    unfair_from: dict[int, int] = {}   # component -> its first offending window
    for k, (comp, reads, _, _) in enumerate(trace.walk()):
        for (source, slot, version), (_, base) in zip(reads, plans[comp]):
            if base is not None:
                if version != (previous[comp][base][2] if previous[comp] else 0):
                    provenance.append((k, slot, version))
            else:
                oldest = max(versions[source] - bound, 0)
                if version < oldest or version > versions[source]:
                    staleness.append((k, source, version, oldest))
        versions[comp] += 1
        previous[comp] = reads
        if k - last_fired[comp] > win:
            unfair_from.setdefault(comp, last_fired[comp] + 1)
        last_fired[comp] = k

    for comp in range(1, p + 1):
        if trace.n_events - last_fired[comp] > win:
            unfair_from.setdefault(comp, last_fired[comp] + 1)
    # The pinned component 0 owes no firings.
    fairness = sorted((start, comp) for comp, start in unfair_from.items() if comp)

    return ScheduleValidation(fairness, staleness, provenance)


def update_counts(trace: AsyncTrace) -> tuple[np.ndarray, int]:
    """Per-component update totals and their maximum.

    The maximum is the per-worker iteration count that the asynchronous cost
    model charges; an empty trace gives zero.
    """
    counts = np.array([len(rows) for rows in trace.rows], dtype=int)
    return counts, int(np.max(counts[1:], initial=0))
