"""Packing and post-hoc audits of an asynchronous event log.

``from_records`` packs events recorded elsewhere into a trace; no run calls
it. ``validate_schedule`` replays a trace against the fairness window and
the staleness bound its schedule declares, and checks that every persisted
read replays what its base slot read before; ``update_counts`` gives the
per-component update totals the asynchronous cost model charges. Those two
read only the log's columns. ``async_error_envelope`` (through
``envelope_steps``) and ``check_finite_termination`` also read its values:
the first checks every state's error against the staleness-aware bound of
the contraction report, the second finds the first state that matches a
reference. A run loads this module with its first schedule.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .analysis import ContractionReport
from .async_log import AsyncTrace, UpdateRecord, read_plans
from .errors import DimensionError, EnvelopeUndefinedError
from .linalg import BlockVector, block_norms, blocks_match
from .schedule import AsyncSchedule


def from_records(records: Iterable[UpdateRecord], values: Iterable,
                 initial: BlockVector, schedule: AsyncSchedule,
                 persistent_slots: dict[int, int] | None = None,
                 stop_reason: str = "") -> AsyncTrace:
    """Pack records and the values they produced into a trace, for offline
    checks of events recorded elsewhere; every record comes back unchanged
    from ``events``. A record is any (component, reads, delta) triple.

    Components must lie in 0..n_updatable, every record of a component
    must read the (source, slot) pairs of its first, and the read set and
    persisted slots must pass read_plans, as a mapping's must.
    """
    trace = AsyncTrace(initial, schedule, {}, dict(persistent_slots or {}), stop_reason)
    for k, (record, value) in enumerate(zip(records, values, strict=True)):
        comp, reads, delta = record
        pattern = tuple([(s, slot) for s, slot, _ in reads])
        if not 0 <= comp < initial.n_blocks:
            raise DimensionError(f"{record}: components lie in 0..{trace.n_updatable}")
        if trace.read_set.setdefault(comp, pattern) != pattern:
            raise ValueError(f"event {k}: component {comp} reads {pattern}, but its "
                             f"earlier events read {trace.read_set[comp]}")
        value = np.asarray(value, dtype=float)
        if value.shape != (initial.block_dim,):
            raise DimensionError(
                f"value of shape {value.shape} for blocks of dim {initial.block_dim}")
        trace.append(comp, [version for *_, version in reads], delta, value)
    read_plans(trace.read_set, trace.persistent_slots, initial.n_blocks)
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
    plans = read_plans(trace.read_set, trace.persistent_slots, p + 1)

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


ENVELOPE_SLACK = 1.0 + 1e-10  # relative slack of an error against its bound


class EnvelopeCheck(NamedTuple):
    """The staleness-aware envelope's verdict on one trace."""

    sigma_final: float  # global depth after the last event; +inf once saturated
    bound_final: float  # the error bound at that depth
    holds: bool         # every state's error is finite and <= its bound * ENVELOPE_SLACK


def envelope_steps(trace: AsyncTrace, report: ContractionReport,
                   fixed_point: BlockVector) -> Iterator[tuple[float, float, float]]:
    """(depth, bound, error) of every state, the initial state first, from
    one ``trace.walk``.

    Depth bookkeeping: the pinned component is exact from the start
    (depth +inf); every other component starts at depth 0. An update sets
    the component's depth to one plus the shallowest depth among the
    versions it read (+inf when it reads nothing). The global depth after an
    event is the minimum over live components, and the bound is
    async_factor**depth times the initial error; a saturated (infinite)
    depth certifies an exactly reproduced state, bound zero. A read of a
    version its source never produced raises KeyError, and an async factor
    of one or more EnvelopeUndefinedError, when the walk reaches them.

    The minimum is kept running: a count of live components per depth moves
    it down when a stale read lowers a depth, and it is rescanned among the
    depths in use only when the count at the minimum reaches zero.

    The measured error is ``max_block_norm(state - fixed_point)`` in the
    report's norm, kept per block from ``trace.initial`` on: an event costs
    the norm of the block it wrote, with the bits of the whole-state norm.
    Their maximum is kept running the same way, rescanned only when the
    block holding it falls.
    """
    if report.async_factor >= 1.0:
        raise EnvelopeUndefinedError(
            f"envelope undefined: async factor {report.async_factor} >= 1"
        )
    factor = report.async_factor
    kind = report.norm_kind
    block_error = block_norms((trace.initial - fixed_point).data, kind).tolist()
    initial_error = top = max(block_error)
    top_at = block_error.index(top)  # a block holding the largest error
    p = trace.n_updatable

    # Per component, the depth of each version it produced; version 0 is the start.
    depth_of = [array("d", [math.inf if comp == 0 else 0.0]) for comp in range(p + 1)]
    current = [math.inf] + [0.0] * p
    live = {0.0: p}  # depth -> how many of components 1..p sit at it
    lowest = 0.0
    yield lowest, initial_error, initial_error  # at depth 0 the bound is the error
    errors = trace.walk(lambda rows, wrote:
                        block_norms(rows - fixed_point.data[wrote], kind).tolist())
    for comp, reads, _, error in errors:
        block_error[comp] = error
        if error >= top:
            top, top_at = error, comp
        elif comp == top_at:
            top = max(block_error)
            top_at = block_error.index(top)
        shallowest = math.inf
        for source, _slot, version in reads:
            table = depth_of[source]
            if not 0 <= version < len(table):
                raise KeyError(f"component {source} never reached version {version}")
            shallowest = min(shallowest, table[version])
        depth = shallowest + 1.0
        depth_of[comp].append(depth)
        old, current[comp] = current[comp], depth
        if comp:
            left = live[old] - 1
            if left:
                live[old] = left
            else:
                del live[old]
            live[depth] = live.get(depth, 0) + 1
            if depth < lowest:
                lowest = depth
            elif old == lowest and not left:
                lowest = min(live)
        bound = 0.0 if math.isinf(lowest) else factor ** lowest * initial_error
        yield lowest, bound, top


def async_error_envelope(trace: AsyncTrace, report: ContractionReport,
                         fixed_point: BlockVector) -> EnvelopeCheck:
    """Walk ``envelope_steps`` to the end and return its verdict: the final
    depth and bound, and whether every error stayed finite and within its bound."""
    holds = True
    for depth, bound, error in envelope_steps(trace, report, fixed_point):
        holds = holds and error <= bound * ENVELOPE_SLACK and math.isfinite(error)
    return EnvelopeCheck(depth, bound, holds)


def check_finite_termination(trace: AsyncTrace,
                             reference: BlockVector) -> int | None:
    """Smallest event index whose state matches the reference.

    The index counts executed events (0 is the initial state) and the match
    rule is ``blocks_match`` on every block; synchronous runs record the same
    index while sweeping (``run_parareal(..., reference=...)``). Returns None
    when the trace never reaches the reference, which at desk scale indicates
    an invalid schedule or a too-short horizon.

    The rule is elementwise, so it is kept per block: one match flag per
    component and a count of mismatched blocks, updated along ``trace.walk``
    up to the first match. Each event costs O(d) and no state is assembled.
    """
    ref = reference.data
    if ref.shape != trace.initial.data.shape:
        raise DimensionError(
            f"reference of shape {ref.shape} for states of shape {trace.initial.data.shape}")
    matched = blocks_match(trace.initial.data, ref).tolist()
    mismatched = matched.count(False)
    if not mismatched:
        return 0
    flags = trace.walk(lambda rows, wrote: blocks_match(rows, ref[wrote]).tolist())
    for k, (comp, _, _, flag) in enumerate(flags, 1):
        mismatched += matched[comp] - flag
        matched[comp] = flag
        if not mismatched:
            return k
    return None
