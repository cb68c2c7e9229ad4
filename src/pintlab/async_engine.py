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
term without re-reading old data from the network. ``read_plans`` is the
one place that spells this rule out.
"""
from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionError, HorizonExhausted
from .linalg import BlockVector
from .schedule import INDEX_MAX, STOP_HORIZON, STOP_PREDICATE, STOP_QUIESCENCE, AsyncSchedule


@dataclass
class AsyncMapping:
    """Componentwise fixed-point map evaluated from positional readings.

    read_set[i] lists the (source, slot) pairs component i consumes, and
    eval_fn(i, values) receives the values they read, in that order. Slots
    named in persistent_slots replay the version their base slot consumed at
    the component's previous event; ``plans`` is read_plans of the two.
    """

    eval_fn: Callable[[int, list[np.ndarray]], np.ndarray]
    read_set: dict[int, tuple[tuple[int, int], ...]]
    persistent_slots: dict[int, int] = field(default_factory=dict)
    plans: dict[int, tuple[tuple[int, int | None], ...]] = field(init=False, repr=False)

    @property
    def n_updatable(self) -> int:
        return len(self.read_set)

    def __post_init__(self):
        p = self.n_updatable
        if p < 1 or sorted(self.read_set) != list(range(1, p + 1)):
            raise ValueError(f"read_set keys must be 1..n, n >= 1; got {sorted(self.read_set)}")
        for i, reads in self.read_set.items():
            for source, slot in reads:
                if not 0 <= source <= p:
                    raise DimensionError(f"component {i} reads unknown source {source}")
                if not 1 <= slot <= INDEX_MAX:
                    raise DimensionError(f"component {i} uses slot {slot} outside 1..{INDEX_MAX}")
        for slot, base in self.persistent_slots.items():
            if base in self.persistent_slots:
                raise ValueError(f"persistent slot {slot} chained onto persistent slot {base}")
        self.plans = read_plans(self.read_set, self.persistent_slots)


def read_plans(read_set: dict[int, tuple[tuple[int, int], ...]],
               persistent_slots: dict[int, int]) -> dict[int, tuple[tuple[int, int | None], ...]]:
    """Per component, its reads in read_set order as (source, base).

    base is None for a sampled slot, which takes a lag from the script. A
    persisted slot replays the version read at position base of read_set[i]
    at the component's previous event (0 before its first); its base slot
    must be read from the same source, or ValueError.
    """
    plans = {}
    for i, reads in read_set.items():
        position = {slot: j for j, (_, slot) in enumerate(reads)}
        plan = []
        for source, slot in reads:
            base = None
            if slot in persistent_slots:
                base = position.get(persistent_slots[slot])
                if base is None or reads[base][0] != source:
                    raise ValueError(f"component {i}: persistent slot {slot} must share its "
                                     f"source with base slot {persistent_slots[slot]}")
            plan.append((source, base))
        plans[i] = tuple(plan)
    return plans


@dataclass(frozen=True)
class UpdateRecord:
    """One event: which component fired, what it read, what came out.

    An event's number is its position in the trace's log.
    """

    component: int
    reads: tuple[tuple[int, int, int], ...]  # (source, slot, version)
    delta: float                             # max-abs change against prior value


class EngineView(NamedTuple):
    """What a stop predicate sees after each event."""

    k: int
    last_deltas: np.ndarray  # per component; +inf until the first update
    drained: bool            # every sampled edge has consumed the newest version


CHUNK_ROWS = 256  # rows per chunk of the value column


class AsyncTrace:
    """Event log of one simulation, self-describing for offline checks.

    The log is columnar. Per event k it keeps ``component[k]``, the component
    that fired, ``delta[k]`` and the r versions it read: each event of a
    component reads the r (source, slot) pairs of ``read_set[component]``,
    so its versions go to ``read_versions[component]`` in that order.
    Version v >= 1 of component c is its v-th event's value, row
    ``rows[c][v - 1]`` of the value column, and version 0 its block of
    ``initial``; every state derives from these. A value bitwise equal to
    its component's current version reuses that row; any other fills a new
    row, written by ``row_component[row]``. Rows fill 2-D chunks of
    CHUNK_ROWS rows, so the log grows without copying and holds at most one
    chunk of slack. Index and version columns are 4-byte ints.

    ``events`` (UpdateRecords) and ``values`` (read-only row views) are
    lists built on each read by one walk of the columns.
    """

    def __init__(self, initial: BlockVector, schedule: AsyncSchedule,
                 read_set: dict[int, tuple[tuple[int, int], ...]],
                 persistent_slots: dict[int, int], stop_reason: str = ""):
        self.initial = initial
        self.schedule = schedule
        self.read_set = read_set
        self.persistent_slots = persistent_slots
        self.stop_reason = stop_reason
        self.component = array("i")
        self.delta = array("d")
        self.row_component = array("i")
        self.rows = [array("i") for _ in range(initial.n_blocks)]  # per version v >= 1
        self.read_versions = [array("i") for _ in range(initial.n_blocks)]
        self._chunks: list[np.ndarray] = []  # read-only views of the value chunks
        self._tail: np.ndarray | None = None  # the last chunk, writable

    @classmethod
    def from_records(cls, records: Iterable[UpdateRecord], values: Iterable,
                     initial: BlockVector, schedule: AsyncSchedule,
                     persistent_slots: dict[int, int] | None = None,
                     stop_reason: str = "") -> "AsyncTrace":
        """Pack records and the values they produced into a trace.

        Components and read sources must lie in 0..n_updatable, every record
        of a component must read the (source, slot) pairs of its first, and
        the persisted slots must pass read_plans.
        """
        trace = cls(initial, schedule, {}, dict(persistent_slots or {}), stop_reason)
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

    @property
    def n_updatable(self) -> int:
        return self.initial.n_blocks - 1

    @property
    def n_events(self) -> int:
        return len(self.component)

    @property
    def events(self) -> list[UpdateRecord]:
        return list(map(UpdateRecord, self.component, self.all_reads(), self.delta))

    @property
    def values(self) -> list[np.ndarray]:
        return list(map(self._row, self.event_rows()))

    def append(self, component: int, versions: Iterable[int], delta: float,
               value: np.ndarray) -> None:
        """Log one event: the versions it read in read_set order, its delta
        and a copy of the value it produced, which has the block shape."""
        rows = self.rows[component]
        # bytes, not ==, so that -0.0 after 0.0 gets its own row and digest
        if rows and self._row(rows[-1]).tobytes() == value.tobytes():
            row = rows[-1]
        else:
            row = len(self.row_component)
            if row % CHUNK_ROWS == 0:
                self._tail = np.empty((CHUNK_ROWS, self.initial.block_dim))
                view = self._tail.view()
                view.flags.writeable = False
                self._chunks.append(view)
            self._tail[row % CHUNK_ROWS] = value
            self.row_component.append(component)
        rows.append(row)
        self.component.append(component)
        self.delta.append(delta)
        self.read_versions[component].extend(versions)

    def _row(self, row: int) -> np.ndarray:
        chunk, row = divmod(row, CHUNK_ROWS)
        return self._chunks[chunk][row]

    def all_reads(self) -> Iterator[tuple[tuple[int, int, int], ...]]:
        """Every event's (source, slot, version) reads in order, taken by one
        cursor per component over its versions."""
        cursors = [iter(versions) for versions in self.read_versions]
        return (tuple([(source, slot, next(cursors[comp]))
                       for source, slot in self.read_set[comp]]) for comp in self.component)

    def event_rows(self) -> Iterator[int]:
        """Every event's value row in order, by one cursor per component."""
        cursors = [iter(rows) for rows in self.rows]
        return (next(cursors[comp]) for comp in self.component)

    def value_blocks(self) -> Iterator[tuple[array, np.ndarray]]:
        """The value column in row order, chunk by chunk: the components
        that wrote the rows and the read-only 2-D rows themselves."""
        for lo, chunk in zip(range(0, len(self.row_component), CHUNK_ROWS), self._chunks):
            wrote = self.row_component[lo:lo + CHUNK_ROWS]
            yield wrote, chunk[:len(wrote)]

    def version_value(self, component: int, version: int) -> np.ndarray:
        """The value a (component, version) stamp refers to."""
        rows = self.rows[component]
        if not 0 <= version <= len(rows):
            raise KeyError(f"component {component} never reached version {version}")
        return self._row(rows[version - 1]) if version else self.initial[component]

    def state_after(self, event_index: int) -> BlockVector:
        """State once ``event_index + 1`` events have run; -1 gives the start."""
        if not -1 <= event_index < self.n_events:
            raise IndexError(f"trace has no event {event_index}")
        data = self.initial.data.copy()
        versions = np.bincount(self.component[:event_index + 1], minlength=len(data))
        for comp in np.flatnonzero(versions):
            data[comp] = self.version_value(comp, versions[comp])
        return BlockVector(data)

    def map_rows(self, per_rows: Callable) -> Iterator[tuple[int, object]]:
        """(component, result) per event in order. ``per_rows(rows, wrote)``
        maps a chunk of rows and their writers to one result per row when the
        walk reaches the chunk. A reused row is always its writer's current
        version, so event k takes the next unseen row's result or repeats its
        component's, and the walk keeps one result per component."""
        fresh = chain.from_iterable(per_rows(rows, wrote) for wrote, rows in self.value_blocks())
        current: list[object] = [None] * self.initial.n_blocks
        seen = 0
        for comp, row in zip(self.component, self.event_rows()):
            if row == seen:
                current[comp], seen = next(fresh), seen + 1
            yield comp, current[comp]

    def jsonl_lines(self) -> Iterator[str]:
        """The JSONL trace, one line per event, to be written as a stream.

        A line's digest is the first 16 hex digits of the sha256 of its
        value's bytes, taken once per row by ``map_rows``.
        """
        import hashlib  # loads OpenSSL, which only a written trace needs

        digests = self.map_rows(lambda rows, _: (hashlib.sha256(row.tobytes()).hexdigest()[:16]
                                                 for row in rows))
        for k, ((comp, digest), reads, delta) in enumerate(
                zip(digests, self.all_reads(), self.delta)):
            yield json.dumps({"k": k, "component": comp, "reads": [list(r) for r in reads],
                              "digest": digest, "delta": delta}, sort_keys=True) + "\n"


def simulate_async(mapping: AsyncMapping, init: BlockVector,
                   schedule: AsyncSchedule,
                   stop: Callable[[EngineView], bool] | None = None) -> AsyncTrace:
    """Run the event loop until a stop condition fires.

    Halts when the caller's stop predicate returns True, or at exact
    quiescence. Exhausting the schedule's script (max_events events) first
    sets stop_reason to STOP_HORIZON and raises HorizonExhausted carrying
    the partial trace. Every read is served from the trace being built, so
    the returned log is exactly what each event consumed.

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

    plans = mapping.plans
    n_sampled = {i: sum(base is None for _, base in plan) for i, plan in plans.items()}
    # The log is the only record of versions: a component's version is the
    # number of events it has logged.
    rows, logged = trace.rows, trace.read_versions
    last_deltas = np.full(p + 1, np.inf)
    last_deltas[0] = 0.0
    zero_streak = 0
    quiescent_streak = (schedule.delay_bound + 3) * schedule.window(p)

    def drained() -> bool:
        # Each component's latest sampled reads must have seen the newest
        # version of their sources, the freshest read counting per source; a
        # component that never fired stands as having read version -1.
        for i, plan in plans.items():
            latest = logged[i][-len(plan):] or [-1] * len(plan)
            consumed: dict[int, int] = {}
            for (source, base), version in zip(plan, latest):
                if base is None:
                    consumed[source] = max(consumed.get(source, -1), version)
            if any(version != len(rows[src]) for src, version in consumed.items()):
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
        if stop is not None and stop(EngineView(k, last_deltas.copy(), drained())):
            trace.stop_reason = STOP_PREDICATE
            return trace

    trace.stop_reason = STOP_HORIZON
    raise HorizonExhausted(f"no stop condition met within {trace.n_events} events", trace)


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
    last_fired = [-1] * (p + 1)
    unfair_from: dict[int, int] = {}   # component -> its first offending window
    logged = trace.read_versions
    for k, (comp, reads) in enumerate(zip(trace.component, trace.all_reads())):
        prev = (versions[comp] - 1) * len(reads)  # where its previous event's versions start
        for (source, slot, version), (_, base) in zip(reads, plans[comp]):
            if base is not None:
                if version != (logged[comp][prev + base] if prev >= 0 else 0):
                    provenance.append((k, slot, version))
            else:
                oldest = max(versions[source] - bound, 0)
                if version < oldest or version > versions[source]:
                    staleness.append((k, source, version, oldest))
        versions[comp] += 1
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
