"""Deterministic discrete-event simulator for asynchronous fixed-point maps.

One event is one component update. The scheduled component recomputes its
value from version-stamped snapshots of its inputs; how stale each reading
may be is driven by a seeded schedule, so every run is exactly repeatable.
Component 0 is pinned (it models a constant source such as the initial
state) and is never scheduled.

Read slots come in two flavors. A sampled slot draws a staleness in
{0..delay_bound} from the schedule's generator and reads that many source
updates behind the newest value. A persisted slot replays whichever version
this component consumed through its base slot at its previous event - the
"remembered input" pattern that lets a worker cancel its own stale coarse
term without re-reading old data from the network.
"""
from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, HorizonExhausted
from .linalg import BlockVector, lu_solve

POLICY_ROUND_ROBIN = "round-robin"
POLICY_RANDOM_FAIR = "random-fair"
POLICY_ADVERSARIAL = "adversarial-stale"
POLICIES = (POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR, POLICY_ADVERSARIAL)

STOP_PREDICATE = "stop-predicate"
STOP_QUIESCENCE = "quiescence"


@dataclass(frozen=True)
class AsyncSchedule:
    """Seeded description of who updates when and how stale reads may be.

    delay_bound is measured in update-events of the source component: a read
    may lag at most that many versions behind the newest one. The fairness
    window is n_updatable * (delay_bound + 1) events; every generated
    schedule fires each component at least once per window.
    """

    seed: int
    delay_bound: int
    policy: str = POLICY_RANDOM_FAIR
    max_events: int = 20_000

    def __post_init__(self):
        if self.delay_bound < 0:
            raise ValueError(f"delay bound must be >= 0, got {self.delay_bound}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")

    def window(self, n_updatable: int) -> int:
        return n_updatable * (self.delay_bound + 1)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "delay_bound": self.delay_bound,
            "policy": self.policy,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AsyncSchedule":
        return cls(
            seed=int(doc["seed"]),
            delay_bound=int(doc["delay_bound"]),
            policy=doc.get("policy", POLICY_RANDOM_FAIR),
            max_events=int(doc.get("max_events", 20_000)),
        )


@dataclass
class AsyncMapping:
    """Componentwise fixed-point map evaluated from slot-indexed readings.

    read_set[i] lists the (source, slot) pairs component i consumes; eval_fn
    receives the component index and a dict keyed by those pairs. Slots named
    in persistent_slots replay the version their base slot consumed at the
    component's previous event.
    """

    n_updatable: int
    arity: int
    eval_fn: Callable[[int, dict], np.ndarray]
    read_set: dict[int, tuple[tuple[int, int], ...]]
    persistent_slots: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_updatable < 1:
            raise ValueError("need at least one updatable component")
        for i in range(1, self.n_updatable + 1):
            if i not in self.read_set:
                raise ValueError(f"read_set missing component {i}")
            for source, slot in self.read_set[i]:
                if not 0 <= source <= self.n_updatable:
                    raise DimensionError(f"component {i} reads unknown source {source}")
                if not 1 <= slot <= self.arity:
                    raise DimensionError(f"component {i} uses slot {slot} > arity {self.arity}")
        for slot, base in self.persistent_slots.items():
            if base in self.persistent_slots:
                raise ValueError(f"persistent slot {slot} chained onto persistent slot {base}")
        for i in range(1, self.n_updatable + 1):
            by_slot = {slot: src for src, slot in self.read_set[i]}
            for slot, base in self.persistent_slots.items():
                if slot in by_slot and by_slot.get(base) != by_slot[slot]:
                    raise ValueError(
                        f"component {i}: persistent slot {slot} must share its "
                        f"source with base slot {base}"
                    )


@dataclass(frozen=True)
class UpdateRecord:
    """One event: which component fired, what it read, what came out."""

    k_global: int
    component: int
    reads: tuple[tuple[int, int, int], ...]  # (source, slot, version)
    digest: str                              # short hash of the produced value
    delta: float                             # max-abs change against prior value
    frozen: bool = False                     # True means skipped: value carried over


class EngineView(NamedTuple):
    """Snapshot handed to stop predicates after each event."""

    k: int
    state: BlockVector
    last_deltas: np.ndarray  # per component; +inf until the first update
    drained: bool            # every sampled edge has consumed the newest version


@dataclass
class AsyncTrace:
    """Full record of one simulation, self-describing for offline checks."""

    events: list[UpdateRecord]
    snapshots: list[BlockVector]
    initial: BlockVector
    per_component_counts: np.ndarray
    stop_event: int
    stop_reason: str
    schedule: AsyncSchedule
    n_updatable: int
    persistent_slots: dict[int, int]

    @property
    def window(self) -> int:
        return self.schedule.window(self.n_updatable)

    def state_after(self, event_index: int) -> BlockVector:
        """State once ``event_index + 1`` events have run; -1 gives the start."""
        if event_index < 0:
            return self.initial
        return self.snapshots[event_index]

    def version_value(self, component: int, version: int) -> np.ndarray:
        """Reconstruct the value a (component, version) stamp referred to."""
        if version == 0:
            return self.initial[component]
        seen = 0
        for idx, ev in enumerate(self.events):
            if ev.component == component:
                seen += 1
                if seen == version:
                    return self.snapshots[idx][component]
        raise KeyError(f"component {component} never reached version {version}")

    def to_jsonl(self) -> str:
        lines = []
        for ev in self.events:
            lines.append(json.dumps({
                "k": ev.k_global,
                "component": ev.component,
                "reads": [list(r) for r in ev.reads],
                "digest": ev.digest,
                "delta": ev.delta,
                "frozen": ev.frozen,
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def _value_digest(value: np.ndarray) -> str:
    return hashlib.sha256(value.tobytes()).hexdigest()[:16]


class _ScheduleDriver:
    """Materializes a schedule: activation order plus per-read staleness."""

    def __init__(self, schedule: AsyncSchedule, n_updatable: int):
        self.rng = np.random.default_rng(schedule.seed)
        self.n = n_updatable
        self.bound = schedule.delay_bound
        self.policy = schedule.policy
        self.window = schedule.window(n_updatable)
        # Virtual staggered history: pretend a full round just finished, so
        # deadlines are distinct and the first window stays fair.
        self.last_fired = {i: i - 1 - n_updatable for i in range(1, n_updatable + 1)}

    def next_component(self, k: int) -> int:
        if self.policy == POLICY_ROUND_ROBIN:
            choice = 1 + k % self.n
        elif self.policy == POLICY_ADVERSARIAL:
            choice = self.n - k % self.n
        else:
            # Random pick unless some component is close to missing its
            # fairness deadline; distinct last_fired values make the
            # earliest-deadline override collision-free.
            critical = [
                i for i in range(1, self.n + 1)
                if self.last_fired[i] + self.window - k < self.n
            ]
            if critical:
                choice = min(critical, key=lambda i: self.last_fired[i])
            else:
                choice = int(self.rng.integers(1, self.n + 1))
        self.last_fired[choice] = k
        return choice

    def sample_staleness(self) -> int:
        if self.policy == POLICY_ADVERSARIAL:
            return self.bound
        if self.bound == 0:
            return 0
        return int(self.rng.integers(0, self.bound + 1))


def simulate_async(mapping: AsyncMapping, init: BlockVector,
                   schedule: AsyncSchedule,
                   stop: Callable[[EngineView], bool] | None = None) -> AsyncTrace:
    """Run the event loop until a stop condition fires.

    Halts when the caller's stop predicate returns True, or at exact
    quiescence. Hitting max_events first raises HorizonExhausted carrying
    the partial trace.

    Quiescence means no admissible pending read could change any component.
    A single fair window of bitwise-unchanged values is not enough to
    certify that: retention buffers may still hold older values that a
    maximally stale read could resurface. After delay_bound + 3 consecutive
    unchanged windows every buffer has been flushed with the constant
    values and every component's latest firing consumed only those, so any
    pending evaluation replays a computation already seen to be a no-op.
    """
    p = mapping.n_updatable
    if init.n_blocks != p + 1:
        raise DimensionError(f"init has {init.n_blocks} blocks, expected {p + 1}")
    bound = schedule.delay_bound
    window = schedule.window(p)
    driver = _ScheduleDriver(schedule, p)

    state = init.copy()
    versions = [0] * (p + 1)
    buffers = [deque([(0, init[i].copy())], maxlen=bound + 1) for i in range(p + 1)]
    # (component, base_slot) -> (version, value) consumed at its last event.
    persisted_cache: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    # (component, source) -> version consumed via sampled slots at the
    # component's most recent event; drives the drained check.
    last_consumed: dict[tuple[int, int], int] = {}
    sampled_edges = [
        (i, src)
        for i in range(1, p + 1)
        for src, slot in mapping.read_set[i]
        if slot not in mapping.persistent_slots
    ]

    last_deltas = np.full(p + 1, np.inf)
    last_deltas[0] = 0.0
    counts = np.zeros(p + 1, dtype=int)
    events: list[UpdateRecord] = []
    snapshots: list[BlockVector] = []
    zero_streak = 0
    quiescent_streak = (bound + 3) * window
    stop_reason = None

    def drained() -> bool:
        return all(
            last_consumed.get((i, src)) == versions[src]
            for i, src in sampled_edges
        )

    for k in range(schedule.max_events):
        comp = driver.next_component(k)
        reads = []
        read_values: dict[tuple[int, int], np.ndarray] = {}
        event_fresh: dict[int, tuple[int, np.ndarray]] = {}
        event_consumed: dict[int, int] = {}
        for source, slot in mapping.read_set[comp]:
            if slot in mapping.persistent_slots:
                base = mapping.persistent_slots[slot]
                version, value = persisted_cache.get(
                    (comp, base), (0, init[source])
                )
            else:
                staleness = driver.sample_staleness()
                version = max(versions[source] - staleness, 0)
                value = _buffer_lookup(buffers[source], version)
                event_fresh[slot] = (version, value)
                event_consumed[source] = max(event_consumed.get(source, 0), version)
            reads.append((source, slot, version))
            read_values[(source, slot)] = value
        for source, version in event_consumed.items():
            last_consumed[(comp, source)] = version

        new_value = np.asarray(mapping.eval_fn(comp, read_values), dtype=float)
        if new_value.shape != state[comp].shape:
            raise DimensionError(
                f"component {comp} produced shape {new_value.shape}, "
                f"expected {state[comp].shape}"
            )
        delta = float(np.max(np.abs(new_value - state[comp]))) if new_value.size else 0.0
        state.data[comp] = new_value
        versions[comp] += 1
        buffers[comp].append((versions[comp], new_value.copy()))
        counts[comp] += 1
        last_deltas[comp] = delta
        for base_slot, stamped in event_fresh.items():
            if base_slot in mapping.persistent_slots.values():
                persisted_cache[(comp, base_slot)] = stamped

        events.append(UpdateRecord(
            k_global=k,
            component=comp,
            reads=tuple(reads),
            digest=_value_digest(new_value),
            delta=delta,
        ))
        snapshots.append(state.copy())

        zero_streak = zero_streak + 1 if delta == 0.0 else 0
        if zero_streak >= quiescent_streak:
            stop_reason = STOP_QUIESCENCE
            break
        if stop is not None and stop(EngineView(k, state, last_deltas.copy(), drained())):
            stop_reason = STOP_PREDICATE
            break

    trace = AsyncTrace(
        events=events,
        snapshots=snapshots,
        initial=init.copy(),
        per_component_counts=counts,
        stop_event=len(events) - 1,
        stop_reason=stop_reason or "",
        schedule=schedule,
        n_updatable=p,
        persistent_slots=dict(mapping.persistent_slots),
    )
    if stop_reason is None:
        raise HorizonExhausted(
            f"no stop condition met within {schedule.max_events} events", trace
        )
    return trace


def _buffer_lookup(buffer: deque, version: int) -> np.ndarray:
    newest_version = buffer[-1][0]
    idx = len(buffer) - 1 - (newest_version - version)
    if idx < 0:
        raise KeyError(f"version {version} already evicted from the retention buffer")
    stamped_version, value = buffer[idx]
    assert stamped_version == version
    return value


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


def validate_schedule(trace: AsyncTrace, delay_bound: int | None = None,
                      window: int | None = None) -> ScheduleValidation:
    """Replay a trace and audit it against its declared (D, W)."""
    bound = trace.schedule.delay_bound if delay_bound is None else delay_bound
    win = trace.window if window is None else window
    p = trace.n_updatable
    persistent = trace.persistent_slots

    fairness: list[tuple[int, int]] = []
    staleness: list[tuple[int, int, int, int]] = []
    provenance: list[tuple[int, int, int]] = []

    versions = [0] * (p + 1)
    prev_base_read: dict[tuple[int, int], int] = {}
    for ev in trace.events:
        if ev.frozen:
            continue
        fresh_this_event: dict[int, int] = {}
        for source, slot, version in ev.reads:
            if slot in persistent:
                base = persistent[slot]
                expected = prev_base_read.get((ev.component, base), 0)
                if version != expected:
                    provenance.append((ev.k_global, slot, version))
            else:
                oldest = max(versions[source] - bound, 0)
                if version < oldest or version > versions[source]:
                    staleness.append((ev.k_global, source, version, oldest))
                fresh_this_event[slot] = version
        for base_slot, version in fresh_this_event.items():
            if base_slot in persistent.values():
                prev_base_read[(ev.component, base_slot)] = version
        versions[ev.component] += 1

    fired = [ev.component for ev in trace.events]
    n = len(fired)
    flagged: set[int] = set()
    if n >= win:
        window_counts = np.zeros(p + 1, dtype=int)
        for idx in range(win):
            window_counts[fired[idx]] += 1
        start = 0
        while True:
            for comp in range(1, p + 1):
                if window_counts[comp] == 0 and comp not in flagged:
                    fairness.append((start, comp))
                    flagged.add(comp)
            if start + win >= n:
                break
            window_counts[fired[start]] -= 1
            window_counts[fired[start + win]] += 1
            start += 1

    return ScheduleValidation(
        fairness_violations=fairness,
        staleness_violations=staleness,
        provenance_violations=provenance,
    )


def update_counts(trace: AsyncTrace) -> tuple[np.ndarray, int]:
    """Per-component update totals and their maximum.

    The maximum is the per-worker iteration count that the asynchronous cost
    model charges; an empty trace gives zero.
    """
    counts = np.asarray(trace.per_component_counts, dtype=int)
    if counts[1:].size == 0:
        return counts, 0
    return counts, int(np.max(counts[1:]))


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

    def eval_fn(i: int, read_values: dict) -> np.ndarray:
        row = a[i - 1]
        acc = b[i - 1]
        for j in range(1, n + 1):
            x_j = read_values[(j, 1)][0]
            acc -= row[j - 1] * x_j
        x_i = read_values[(i, 1)][0]
        return np.array([x_i + acc / d[i - 1]])

    read_set = {
        i: tuple((j, 1) for j in range(1, n + 1)) for i in range(1, n + 1)
    }
    mapping = AsyncMapping(
        n_updatable=n, arity=1, eval_fn=eval_fn, read_set=read_set
    )
    init = BlockVector(np.zeros((n + 1, 1)))
    return mapping, init


def relaxation_solution(a_mat, rhs) -> np.ndarray:
    """Direct solve used as the oracle for the relaxation demo."""
    return lu_solve(np.asarray(a_mat, dtype=float), np.asarray(rhs, dtype=float))
