"""Closed-form oracles used to cross-check the iterative numerics, and
full-history views of the synchronous sweeps.

The oracles are deliberately independent of the package's LAPACK calls:
eigenvalue magnitudes come from the quadratic formula (2x2) and a
trigonometric/Cardano cubic solve (3x3), singular values from the same
formulas applied to M^T M. Desk scale only.

``run_parareal`` keeps only its last iterate. ``nth_iterate`` gets any
earlier one from the library itself, and ``replay_parareal`` keeps every
iterate of a run and applies the stop rules and the finite-termination scan
afterwards, as a reference for the streaming loop.

``replay_engine_views`` and ``scan_activation_order`` are references for the
async engine: the stop-predicate views by side tables kept next to the log,
and the random-fair activation order by a full deadline scan per event.
``ReplaySchedule`` turns a trace back into the script that produced it, so
re-executing it audits the engine against its own log.
``trace_values``, ``trace_deltas``, ``event_rows`` and ``value_blocks`` lay
the async log out per event or per chunk for tests, and ``replay_walk``
rebuilds every event's component, reads and delta by index arithmetic on
the log's columns, as a reference for ``AsyncTrace.walk``.
``sliding_window_fairness``, ``replay_envelope``, ``state_errors`` and
``scan_finite_termination`` are references for the post-hoc audits: the
fairness check by a count per sliding window, the depth envelope by a
version counter and nested version-to-depth dicts, and the measured error
and the finite-termination index from every full state in turn, each
rebuilt by ``state_after``. ``envelope_columns`` lays the library's own
per-state envelope out as columns for them to be compared with.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from pintlab.async_audit import envelope_steps
from pintlab.async_log import CHUNK_ROWS
from pintlab.linalg import BlockVector, NormKind, max_block_norm
from pintlab.parareal import (
    STOP_EXACT,
    STOP_KMAX,
    STOP_THRESHOLD,
    coarse_init,
    run_parareal,
)
from pintlab.schedule import AsyncSchedule
from pintlab.theory import parareal_iterate


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-30)


def from_blocks(blocks) -> BlockVector:
    """A block vector from a list of equal-length blocks."""
    return BlockVector(np.stack([np.asarray(b, dtype=float) for b in blocks]))


def trace_values(trace) -> list[np.ndarray]:
    """Every event's value in order, as read-only views of the log's rows."""
    return [value for *_, value in trace.walk(lambda rows, _: rows)]


def trace_deltas(trace) -> array:
    """Every event's delta in order, as a float64 array."""
    return array("d", (delta for _, _, delta, _ in trace.walk()))


def event_rows(trace) -> list[int]:
    """Every event's value row in order, by one cursor per component over
    its column of ``trace.rows``."""
    cursors = [iter(rows) for rows in trace.rows]
    return [next(cursors[comp]) for comp in trace.component]


def value_blocks(trace):
    """The value column chunk by chunk: the components that wrote each
    chunk's rows and the read-only 2-D rows themselves."""
    for lo, chunk in zip(range(0, len(trace.row_component), CHUNK_ROWS), trace._chunks):
        wrote = trace.row_component[lo:lo + CHUNK_ROWS]
        yield wrote, chunk[:len(wrote)]


def replay_walk(trace) -> list[tuple[int, tuple[tuple[int, int, int], ...], float]]:
    """(component, reads, delta) of every event, by index arithmetic.

    Event k is the n-th event of its component c: its versions sit at
    n*r .. (n+1)*r - 1 of ``read_versions[c]`` for the r pairs of
    ``read_set[c]``, and its value at row ``rows[c][n]``. It wrote that row
    unless its component's previous event holds the same row, and then its
    delta is the row's; else 0.0.
    """
    fired = [0] * trace.initial.n_blocks
    events = []
    for comp in trace.component:
        n, pattern, rows = fired[comp], trace.read_set[comp], trace.rows[comp]
        fired[comp] += 1
        versions = trace.read_versions[comp][n * len(pattern):(n + 1) * len(pattern)]
        reads = tuple((source, slot, version)
                      for (source, slot), version in zip(pattern, versions, strict=True))
        wrote = n == 0 or rows[n - 1] != rows[n]
        events.append((comp, reads, trace.row_delta[rows[n]] if wrote else 0.0))
    return events


def eig_magnitudes_2x2(m) -> list[float]:
    """|eigenvalues| of a real 2x2 matrix via the quadratic formula."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        return sorted([abs((tr - root) / 2.0), abs((tr + root) / 2.0)])
    mag = math.sqrt(det)  # conjugate pair; |lambda|^2 = det
    return [mag, mag]


def _cubic_roots_real_coeffs(b: float, c: float, d: float) -> list[complex]:
    """Roots of x^3 + b x^2 + c x + d, real coefficients, no eigensolver.

    Depressed via x = t - b/3; trigonometric form for three real roots,
    Cardano for one real plus a conjugate pair.
    """
    shift = -b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    if abs(p) < 1e-30 and abs(q) < 1e-30:
        return [complex(shift)] * 3
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        root = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + root) ** (1.0 / 3.0), -q / 2.0 + root)
        v = math.copysign(abs(-q / 2.0 - root) ** (1.0 / 3.0), -q / 2.0 - root)
        t1 = u + v
        # remaining quadratic t^2 + t1 t + (t1^2 + p)
        re = -t1 / 2.0
        im = math.sqrt(max(t1 * t1 + p - re * re, 0.0))
        return [complex(t1 + shift),
                complex(re + shift, im),
                complex(re + shift, -im)]
    # three real roots
    r = math.sqrt(-p / 3.0)
    arg = 3.0 * q / (2.0 * p * r) if r > 0.0 else 0.0
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg)
    return [
        complex(2.0 * r * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0) + shift)
        for k in range(3)
    ]


def eig_magnitudes_3x3(m) -> list[float]:
    """|eigenvalues| of a real 3x3 matrix via the characteristic cubic."""
    m = np.asarray(m, dtype=float)
    tr = float(np.trace(m))
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = float(np.linalg.det(m))  # cofactor expansion would do; 3x3 det is exact enough
    roots = _cubic_roots_real_coeffs(-tr, minors, -det)
    return sorted(abs(r) for r in roots)


def spectral_radius_closed(m) -> float:
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    if m.shape == (2, 2):
        return eig_magnitudes_2x2(m)[-1]
    if m.shape == (3, 3):
        return eig_magnitudes_3x3(m)[-1]
    raise ValueError(f"no closed form for shape {m.shape}")


def spectral_norm_closed(m) -> float:
    """Largest singular value via the closed-form eigenvalues of M^T M."""
    m = np.asarray(m, dtype=float)
    gram = m.T @ m
    if gram.shape == (1, 1):
        return math.sqrt(abs(float(gram[0, 0])))
    if gram.shape == (2, 2):
        return math.sqrt(eig_magnitudes_2x2(gram)[-1])
    if gram.shape == (3, 3):
        return math.sqrt(eig_magnitudes_3x3(gram)[-1])
    raise ValueError(f"no closed form for shape {m.shape}")


def nth_iterate(coarse, fine, u0, p: int, j: int):
    """Iterate j of the synchronous sweeps (0 is the coarse initialization).

    epsilon and k_max only choose when run_parareal stops, so the final
    iterate of an epsilon=0, k_max=j run is iterate j of every run, bitwise.
    """
    if j == 0:
        return coarse_init(coarse, u0, p)
    return run_parareal(coarse, fine, u0, p, epsilon=0.0, k_max=j).final


def replay_parareal(coarse, fine, u0, p: int, epsilon: float,
                    k_max: int | None = None, reference=None):
    """Full-history reference for run_parareal.

    Keeps every iterate, built by the library's unfrozen full sweep
    ``parareal_iterate``, then applies the stop rules and scans the history
    for the first iterate within rtol 1e-12 (atol 0) of the reference.
    Returns (history, deltas, stop_reason, finite_termination_index).
    """
    cap = p if k_max is None else min(k_max, p)
    history = [coarse_init(coarse, u0, p)]
    deltas: list[float] = []
    stop_reason = STOP_KMAX
    for k in range(1, cap + 1):
        history.append(parareal_iterate(coarse, fine, history[-1]))
        deltas.append(float(np.max(np.abs(history[-1].data - history[-2].data))))
        if deltas[-1] < epsilon:
            stop_reason = STOP_THRESHOLD
            break
        if k == p:
            stop_reason = STOP_EXACT
            break
    index = None
    if reference is not None:
        index = next((j for j, it in enumerate(history)
                      if np.allclose(it.data, reference.data, rtol=1e-12, atol=0.0)),
                     None)
    return history, deltas, stop_reason, index


def replay_engine_views(trace, read_set) -> list[tuple[bool, np.ndarray]]:
    """(drained, last_deltas) after each event of an async trace, rebuilt
    from side tables kept next to the log.

    Tables: every value of every component, version by version; per
    (component, source), the newest version consumed through a sampled slot
    at the component's most recent event; and the list of sampled
    (component, source) edges between distinct components. An edge is
    drained once that consumed version's value has the bytes of the
    source's current value; a component that never fired has drained
    nothing, and its reads of itself are not edges. Each delta is the
    max-abs change of the produced value against the component's previous
    value.
    """
    p = trace.n_updatable
    persistent = trace.persistent_slots
    history = [[block] for block in trace.initial.data]  # history[c][v]: version v of c
    last_consumed: dict[tuple[int, int], int] = {}
    sampled_edges = [(i, src) for i in range(1, p + 1)
                     for src, slot in read_set[i] if slot not in persistent and src != i]
    last_deltas = np.full(p + 1, np.inf)
    last_deltas[0] = 0.0
    views = []
    for ev, value in zip(trace.events, trace_values(trace)):
        consumed: dict[int, int] = {}
        for source, slot, version in ev.reads:
            if slot not in persistent:
                consumed[source] = max(consumed.get(source, 0), version)
        for source, version in consumed.items():
            last_consumed[(ev.component, source)] = version
        history[ev.component].append(value)
        last_deltas[ev.component] = float(np.max(np.abs(value - history[ev.component][-2])))
        drained = all(len(history[i]) > 1 for i in range(1, p + 1)) and all(
            history[src][last_consumed[(i, src)]].tobytes() == history[src][-1].tobytes()
            for i, src in sampled_edges)
        views.append((drained, last_deltas.copy()))
    return views


def scan_activation_order(seed: int, p: int, delay_bound: int, n_events: int,
                          draws: int) -> list[int]:
    """Random-fair activation order by the full deadline scan.

    At event k every component within p events of missing its fairness
    deadline (last firing + window) is critical; the least recently fired
    critical one fires, else a uniform draw picks. After each pick, ``draws``
    staleness samples are taken from the same generator, as an engine event
    with that many sampled reads does.
    """
    rng = np.random.default_rng(seed)
    window = p * (delay_bound + 1)
    last_fired = {i: i - 1 - p for i in range(1, p + 1)}
    order = []
    for k in range(n_events):
        critical = [i for i in range(1, p + 1) if last_fired[i] + window - k < p]
        if critical:
            choice = min(critical, key=lambda i: last_fired[i])
        else:
            choice = int(rng.integers(1, p + 1))
        last_fired[choice] = k
        order.append(choice)
        for _ in range(draws):
            if delay_bound:
                rng.integers(0, delay_bound + 1)
    return order


def replay_script(trace) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A trace's events as a schedule script: per event, its component and,
    for each sampled read in the order logged (read_set order), the source's
    version count at that event minus the version read."""
    persistent = trace.persistent_slots
    versions = [0] * (trace.n_updatable + 1)
    script = []
    for ev in trace.events:
        script.append((ev.component, tuple(versions[source] - version
                                           for source, slot, version in ev.reads
                                           if slot not in persistent)))
        versions[ev.component] += 1
    return tuple(script)


@dataclass(frozen=True)
class ReplaySchedule(AsyncSchedule):
    """A recorded trace's schedule whose script is the trace's own events.

    It keeps the trace's seed, delay bound, policy and horizon, so
    ``validate_schedule`` audits a replay against the same (D, W).
    """

    events: tuple = ()

    @classmethod
    def of(cls, trace) -> "ReplaySchedule":
        return cls(**{**trace.schedule.to_dict(), "events": replay_script(trace)})

    def script(self, mapping):
        return iter(self.events)


def sliding_window_fairness(trace) -> list[tuple[int, int]]:
    """Fairness violations by sliding a window of W = p(D+1) events.

    Keeps a firing count per component for the current window and, at every
    window start, scans all components; a component whose count is zero is
    reported once, at the first such start. Traces shorter than one window
    have no windows and so no violations.
    """
    p = trace.n_updatable
    win = trace.schedule.window(p)
    fired = [ev.component for ev in trace.events]
    n = len(fired)
    fairness: list[tuple[int, int]] = []
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
    return fairness


def envelope_columns(trace, report, fixed_point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depths, bounds, errors) of every state, the initial one first, as
    float64 columns of ``async_audit.envelope_steps``."""
    steps = list(envelope_steps(trace, report, fixed_point))
    return tuple(np.array(column, dtype=float) for column in zip(*steps))


def replay_envelope(trace, report, fixed_point):
    """(depths, bounds) of the staleness-aware envelope by version counters.

    Keeps a version counter per component and a dict of dicts from
    (component, version) to depth; a read of a version that was never
    produced raises KeyError. The bound of a depth is async_factor**depth
    times the initial error, zero at infinite depth.
    """
    factor = report.async_factor
    initial_error = max_block_norm(trace.initial - fixed_point, report.norm_kind)
    p = trace.n_updatable

    version_depth: dict[int, dict[int, float]] = {0: {0: math.inf}}
    for comp in range(1, p + 1):
        version_depth[comp] = {0: 0.0}
    current = np.zeros(p + 1)
    current[0] = math.inf
    versions = [0] * (p + 1)

    def bound_for(depth: float) -> float:
        if math.isinf(depth):
            return 0.0
        return factor ** depth * initial_error

    depths = [float(np.min(current[1:]))]
    bounds = [bound_for(depths[0])]
    for ev in trace.events:
        comp = ev.component
        shallowest = min(version_depth[src][v] for src, _slot, v in ev.reads)
        new_depth = shallowest + 1.0
        versions[comp] += 1
        version_depth[comp][versions[comp]] = new_depth
        current[comp] = new_depth
        sigma = float(np.min(current[1:]))
        depths.append(sigma)
        bounds.append(bound_for(sigma))
    return np.asarray(depths), np.asarray(bounds)


def _full_states(trace):
    """The start state, then the state after each event, each rebuilt whole."""
    return (trace.state_after(k) for k in range(-1, len(trace.events)))


def state_errors(trace, fixed_point, kind) -> np.ndarray:
    """Largest block norm of state - fixed_point for every full state.

    Written out in numpy on the whole state, not through ``block_norms``:
    max-abs over every entry for INFINITY, the largest of the row norms
    ``np.linalg.norm(·, axis=1)`` for SPECTRAL.
    """
    diffs = [(state - fixed_point).data for state in _full_states(trace)]
    if kind is NormKind.INFINITY:
        return np.array([np.max(np.abs(d)) for d in diffs])
    return np.array([np.max(np.linalg.norm(d, axis=1)) for d in diffs])


def scan_finite_termination(trace, reference):
    """First event index whose full state matches the reference, or None.

    Builds every state of the trace (0 is the initial state) and tests it
    whole: every entry within rtol 1e-12 (atol 0) of the reference.
    """
    for idx, state in enumerate(_full_states(trace)):
        if np.allclose(state.data, reference.data, rtol=1e-12, atol=0.0):
            return idx
    return None
