"""The event log of an asynchronous run, and the read-plan rule it stores.

An ``AsyncTrace`` is what ``simulate_async`` returns and what every post-hoc
check reads: the events in order, the versions each one read, and the value
each one produced, in typed columns. ``read_plans`` is the one place that
spells out how a persisted slot replays an earlier read.
"""
from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from collections.abc import Iterable
from itertools import chain, islice, repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DimensionError
from .linalg import BlockVector
from .schedule import INDEX_MAX, AsyncSchedule

CHUNK_ROWS = 256  # rows per chunk of the value column
BATCH_ROWS = 64   # rows per call of walk's per_rows


def read_plans(read_set: dict[int, tuple[tuple[int, int], ...]], persistent_slots: dict[int, int],
               n_blocks: int) -> dict[int, tuple[tuple[int, int | None], ...]]:
    """Per component, its reads in read_set order as (source, base).

    base is None for a sampled slot, which takes a lag from the script. A
    persisted slot replays the version read at position base of read_set[i]
    at the component's previous event (0 before its first); its base slot
    must be a sampled slot read from the same source, or ValueError. Sources
    lie in 0..n_blocks - 1 and slots in 1..INDEX_MAX, or DimensionError.
    """
    for slot, base in persistent_slots.items():
        if base in persistent_slots:
            raise ValueError(f"persistent slot {slot} chained onto persistent slot {base}")
    plans = {}
    for i, reads in read_set.items():
        position = {slot: j for j, (_, slot) in enumerate(reads)}
        plan = []
        for source, slot in reads:
            if not 0 <= source < n_blocks:
                raise DimensionError(f"component {i} reads unknown source {source}")
            if not 1 <= slot <= INDEX_MAX:
                raise DimensionError(f"component {i} uses slot {slot} outside 1..{INDEX_MAX}")
            base = None
            if slot in persistent_slots:
                base = position.get(persistent_slots[slot])
                if base is None or reads[base][0] != source:
                    raise ValueError(f"component {i}: persistent slot {slot} must share its "
                                     f"source with base slot {persistent_slots[slot]}")
            plan.append((source, base))
        plans[i] = tuple(plan)
    return plans


class UpdateRecord(NamedTuple):
    """One event: which component fired, what it read, what came out.

    An event's number is its position in the trace's log.
    """

    component: int
    reads: tuple[tuple[int, int, int], ...]  # (source, slot, version)
    delta: float                             # max-abs change against prior value


class AsyncTrace:
    """Event log of one simulation, self-describing for offline checks.

    The log is columnar. Per event k it keeps ``component[k]``, the component
    that fired, and the r versions it read: each event of a component reads
    the r (source, slot) pairs of ``read_set[component]``, so its versions
    go to ``read_versions[component]`` in that order. Version v >= 1 of
    component c is its v-th event's value, row ``rows[c][v - 1]`` of the
    value column, and version 0 its block of ``initial``; every state
    derives from these. A value bitwise equal to its component's current
    version, logged with delta +0.0, reuses that row; any other fills a new
    row, written by ``row_component[row]`` with delta ``row_delta[row]``.
    So an event's delta is its row's when it wrote the row and 0.0 when it
    reused it. Rows fill 2-D chunks of CHUNK_ROWS rows, so the log grows
    without copying and holds at most one chunk of slack. Index and version
    columns are 4-byte ints.

    ``walk`` is the one event-order read of the columns: ``events``
    (UpdateRecords), ``jsonl_lines`` and every post-hoc pass go through it.
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
        self.row_component = array("i")
        self.row_delta = array("d")
        self.rows = [array("i") for _ in range(initial.n_blocks)]  # per version v >= 1
        self.read_versions = [array("i") for _ in range(initial.n_blocks)]
        self._chunks: list[np.ndarray] = []  # read-only views of the value chunks
        self._tail: np.ndarray | None = None  # the last chunk, writable

    @property
    def n_updatable(self) -> int:
        return self.initial.n_blocks - 1

    @property
    def n_events(self) -> int:
        return len(self.component)

    @property
    def events(self) -> list[UpdateRecord]:
        return [UpdateRecord(comp, reads, delta) for comp, reads, delta, _ in self.walk()]

    def append(self, component: int, versions: Iterable[int], delta: float,
               value: np.ndarray) -> None:
        """Log one event: the versions it read in read_set order, its delta
        and a copy of the value it produced, which has the block shape."""
        rows = self.rows[component]
        # bytes, not ==, so that -0.0 after 0.0 gets its own row and digest;
        # a row holds one delta, so only +0.0 may reuse one
        if (rows and delta == 0.0 and math.copysign(1.0, delta) > 0.0
                and self._row(rows[-1]).tobytes() == value.tobytes()):
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
            self.row_delta.append(delta)
        rows.append(row)
        self.component.append(component)
        self.read_versions[component].extend(versions)

    def _row(self, row: int) -> np.ndarray:
        chunk, row = divmod(row, CHUNK_ROWS)
        return self._chunks[chunk][row]

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
        for comp, version in Counter(islice(self.component, event_index + 1)).items():
            data[comp] = self.version_value(comp, version)
        return BlockVector(data)

    def walk(self, per_rows: Callable | None = None) -> Iterator[tuple[int, tuple, float, object]]:
        """(component, reads, delta, result) of every event in order.

        ``reads`` are the event's (source, slot, version) triples in read_set
        order, taken by one cursor per component over its versions. Rows are
        numbered in the order events write them, so an event wrote its row
        exactly when that row is the next unseen one: ``delta`` is then the
        row's, and 0.0 when the event reused its component's current row.
        ``per_rows(rows, wrote)`` maps a batch of at most BATCH_ROWS rows and
        their writers to one result per row when the walk first reaches the
        batch; a reused row repeats its component's result, so the walk keeps
        one per component. Without ``per_rows`` every result is None.
        """
        def batch(lo):  # CHUNK_ROWS is a multiple of BATCH_ROWS: a batch sits in one chunk
            wrote, at = self.row_component[lo:lo + BATCH_ROWS], lo % CHUNK_ROWS
            return per_rows(self._chunks[lo // CHUNK_ROWS][at:at + len(wrote)], wrote)

        fresh = (chain.from_iterable(map(batch, range(0, len(self.row_component), BATCH_ROWS)))
                 if per_rows else repeat(None))
        versions = [iter(column) for column in self.read_versions]
        rows = [iter(column) for column in self.rows]
        current: list[object] = [None] * self.initial.n_blocks
        seen = 0
        for comp in self.component:
            cursor = versions[comp]
            reads = tuple([(source, slot, next(cursor)) for source, slot in self.read_set[comp]])
            if next(rows[comp]) == seen:
                delta, current[comp] = self.row_delta[seen], next(fresh)
                seen += 1
            else:
                delta = 0.0
            yield comp, reads, delta, current[comp]

    def jsonl_lines(self) -> Iterator[str]:
        """The JSONL trace, one line per event, to be written as a stream.

        A line's digest is the first 16 hex digits of the sha256 of its
        value's bytes, taken once per row by ``walk``.
        """
        import hashlib  # loads OpenSSL, which only a written trace needs

        walk = self.walk(lambda rows, _: (hashlib.sha256(row.tobytes()).hexdigest()[:16]
                                          for row in rows))
        for k, (comp, reads, delta, digest) in enumerate(walk):
            yield json.dumps({"k": k, "component": comp, "reads": [list(r) for r in reads],
                              "digest": digest, "delta": delta}, sort_keys=True) + "\n"
