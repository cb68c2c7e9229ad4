"""Seeded asynchronous schedules: who fires when, and how stale each read is.

A config's ``schedules`` parse into ``AsyncSchedule`` with this module alone;
the event simulator (``async_engine``) and the PCG64 stream (``_pcg64``)
load only when a schedule runs.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import echo

if TYPE_CHECKING:
    from .async_engine import AsyncMapping

POLICY_ROUND_ROBIN = "round-robin"
POLICY_RANDOM_FAIR = "random-fair"
POLICY_ADVERSARIAL = "adversarial-stale"
POLICIES = (POLICY_ROUND_ROBIN, POLICY_RANDOM_FAIR, POLICY_ADVERSARIAL)

STOP_PREDICATE = "stop-predicate"
STOP_QUIESCENCE = "quiescence"
STOP_HORIZON = "horizon"

INDEX_MAX = 2**31 - 1  # largest entry of the trace's 4-byte ("i") columns


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
        for name in ("seed", "delay_bound", "max_events"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {echo(value)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {echo(self.seed)}")
        if self.delay_bound < 0:
            raise ValueError(f"delay bound must be >= 0, got {echo(self.delay_bound)}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {echo(self.policy)}, expected one of {POLICIES}")
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {echo(self.max_events)}")
        if self.max_events > INDEX_MAX:
            raise ValueError(f"max_events must be <= {INDEX_MAX}: the trace keeps "
                             f"event indices in 4-byte columns; got {echo(self.max_events)}")
        if self.delay_bound > INDEX_MAX:
            raise ValueError(f"delay bound must be <= {INDEX_MAX}, the largest 4-byte "
                             f"event index; got {echo(self.delay_bound)}")

    def window(self, n_updatable: int) -> int:
        return n_updatable * (self.delay_bound + 1)

    def busiest_bound(self, n_updatable: int) -> int:
        """The most events one component can take: one in n_updatable under
        round-robin and adversarial-stale, and under random-fair what is left
        once every other component has fired once per full window."""
        if self.policy == POLICY_RANDOM_FAIR:
            full_windows = self.max_events // self.window(n_updatable)
            return self.max_events - (n_updatable - 1) * full_windows
        return -(-self.max_events // n_updatable)

    def script(self, mapping: "AsyncMapping") -> Iterator[tuple[int, list[int]]]:
        """Yield this schedule's events over ``mapping``, at most max_events.

        An event is (component, lags): who fires, and the staleness of each
        of its sampled reads in read_set order. Per event, one generator
        seeded with ``seed`` draws the component (random-fair only), then one
        lag in 0..delay_bound per sampled read (none if delay_bound is 0 or
        under adversarial-stale, whose lags are all delay_bound).
        """
        from ._pcg64 import PCG64  # only a drawn schedule needs it, so sync runs skip it
        p = mapping.n_updatable
        rng = PCG64(self.seed)
        bound, window = self.delay_bound, self.window(p)
        n_sampled = mapping.n_sampled
        # Virtual staggered history: pretend a full round just finished, so
        # deadlines are distinct and the first window stays fair.
        last_fired = {i: i - 1 - p for i in range(1, p + 1)}
        for k in range(self.max_events):
            if self.policy == POLICY_ROUND_ROBIN:
                comp = 1 + k % p
            elif self.policy == POLICY_ADVERSARIAL:
                comp = p - k % p
            else:
                # Random pick unless some component is close to missing its
                # fairness deadline. The least recently fired component has
                # the earliest deadline, so it is critical whenever any
                # component is; last_fired is kept in firing order, so it is
                # the first key.
                oldest = next(iter(last_fired))
                if last_fired[oldest] + window - k < p:
                    comp = oldest
                else:
                    comp = rng.integers(1, p + 1)
                del last_fired[comp]
                last_fired[comp] = k
            # lists: each tuple() of a generator would park a 1-tuple in CPython's free list
            if self.policy == POLICY_ADVERSARIAL or bound == 0:
                lags = [bound] * n_sampled[comp]
            else:
                lags = [rng.integers(0, bound + 1) for _ in range(n_sampled[comp])]
            yield comp, lags

    def to_dict(self) -> dict:
        return asdict(self)
