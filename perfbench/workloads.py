"""The benchmark's heat1d workloads, as raw configs for ``pintlab.cli.parse_config``.

Every schedule seed is the workload seed itself. Only the random-fair
policy draws from it; round-robin and adversarial-stale schedules are the
same for every seed.

This module imports nothing outside the standard library, so the parent
process can list workloads without loading numpy or the program.
"""
from __future__ import annotations

FINE_TRAP_100 = {"rule": "trapezoidal", "steps": 100}
FINE_TRAP_1000 = {"rule": "trapezoidal", "steps": 1000}
COARSE_BE_1 = {"rule": "backward-euler", "steps": 1}


def _heat(n: int, t_final: float) -> dict:
    return {"name": "heat1d", "n_interior": n, "t_final": t_final}


def async_p64(seed: int) -> list[dict]:
    # The async factor is 0.867 < 1 at t_final=3.2, so the envelope and the
    # per-event measured-error pass run as well as the event loop.
    return [{
        "label": "async-p64",
        "problem": _heat(16, 3.2),
        "p": 64,
        "fine": FINE_TRAP_100,
        "coarse": COARSE_BE_1,
        "epsilon": 0.0,
        "schedules": [
            {"seed": seed, "delay_bound": 2, "policy": "random-fair"},
            {"seed": seed, "delay_bound": 2, "policy": "adversarial-stale"},
        ],
    }]


def sync_p512(seed: int) -> list[dict]:
    # No schedules: the async engine does no work, so the seed is unused.
    del seed
    return [{
        "label": "sync-p512",
        "problem": _heat(16, 1.6),
        "p": 512,
        "fine": FINE_TRAP_100,
        "coarse": COARSE_BE_1,
        "epsilon": 0.0,
    }]


def sweep_small(seed: int) -> list[dict]:
    # Many small runs: per-run fixed costs dominate, and epsilon > 0 turns
    # on the per-event threshold-stop predicate.
    schedules = [
        {"seed": seed, "delay_bound": d, "policy": policy}
        for policy in ("round-robin", "random-fair", "adversarial-stale")
        for d in (0, 1, 3)
    ]
    return [
        {
            "label": f"sweep-p{p}-n{n}",
            "problem": _heat(n, 1.6),
            "p": p,
            "fine": FINE_TRAP_1000,
            "coarse": COARSE_BE_1,
            "epsilon": 1e-9,
            "schedules": schedules,
        }
        for p in (4, 8, 16)
        for n in (8, 24)
    ]


# name -> (config builder, write traces)
WORKLOADS = {
    "async-p64": (async_p64, False),
    "sync-p512": (sync_p512, False),
    "sweep-small": (sweep_small, True),
}
