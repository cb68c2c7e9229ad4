"""Per-layer spans for a traced repetition, recorded from outside the program.

``Tracer.install`` swaps the module-level names through which pintlab's
layers call each other for timing wrappers. Nothing under ``src/`` changes,
and the swap lives only in the benchmark's child process.

Layer-boundary calls become spans (name, start, end, parent, run id). Calls
made once per event or per corrector update are too many to keep one by
one; each is folded into its enclosing span as a (count, seconds) leaf. A
span's self time is its duration minus its child spans and its leaves.
Byte counts are computed from array sizes, not measured.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from functools import wraps

import pintlab.async_parareal
import pintlab.cli
import pintlab.errors
import pintlab.linalg
import pintlab.model
import pintlab.parareal

# span name -> the (module, attribute) it wraps; PROPAGATOR_RULES values
# become "model.fold" spans and the run's stop predicate an
# "async_parareal.stop_check" leaf.
SPANS = {
    "analysis.factors": (pintlab.cli, "contraction_factors"),
    "analysis.envelope": (pintlab.cli, "async_error_envelope"),
    "analysis.termination": (pintlab.cli, "check_finite_termination"),
    "parareal.sync": (pintlab.cli, "run_parareal"),
    "parareal.oracle": (pintlab.cli, "sequential_fine_solve"),
    "async_engine.simulate": (pintlab.async_parareal, "simulate_async"),
    "async_engine.validate": (pintlab.cli, "validate_schedule"),
}
LEAVES = {
    "parareal.update": (pintlab.parareal, "parareal_update"),
    "async_parareal.eval": (pintlab.async_parareal, "parareal_update"),
    "linalg.norm": (pintlab.cli, "max_block_norm"),
}


class Tracer:
    """In-memory span and count recorder for one child process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.counts: Counter = Counter()
        self.run_id = ""

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id, "id": len(self.spans),
            "leaves": defaultdict(lambda: [0, 0.0]),
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _span_wrapper(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf = self._open[-1]["leaves"][name]
                leaf[0] += 1
                leaf[1] += time.perf_counter() - start
        return wrapper

    def install(self) -> None:
        """Swap every traced name for its wrapper, for the rest of the process."""
        for name, (module, attr) in SPANS.items():
            setattr(module, attr, self._span_wrapper(name, getattr(module, attr)))
        for name, (module, attr) in LEAVES.items():
            setattr(module, attr, self._leaf_wrapper(name, getattr(module, attr)))
        rules = pintlab.model.PROPAGATOR_RULES
        for rule, fn in rules.items():
            rules[rule] = self._span_wrapper("model.fold", fn)

        simulate = pintlab.async_parareal.simulate_async

        @wraps(simulate)
        def simulate_counted(mapping, init, schedule, stop=None, **kwargs):
            if stop is not None:
                stop = self._leaf_wrapper("async_parareal.stop_check", stop)
            try:
                trace = simulate(mapping, init, schedule, stop=stop, **kwargs)
            except pintlab.errors.HorizonExhausted as exc:
                self._count_async(exc.trace, threshold_stop=False)
                raise
            self._count_async(trace, trace.stop_reason == "stop-predicate")
            return trace

        pintlab.async_parareal.simulate_async = simulate_counted

        sync = pintlab.cli.run_parareal

        @wraps(sync)
        def sync_counted(*args, **kwargs):
            trace = sync(*args, **kwargs)
            self.counts["sweeps"] += trace.k_final
            return trace

        pintlab.cli.run_parareal = sync_counted

        block_copy = pintlab.linalg.BlockVector.copy

        @wraps(block_copy)
        def copy_counted(block):
            self.counts["copy_calls"] += 1
            self.counts["copy_bytes"] += block.data.nbytes
            return block_copy(block)

        pintlab.linalg.BlockVector.copy = copy_counted

    def _count_async(self, trace, threshold_stop: bool) -> None:
        events = len(trace.events)
        self.counts["async_runs"] += 1
        self.counts["events"] += events
        self.counts["useful_events"] += sum(1 for ev in trace.events if ev.delta > 0.0)
        # One full-state snapshot per event.
        self.counts["snapshot_bytes"] += events * trace.initial.data.nbytes
        self.counts["threshold_stops"] += threshold_stop

    def per_layer(self, bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        total = defaultdict(float)      # span or leaf name -> seconds
        calls = Counter()               # leaf name -> calls
        self_time = defaultdict(float)  # span name -> seconds
        children = defaultdict(float)   # span id -> seconds in child spans
        for rec in self.spans:
            if rec["parent"] is not None:
                children[rec["parent"]] += rec["end"] - rec["start"]
        for rec in self.spans:
            duration = rec["end"] - rec["start"]
            total[rec["name"]] += duration
            covered = children[rec["id"]]
            for leaf, (count, seconds) in rec["leaves"].items():
                total[leaf] += seconds
                calls[leaf] += count
                covered += seconds
            self_time[rec["name"]] += duration - covered

        c = self.counts
        simulate_s = total["async_engine.simulate"]
        return {
            "async_engine.simulate_s": simulate_s,
            "async_engine.self_s": self_time["async_engine.simulate"],
            "async_engine.events": c["events"],
            "async_engine.events_per_s": c["events"] / simulate_s if simulate_s else 0.0,
            "async_engine.useful_event_frac": (
                c["useful_events"] / c["events"] if c["events"] else 0.0),
            "async_engine.snapshot_bytes": c["snapshot_bytes"],
            "async_engine.validate_s": total["async_engine.validate"],
            "async_parareal.eval_s": total["async_parareal.eval"],
            "async_parareal.stop_checks": calls["async_parareal.stop_check"],
            "async_parareal.stop_check_s": total["async_parareal.stop_check"],
            "async_parareal.threshold_stop_frac": (
                c["threshold_stops"] / c["async_runs"] if c["async_runs"] else 0.0),
            "parareal.sync_s": total["parareal.sync"],
            "parareal.update_s": total["parareal.update"],
            "parareal.updates": calls["parareal.update"],
            "parareal.sweeps": c["sweeps"],
            "parareal.oracle_s": total["parareal.oracle"],
            "analysis.factors_s": total["analysis.factors"],
            "analysis.envelope_s": total["analysis.envelope"],
            "analysis.termination_s": total["analysis.termination"],
            "linalg.norm_s": total["linalg.norm"],
            "linalg.copy_calls": c["copy_calls"],
            "linalg.copy_bytes": c["copy_bytes"],
            "model.fold_s": total["model.fold"],
            "cli.self_s": self_time["cli.run_experiment"],
            "cli.bytes_written": bytes_written,
        }

    def dump_spans(self) -> list[dict]:
        return [{**rec, "leaves": dict(rec["leaves"])} for rec in self.spans]
