"""pintlab: a desk-scale laboratory for parallel-in-time integration.

Synchronous and asynchronous corrected coarse/fine iteration for linear
initial value problems, with deterministic simulated message delays, full
execution traces, convergence certificates, and a solve-unit cost model.

Every exported name loads its submodule on first use (PEP 562), so a run
that never touches the asynchronous engine never imports it.
"""
from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "analysis": """CheckResult ContractionReport CostParams async_convergence_check
        async_cost contraction_factors factors_from_norms fit_overhead sequential_cost
        speedup_achieved speedup_bound sync_convergence_check sync_cost""",
    "async_audit": """EnvelopeCheck ScheduleValidation async_error_envelope
        check_finite_termination envelope_steps update_counts validate_schedule""",
    "async_engine": "AsyncMapping simulate_async",
    "async_log": "AsyncTrace UpdateRecord",
    "async_parareal": "async_parareal_mapping run_async_parareal",
    "errors": """ConfigError DegenerateProblemError DimensionError EnvelopeUndefinedError
        HorizonExhausted SingularMatrixError SingularSystemError SweepOverflowError
        UndefinedLimitError UnfittableError""",
    "linalg": "BlockVector NormKind max_block_norm operator_norm",
    "model": """AffinePropagator LinearIVP PROPAGATOR_RULES backward_euler_propagator
        compose fine_from_onestep heat1d_system scalar_decay_system
        trapezoidal_propagator""",
    "parareal": """SyncTrace coarse_init parareal_update run_parareal
        sequential_fine_solve""",
    "schedule": "AsyncSchedule",
    "theory": """BlockSystem RateComparison asymptotic_speedups build_parareal_system
        chazan_miranker_check compare_factors linear_relaxation_mapping parareal_iterate
        relaxation_solution spectral_radius""",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
