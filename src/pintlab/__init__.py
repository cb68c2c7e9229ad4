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
    "analysis": """CheckResult ContractionReport CostParams RateComparison SpeedupReport
        async_convergence_check async_cost async_error_envelope asymptotic_speedups
        chazan_miranker_check check_finite_termination compare_factors
        contraction_factors factors_from_norms fit_overhead sequential_cost
        speedup_bound sync_convergence_check sync_cost""",
    "async_engine": """AsyncMapping AsyncTrace EngineView ScheduleValidation UpdateRecord
        linear_relaxation_mapping relaxation_solution simulate_async update_counts
        validate_schedule""",
    "async_parareal": "async_parareal_mapping async_stop_check run_async_parareal",
    "errors": """ConfigError DegenerateProblemError DimensionError EnvelopeUndefinedError
        HorizonExhausted InvalidThetaError SingularMatrixError SingularSystemError
        UndefinedLimitError UnfittableError""",
    "linalg": "BlockVector NormKind max_block_norm operator_norm spectral_radius",
    "model": """AffinePropagator LinearIVP PROPAGATOR_RULES backward_euler_propagator
        compose fine_from_onestep heat1d_system scalar_decay_system
        trapezoidal_propagator""",
    "parareal": """BlockSystem SyncTrace build_parareal_system coarse_init parareal_iterate
        parareal_update run_parareal sequential_fine_solve""",
    "schedule": "AsyncSchedule",
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
