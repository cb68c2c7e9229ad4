"""Convergence certificates and the cost/speedup model.

Two contraction factors matter. The synchronous factor bounds the per-sweep
error reduction of the joint iteration; the asynchronous factor, coarse norm
plus correction-defect norm, bounds the per-depth reduction of any fair
bounded-staleness execution. Whenever the asynchronous factor is below one
it strictly dominates the synchronous one, so asynchrony costs contraction
rate but never convergence.

Costs are counted in solve units under the standard non-overlapped model:
the synchronous schedule pays a cascading coarse-propagation overhead per
sweep, the asynchronous schedule pays one fine-plus-coarse evaluation per
worker activation.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .errors import ConfigError, UndefinedLimitError, UnfittableError
from .linalg import NormKind, operator_norm
from .model import AffinePropagator


@dataclass(frozen=True)
class ContractionReport:
    """Norm data and the derived contraction factors for one configuration."""

    coarse_norm: float      # operator norm of the coarse one-interval map
    defect_norm: float      # operator norm of fine-minus-coarse
    sync_factor: float      # per-sweep bound for the synchronous iteration
    async_factor: float     # per-depth bound for asynchronous executions
    p: int
    norm_kind: NormKind

    def to_dict(self) -> dict:
        # "theta", the coarse-norm majorant in the sync factor, is the norm itself
        return {**asdict(self), "theta": self.coarse_norm, "norm_kind": self.norm_kind.value}


def factors_from_norms(coarse_norm: float, defect_norm: float, p: int,
                       kind: NormKind = NormKind.SPECTRAL) -> ContractionReport:
    """Build the report from already-known norms.

    The sync factor is the geometric sum of the coarse norm's first p powers
    times the defect norm; a coarse norm of exactly one takes its limit form
    p * defect_norm.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if coarse_norm < 0.0 or defect_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    if coarse_norm == 1.0:
        sync_factor = p * defect_norm
    else:
        try:
            sync_factor = (1.0 - coarse_norm ** p) / (1.0 - coarse_norm) * defect_norm
        except OverflowError:  # a float power raises where a product gives inf
            sync_factor = math.inf
    if not math.isfinite(sync_factor):
        raise ConfigError(f"config.p: coarse norm {coarse_norm:.6g} to the power p={p} "
                          f"overflows the sync factor")
    return ContractionReport(
        coarse_norm=float(coarse_norm),
        defect_norm=float(defect_norm),
        sync_factor=float(sync_factor),
        async_factor=float(coarse_norm + defect_norm),
        p=p,
        norm_kind=kind,
    )


def contraction_factors(coarse: AffinePropagator, fine: AffinePropagator, p: int,
                        kind: NormKind = NormKind.SPECTRAL) -> ContractionReport:
    """Measure the norms of actual propagators and derive both factors."""
    coarse_norm = operator_norm(coarse.matrix, kind)
    defect_norm = operator_norm(fine.matrix - coarse.matrix, kind)
    return factors_from_norms(coarse_norm, defect_norm, p, kind=kind)


class CheckResult(NamedTuple):
    """(holds, margin); margin > 0 iff holds."""

    holds: bool
    margin: float


def sync_convergence_check(report: ContractionReport) -> CheckResult:
    """Sufficient condition for the synchronous iteration to contract.

    Requires the coarse map to contract and the combined factor to stay
    below 1 + coarse_norm^p * defect_norm; the margin is the smaller slack.
    """
    slack_coarse = 1.0 - report.coarse_norm
    slack_combined = (
        1.0 + report.coarse_norm ** report.p * report.defect_norm
        - report.async_factor
    )
    margin = min(slack_coarse, slack_combined)
    return CheckResult(slack_coarse > 0.0 and slack_combined > 0.0, margin)


def async_convergence_check(report: ContractionReport) -> CheckResult:
    """Asynchronous executions contract iff coarse + defect norms stay below one."""
    margin = 1.0 - report.async_factor
    return CheckResult(margin > 0.0, margin)


# ---------------------------------------------------------------------------
# Cost and speedup model (solve units)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostParams:
    """Inputs of the cost model.

    fine_cost / coarse_cost are per-subinterval propagation costs; overhead
    is the average non-overlapped per-sweep serialization cost of the
    synchronous schedule. The iteration counts are arguments of the
    functions that charge them: k sweeps for ``sync_cost``, kappa
    activations of the busiest worker for ``async_cost``.
    """

    p: int
    fine_cost: float
    coarse_cost: float
    overhead: float = 0.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if self.fine_cost < 0.0 or self.coarse_cost < 0.0 or self.overhead < 0.0:
            raise ValueError("costs must be nonnegative")


def sequential_cost(params: CostParams) -> float:
    """Cost of the purely sequential fine solve: p fine propagations."""
    return params.p * params.fine_cost


def sync_cost(params: CostParams, k: int) -> float:
    """Wall-model cost of k synchronous sweeps.

    p coarse propagations initialize; each sweep pays one fine plus one
    coarse propagation and the cascading overhead (p - 1 - (k+1)/2 averaged
    over sweeps).
    """
    if k < 0 or k > params.p:
        raise ValueError(f"k must lie in [0, p]; got k={k}, p={params.p}")
    if k == 0:
        return params.p * params.coarse_cost
    per_sweep = (
        params.fine_cost
        + params.coarse_cost
        + (params.p - 1 - (k + 1) / 2.0) * params.overhead
    )
    return params.p * params.coarse_cost + k * per_sweep


def async_cost(params: CostParams, kappa: int) -> float:
    """Wall-model cost of an asynchronous run with kappa activations on the
    busiest worker: initialization plus kappa fine-plus-coarse evaluations."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return params.p * params.coarse_cost + kappa * (
        params.fine_cost + params.coarse_cost
    )


def speedup_bound(params: CostParams) -> float:
    """Upper bound 1 + (p-2) * overhead / (fine + coarse) on the ratio
    sync_cost / async_cost, attained at k = 1 with kappa = k."""
    if params.p < 2:
        raise ValueError(f"speedup bound needs p >= 2, got p={params.p}")
    denom = params.fine_cost + params.coarse_cost
    if denom <= 0.0:
        raise UndefinedLimitError("fine + coarse cost must be positive")
    return 1.0 + (params.p - 2) * params.overhead / denom


def speedup_achieved(params: CostParams, k: int, kappa: int) -> float:
    """The ratio sync_cost / async_cost of k sweeps against kappa
    activations, checked against ``speedup_bound`` (it cannot exceed it
    while kappa >= k)."""
    bound = speedup_bound(params)
    if kappa < k:
        raise ValueError(
            f"kappa={kappa} below k={k}: the asynchronous run "
            "cannot use fewer activations than the synchronous sweep count"
        )
    achieved = sync_cost(params, k) / async_cost(params, kappa)
    if achieved > bound * (1.0 + 1e-12):
        raise AssertionError(f"achieved ratio {achieved} exceeds the model bound {bound}")
    return achieved


def fit_overhead(total_cost: float, p: int, k: int, fine_cost: float,
                 coarse_cost: float) -> float:
    """Invert the synchronous cost model for the overhead coefficient.

    Exact round trip with sync_cost by construction; results are floored at
    zero since a negative overhead has no physical meaning.
    """
    if k < 1:
        raise UnfittableError(f"need k >= 1 to fit the overhead, got k={k}")
    denom = k * (p - 1) - k * (k + 1) / 2.0
    if denom <= 0.0:
        raise UnfittableError(
            f"overhead coefficient vanishes for p={p}, k={k}; nothing to fit"
        )
    raw = (total_cost - p * coarse_cost - k * (fine_cost + coarse_cost)) / denom
    return max(raw, 0.0)
