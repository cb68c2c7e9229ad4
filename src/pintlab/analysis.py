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
from array import array
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import (
    DimensionError,
    EnvelopeUndefinedError,
    InvalidThetaError,
    UndefinedLimitError,
    UnfittableError,
)
from .linalg import BlockVector, NormKind, block_norms, blocks_match, operator_norm
from .model import AffinePropagator

if TYPE_CHECKING:  # annotations only: sync runs never load the engine
    from .async_log import AsyncTrace


@dataclass(frozen=True)
class ContractionReport:
    """Norm data and the derived contraction factors for one configuration."""

    coarse_norm: float      # operator norm of the coarse one-interval map
    defect_norm: float      # operator norm of fine-minus-coarse
    theta: float            # majorant of coarse_norm used in the sync factor
    sync_factor: float      # per-sweep bound for the synchronous iteration
    async_factor: float     # per-depth bound for asynchronous executions
    p: int
    norm_kind: NormKind

    def to_dict(self) -> dict:
        return {**asdict(self), "norm_kind": self.norm_kind.value}


def factors_from_norms(coarse_norm: float, defect_norm: float, p: int,
                       kind: NormKind = NormKind.SPECTRAL,
                       theta: float | None = None) -> ContractionReport:
    """Build the report from already-known norms.

    theta defaults to the coarse norm itself; any explicit value must be at
    least that. theta exactly one selects the limit form p * defect_norm.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if coarse_norm < 0.0 or defect_norm < 0.0:
        raise ValueError("norms must be nonnegative")
    th = coarse_norm if theta is None else float(theta)
    if th < coarse_norm:
        raise InvalidThetaError(
            f"theta={th} is below the coarse norm {coarse_norm}; "
            "the geometric-sum bound needs theta >= that norm"
        )
    if th == 1.0:
        sync_factor = p * defect_norm
    else:
        sync_factor = (1.0 - th ** p) / (1.0 - th) * defect_norm
    return ContractionReport(
        coarse_norm=float(coarse_norm),
        defect_norm=float(defect_norm),
        theta=th,
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


ENVELOPE_SLACK = 1.0 + 1e-10  # relative slack of an error against its bound


class EnvelopeCheck(NamedTuple):
    """The staleness-aware envelope's verdict on one trace."""

    sigma_final: float  # global depth after the last event; +inf once saturated
    bound_final: float  # the error bound at that depth
    holds: bool         # every state's error <= its bound * ENVELOPE_SLACK


def envelope_steps(trace: AsyncTrace, report: ContractionReport,
                   fixed_point: BlockVector) -> Iterator[tuple[float, float, float]]:
    """(depth, bound, error) of every state, the initial state first, from
    one ``trace.walk``.

    Depth bookkeeping: the pinned component is exact from the start
    (depth +inf); every other component starts at depth 0. An update sets
    the component's depth to one plus the shallowest depth among the
    versions it read (+inf when it reads nothing). The global depth after an
    event is the minimum over live components, and the bound is
    async_factor**depth times the initial error; a saturated (infinite)
    depth certifies an exactly reproduced state, bound zero. A read of a
    version its source never produced raises KeyError, and an async factor
    of one or more EnvelopeUndefinedError, when the walk reaches them.

    The minimum is kept running: a count of live components per depth moves
    it down when a stale read lowers a depth, and it is rescanned among the
    depths in use only when the count at the minimum reaches zero.

    The measured error is ``max_block_norm(state - fixed_point)`` in the
    report's norm, kept per block from ``trace.initial`` on: an event costs
    the norm of the block it wrote, with the bits of the whole-state norm.
    Their maximum is kept running the same way, rescanned only when the
    block holding it falls.
    """
    if report.async_factor >= 1.0:
        raise EnvelopeUndefinedError(
            f"envelope undefined: async factor {report.async_factor} >= 1"
        )
    factor = report.async_factor
    kind = report.norm_kind
    block_error = block_norms((trace.initial - fixed_point).data, kind).tolist()
    initial_error = top = max(block_error)
    top_at = block_error.index(top)  # a block holding the largest error
    p = trace.n_updatable

    # Per component, the depth of each version it produced; version 0 is the start.
    depth_of = [array("d", [math.inf if comp == 0 else 0.0]) for comp in range(p + 1)]
    current = [math.inf] + [0.0] * p
    live = {0.0: p}  # depth -> how many of components 1..p sit at it
    lowest = 0.0
    yield lowest, initial_error, initial_error  # at depth 0 the bound is the error
    errors = trace.walk(lambda rows, wrote:
                        block_norms(rows - fixed_point.data[wrote], kind).tolist())
    for comp, reads, _, error in errors:
        block_error[comp] = error
        if error >= top:
            top, top_at = error, comp
        elif comp == top_at:
            top = max(block_error)
            top_at = block_error.index(top)
        shallowest = math.inf
        for source, _slot, version in reads:
            table = depth_of[source]
            if not 0 <= version < len(table):
                raise KeyError(f"component {source} never reached version {version}")
            shallowest = min(shallowest, table[version])
        depth = shallowest + 1.0
        depth_of[comp].append(depth)
        old, current[comp] = current[comp], depth
        if comp:
            left = live[old] - 1
            if left:
                live[old] = left
            else:
                del live[old]
            live[depth] = live.get(depth, 0) + 1
            if depth < lowest:
                lowest = depth
            elif old == lowest and not left:
                lowest = min(live)
        bound = 0.0 if math.isinf(lowest) else factor ** lowest * initial_error
        yield lowest, bound, top


def async_error_envelope(trace: AsyncTrace, report: ContractionReport,
                         fixed_point: BlockVector) -> EnvelopeCheck:
    """Walk ``envelope_steps`` to the end and return its verdict: the final
    depth and bound, and whether every error stayed within its bound."""
    holds = True
    for depth, bound, error in envelope_steps(trace, report, fixed_point):
        holds = holds and error <= bound * ENVELOPE_SLACK
    return EnvelopeCheck(depth, bound, holds)


def check_finite_termination(trace: AsyncTrace,
                             reference: BlockVector) -> int | None:
    """Smallest event index whose state matches the reference.

    The index counts executed events (0 is the initial state) and the match
    rule is ``blocks_match`` on every block; synchronous runs record the same
    index while sweeping (``run_parareal(..., reference=...)``). Returns None
    when the trace never reaches the reference, which at desk scale indicates
    an invalid schedule or a too-short horizon.

    The rule is elementwise, so it is kept per block: one match flag per
    component and a count of mismatched blocks, updated along ``trace.walk``
    up to the first match. Each event costs O(d) and no state is assembled.
    """
    ref = reference.data
    if ref.shape != trace.initial.data.shape:
        raise DimensionError(
            f"reference of shape {ref.shape} for states of shape {trace.initial.data.shape}")
    matched = blocks_match(trace.initial.data, ref).tolist()
    mismatched = matched.count(False)
    if not mismatched:
        return 0
    flags = trace.walk(lambda rows, wrote: blocks_match(rows, ref[wrote]).tolist())
    for k, (comp, _, _, flag) in enumerate(flags, 1):
        mismatched += matched[comp] - flag
        matched[comp] = flag
        if not mismatched:
            return k
    return None


# ---------------------------------------------------------------------------
# Cost and speedup model (solve units)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostParams:
    """Inputs of the cost model.

    fine_cost / coarse_cost are per-subinterval propagation costs; overhead
    is the average non-overlapped per-sweep serialization cost of the
    synchronous schedule. k is the synchronous sweep count, kappa the
    maximum per-worker activation count of an asynchronous run.
    """

    p: int
    fine_cost: float
    coarse_cost: float
    overhead: float = 0.0
    k: int | None = None
    kappa: int | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if self.fine_cost < 0.0 or self.coarse_cost < 0.0 or self.overhead < 0.0:
            raise ValueError("costs must be nonnegative")


def sequential_cost(params: CostParams) -> float:
    """Cost of the purely sequential fine solve: p fine propagations."""
    return params.p * params.fine_cost


def sync_cost(params: CostParams) -> float:
    """Wall-model cost of k synchronous sweeps.

    p coarse propagations initialize; each sweep pays one fine plus one
    coarse propagation and the cascading overhead (p - 1 - (k+1)/2 averaged
    over sweeps).
    """
    if params.k is None:
        raise ValueError("sync cost needs k")
    k = params.k
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


def async_cost(params: CostParams) -> float:
    """Wall-model cost of an asynchronous run with kappa activations on the
    busiest worker: initialization plus kappa fine-plus-coarse evaluations."""
    if params.kappa is None:
        raise ValueError("async cost needs kappa")
    if params.kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {params.kappa}")
    return params.p * params.coarse_cost + params.kappa * (
        params.fine_cost + params.coarse_cost
    )


@dataclass(frozen=True)
class SpeedupReport:
    """Best-case async-over-sync ratio and, when measurable, the achieved one."""

    bound: float
    achieved: float | None


def speedup_bound(params: CostParams) -> SpeedupReport:
    """Upper bound 1 + (p-2) * overhead / (fine + coarse) on the ratio
    sync_cost / async_cost, attained at k = 1 with kappa = k.

    When both k and kappa are present the achieved ratio is evaluated and
    checked against the bound (it cannot exceed it while kappa >= k).
    """
    if params.p < 2:
        raise ValueError(f"speedup bound needs p >= 2, got p={params.p}")
    denom = params.fine_cost + params.coarse_cost
    if denom <= 0.0:
        raise UndefinedLimitError("fine + coarse cost must be positive")
    bound = 1.0 + (params.p - 2) * params.overhead / denom
    achieved = None
    if params.k is not None and params.kappa is not None:
        if params.kappa < params.k:
            raise ValueError(
                f"kappa={params.kappa} below k={params.k}: the asynchronous run "
                "cannot use fewer activations than the synchronous sweep count"
            )
        achieved = sync_cost(params) / async_cost(params)
        if achieved > bound * (1.0 + 1e-12):
            raise AssertionError(
                f"achieved ratio {achieved} exceeds the model bound {bound}"
            )
    return SpeedupReport(bound=bound, achieved=achieved)


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
