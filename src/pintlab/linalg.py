"""Dense linear-algebra substrate: block vectors, norms, pivoted solves.

Everything here is sized for desk-scale experiments (matrices up to a few
dozen rows) and hands the numerics to numpy's LAPACK bindings: the spectral
norm is the largest singular value, and solves are LU with partial pivoting
(the spectral radius, which no run needs, is in ``theory``). These are
the backward-stable routines of Golub & Van Loan, *Matrix Computations*,
ch. 7-8. Closed-form cross-checks for tiny matrices live in the test suite.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DimensionError, SingularMatrixError

PIVOT_REL_TOL = 1e-14  # sigma_min below this times sigma_max means singular
MATCH_RTOL = 1e-12     # finite termination: relative gap per entry, no absolute slack


class NormKind(Enum):
    """Which operator norm drives an analysis.

    SPECTRAL is the default everywhere: it is the sharper choice for the
    symmetric step matrices produced by the diffusion models.
    """

    INFINITY = "infinity"
    SPECTRAL = "spectral"


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D float array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


class BlockVector:
    """Stack of equally sized value blocks, one per interface point.

    Block ``i`` is the state carried at the i-th subinterval boundary; all
    blocks share one dimension, so the storage is a plain (n_blocks, dim)
    array.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        a = np.asarray(data, dtype=float)
        if a.ndim != 2:
            raise DimensionError(
                f"block vector needs a (n_blocks, dim) array, got ndim={a.ndim}"
            )
        if not np.all(np.isfinite(a)):
            raise ValueError("block entries must be finite")
        self.data = a

    @property
    def n_blocks(self) -> int:
        return self.data.shape[0]

    @property
    def block_dim(self) -> int:
        return self.data.shape[1]

    @property
    def flat(self) -> np.ndarray:
        """Row-major flattening, block 0 first."""
        return self.data.reshape(-1)

    @classmethod
    def from_flat(cls, vec, n_blocks: int) -> "BlockVector":
        v = np.asarray(vec, dtype=float)
        if v.ndim != 1 or v.size % n_blocks:
            raise DimensionError("flat vector length not divisible by block count")
        return cls(v.reshape(n_blocks, -1))

    def __getitem__(self, i: int) -> np.ndarray:
        return self.data[i]

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        if self.data.shape != other.data.shape:
            raise DimensionError("block vectors differ in shape")
        return BlockVector(self.data - other.data)

    def copy(self) -> "BlockVector":
        return BlockVector(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockVector(n_blocks={self.n_blocks}, dim={self.block_dim})"


def blocks_match(blocks: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The finite-termination match rule, per row of two (n, dim) arrays of
    finite values; the sync and async checks share it.

    Row i is True when every entry of it lies within MATCH_RTOL of the
    matching reference entry, relative to the reference, with no absolute
    tolerance. For finite values this is the rule of
    ``np.allclose(..., rtol=MATCH_RTOL, atol=0)``, entry by entry, so a state
    matches exactly when all of its blocks do.
    """
    return np.all(np.abs(blocks - reference) <= MATCH_RTOL * np.abs(reference), axis=1)


def block_norms(blocks: np.ndarray, kind: NormKind = NormKind.SPECTRAL) -> np.ndarray:
    """Vector norm of each row of an (n, dim) array, inner norm matched to ``kind``.

    SPECTRAL pairs with the Euclidean block norm, INFINITY with max-abs,
    so operator-norm bounds apply blockwise without mixing norms. A row's
    norm has the same bits in any batch of rows; a 1-D ``np.linalg.norm``
    of the row rounds differently in the last bit.
    """
    if kind is NormKind.INFINITY:
        return np.max(np.abs(blocks), axis=1, initial=0.0)
    return np.linalg.norm(blocks, axis=1)


def max_block_norm(x: BlockVector, kind: NormKind = NormKind.SPECTRAL) -> float:
    """Largest per-block vector norm (``block_norms``); 0 with no entries."""
    return float(np.max(block_norms(x.data, kind), initial=0.0))


def operator_norm(m, kind: NormKind = NormKind.SPECTRAL) -> float:
    """Induced operator norm of a square matrix.

    INFINITY is the exact max row sum. SPECTRAL is the largest singular
    value, from LAPACK's SVD.
    """
    a = _square(m)
    if a.size == 0:
        return 0.0
    if kind is NormKind.INFINITY:
        return float(np.max(np.sum(np.abs(a), axis=1)))
    return float(np.linalg.norm(a, 2))


def lu_solve(a, b) -> np.ndarray:
    """Solve a X = b by dense LU with partial pivoting.

    Singularity is the rank test on singular values: sigma_max = 0 or
    sigma_min below PIVOT_REL_TOL times sigma_max raises SingularMatrixError
    carrying sigma_min as its pivot.
    """
    mat = _square(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != mat.shape[0]:
        raise DimensionError(
            f"rhs has {rhs.shape[0]} rows, matrix has {mat.shape[0]}"
        )
    sigma = np.linalg.svd(mat, compute_uv=False)
    largest = float(sigma[0]) if sigma.size else 0.0
    smallest = float(sigma[-1]) if sigma.size else 0.0
    if largest == 0.0 or smallest < PIVOT_REL_TOL * largest:
        raise SingularMatrixError(
            f"matrix numerically singular (sigma_min {smallest:.3e}, "
            f"sigma_max {largest:.3e})",
            pivot=smallest,
        )
    # Fortran order, as LAPACK's getrs writes it. Propagator matrices are
    # sliced out of the solution, and a slice's layout picks the BLAS path
    # of every later ``matrix @ state``: a C-ordered copy holds bitwise-equal
    # values but rounds those products differently, so every trace moves.
    return np.asfortranarray(np.linalg.solve(mat, rhs))
