"""Dense factorizations used by the solver stack.

Two factorization routes are provided and kept deliberately separate:

* :func:`factor_spd` computes an LDL^T factorization (unit lower
  triangular L, positive diagonal d, no pivoting) from LAPACK's Cholesky
  factor and refuses input whose pivots are not safely positive.  This is
  the workhorse for the regularized Hessians appearing in the inner
  quadratic programs, which are symmetric positive definite by
  construction.
* :func:`factor_general` is LAPACK's LU factorization with partial pivoting for
  square systems with no useful structure, such as the nonsymmetric H and
  the Schur complement of an active set.  Singularity is reported as an
  error rather than silently returning garbage.

Both factor objects expose ``solve``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf

from .errors import DimensionMismatch, NotPositiveDefinite, Singular

__all__ = [
    "SpdFactor",
    "GeneralFactor",
    "factor_spd",
    "factor_general",
]

# Relative pivot floor for the LDL^T route, scaled by the mean diagonal.
_PIVOT_REL = 1e-12
# Relative symmetry slack accepted by factor_spd.
_SYM_REL = 1e-12
# Relative U-diagonal floor below which an LU factorization counts as singular.
_SINGULAR_REL = 1e-12


def _require_square(matrix: np.ndarray, op: str) -> np.ndarray:
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{op} expects a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise DimensionMismatch(f"{op} expects a nonempty matrix")
    return mat


class SpdFactor:
    """LDL^T factorization of a symmetric positive definite matrix.

    Attributes
    ----------
    lower : (n, n) ndarray
        Unit lower triangular factor L.
    diag : (n,) ndarray
        Positive pivots d with ``M = L @ diag(d) @ L.T``.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray):
        self.lower = lower
        self.diag = diag
        self.n = lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs; rhs may be a vector or a matrix of columns."""
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has leading dimension {b.shape[0]}, factor is {self.n}x{self.n}"
            )
        if b.ndim == 1:
            # BLAS on the transpose: a C-contiguous L is passed uncopied
            lt = self.lower.T
            y = dtrsv(lt, b, trans=1, diag=1) / self.diag
            return dtrsv(lt, y, diag=1)
        y = scipy.linalg.solve_triangular(
            self.lower, b, lower=True, unit_diagonal=True, check_finite=False
        )
        y = (y.T / self.diag).T
        return scipy.linalg.solve_triangular(
            self.lower.T, y, lower=False, unit_diagonal=True, check_finite=False
        )

    def reconstruct(self) -> np.ndarray:
        """Return L @ diag(d) @ L.T, for testing the factorization."""
        return (self.lower * self.diag) @ self.lower.T


class GeneralFactor:
    """LU factorization with partial pivoting of a square nonsingular matrix."""

    def __init__(self, lu: np.ndarray, piv: np.ndarray, n: int):
        self._lu = lu
        self._piv = piv
        self.n = n

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has leading dimension {b.shape[0]}, factor is {self.n}x{self.n}"
            )
        return dgetrs(self._lu, self._piv, b)[0]


def factor_spd(matrix: np.ndarray) -> SpdFactor:
    """Factor a symmetric positive definite matrix as L diag(d) L^T.

    The input must be symmetric to within ``1e-12 * max|M|``; every pivot must
    exceed ``1e-12 * trace(M) / n``.  Violations raise
    :class:`~avisolve.errors.NotPositiveDefinite`, which doubles as the
    positive-definiteness test used elsewhere in the package.
    """
    mat = _require_square(matrix, "factor_spd")
    n = mat.shape[0]
    scale = abs(mat).max()
    if abs(mat - mat.T).max() > _SYM_REL * scale:
        raise NotPositiveDefinite("matrix is not symmetric to working precision")

    # M = C C' with C lower triangular, so L = C / diag(C), d = diag(C)^2
    chol, info = dpotrf(mat, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"leading minor of order {info} is not positive definite")
    root = np.diag(chol)
    diag = root**2
    low = (diag <= _PIVOT_REL * mat.trace() / n).nonzero()[0]
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"pivot {diag[j]:.3e} at position {j} is below the positive floor"
        )
    lower = np.ascontiguousarray(chol / root)
    return SpdFactor(lower, diag)


def factor_general(matrix: np.ndarray) -> GeneralFactor:
    """LU-factor a general square matrix, rejecting singular input.

    A factorization counts as singular when any diagonal entry of U falls at
    or below ``1e-12`` times the largest row sum of ``|M|``.
    """
    mat = _require_square(matrix, "factor_general")
    n = mat.shape[0]
    # an exactly zero pivot (info > 0) fails the diagonal test below
    lu, piv, _ = dgetrf(mat)
    row_scale = abs(mat).sum(axis=1).max()
    if abs(lu.diagonal()).min() <= _SINGULAR_REL * row_scale:
        raise Singular("matrix is singular to working precision")
    return GeneralFactor(lu, piv, n)

