"""Dense factorizations used by the solver stack.

Two factorization routes are provided and kept deliberately separate:

* :func:`factor_spd` is LAPACK's Cholesky factorization M = C C^T (C lower
  triangular with a positive diagonal, no pivoting); it refuses input whose
  pivots C_jj^2 are not safely positive.  This is the workhorse for the
  regularized Hessians appearing in the inner quadratic programs, which are
  symmetric positive definite by construction; the inner QP whitens its
  constraint rows with the same C.
* :func:`factor_general` is LAPACK's LU factorization with partial pivoting for
  square systems with no useful structure, such as the nonsymmetric H and
  the Schur complement of an active set.  Singularity is reported as an
  error rather than silently returning garbage.

Both factor objects expose ``solve``.  :func:`lower_solve` and
:func:`upper_solve` are the single-vector triangular solves behind
:meth:`SpdFactor.solve`, shared with the inner QP's working-set factor.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf

from .errors import DimensionMismatch, NotPositiveDefinite, Singular

__all__ = [
    "SpdFactor",
    "GeneralFactor",
    "factor_spd",
    "factor_general",
    "lower_solve",
    "upper_solve",
    "cholesky_solve",
]

# Relative floor on the pivots C_jj^2, scaled by the mean diagonal.
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


def lower_solve(C: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """C^{-1} rhs for lower triangular C (uncopied if C-contiguous); empty if rhs is."""
    return dtrsv(C.T, rhs, trans=1) if rhs.size else rhs.copy()  # BLAS refuses n = 0


def upper_solve(C: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """C'^{-1} rhs for lower triangular C; empty if rhs is."""
    return dtrsv(C.T, rhs) if rhs.size else rhs.copy()


def cholesky_solve(C: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(C C')^{-1} rhs for a vector rhs and lower triangular C."""
    return upper_solve(C, lower_solve(C, rhs))


class SpdFactor:
    """Cholesky factorization M = C C^T of a symmetric positive definite matrix.

    Attributes
    ----------
    chol : (n, n) ndarray
        C-contiguous lower triangular factor C with a positive diagonal.
    """

    def __init__(self, chol: np.ndarray):
        self.chol = chol
        self.n = chol.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs for a vector rhs."""
        b = np.asarray(rhs, dtype=float)
        if b.shape != (self.n,):
            raise DimensionMismatch(f"rhs has shape {b.shape}, factor is {self.n}x{self.n}")
        return cholesky_solve(self.chol, b)

    def reconstruct(self) -> np.ndarray:
        """Return C @ C.T, for testing the factorization."""
        return self.chol @ self.chol.T


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
    """Factor a symmetric positive definite matrix as C C^T.

    The input must be finite and symmetric to within ``1e-12 * max|M|``;
    every pivot C_jj^2 must exceed ``1e-12 * trace(M) / n``.  Violations raise
    :class:`~avisolve.errors.NotPositiveDefinite`, which doubles as the
    positive-definiteness test used elsewhere in the package.
    """
    mat = _require_square(matrix, "factor_spd")
    n = mat.shape[0]
    scale = abs(mat).max()
    if not np.isfinite(scale):
        raise NotPositiveDefinite("matrix contains non-finite entries")
    if abs(mat - mat.T).max() > _SYM_REL * scale:
        raise NotPositiveDefinite("matrix is not symmetric to working precision")

    chol, info = dpotrf(mat, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"leading minor of order {info} is not positive definite")
    diag = np.diag(chol) ** 2
    # the floor summed as 1e-12 M_jj / n, which cannot overflow
    low = (diag <= (_PIVOT_REL / n * mat.diagonal()).sum()).nonzero()[0]
    if low.size:
        j = int(low[0])
        raise NotPositiveDefinite(
            f"pivot {diag[j]:.3e} at position {j} is below the positive floor"
        )
    # dpotrf returns C in Fortran order; BLAS reads a C-ordered C uncopied
    return SpdFactor(np.ascontiguousarray(chol))


def factor_general(matrix: np.ndarray) -> GeneralFactor:
    """LU-factor a general square matrix, rejecting singular input.

    Non-finite input counts as singular, and so does a factorization with a
    diagonal entry of U at or below ``1e-12`` times the largest row sum of |M|.
    """
    mat = _require_square(matrix, "factor_general")
    n = mat.shape[0]
    row_scale = abs(mat).sum(axis=1).max()
    if not np.isfinite(row_scale):
        raise Singular("matrix contains non-finite entries")
    # an exactly zero pivot (info > 0) fails the diagonal test below
    lu, piv, _ = dgetrf(mat)
    if abs(lu.diagonal()).min() <= _SINGULAR_REL * row_scale:
        raise Singular("matrix is singular to working precision")
    return GeneralFactor(lu, piv, n)

