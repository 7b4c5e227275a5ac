"""Warm-startable dual active-set method for strictly convex QPs.

Solves  minimize 0.5 y'Gy + g'y  subject to  A y <= b,  with G symmetric
positive definite.  G is factored once in :func:`qp_setup` and reused by
every :func:`qp_solve` call on the workspace; only ``g`` changes between
calls, the access pattern of the outer splitting iteration.

With G = C C' (C the lower Cholesky factor kept by :func:`factor_spd`),
v = C'y turns the QP into the least-distance problem  minimize 0.5 v'v + c'v
subject to  U v <= b,  with c = C^{-1} g and whitened rows U = A C^{-T}
(Goldfarb & Idnani 1983; DAQP, Arnstroem, Bemporad & Axehill 2022).
:func:`qp_setup` whitens all rows with one triangular solve, a call whitens
``g`` with another, and y comes back from stationarity,
y = -G^{-1} (g + A_S' lam).  In between the Hessian is the identity, so an
entering row is its own direction and needs no solve.

The method works on the dual: from the unconstrained minimizer (or the
working set left by the previous solve) it picks a violated row and steps
toward it by the smaller of two lengths (Goldfarb & Idnani 1983): t_add adds
the row, t_drop drops the working-set row whose multiplier first reaches 0.
t_add is infinite when ``QpWorkspace._reduce``, the one admission test,
refuses the row, t_drop when no multiplier blocks, and both when the
constraints are infeasible.  Iterates stay dual feasible, so a warm start
from a nearly correct working set costs almost nothing.  The solvers pass
unit-norm rows, so violations compare directly.

The entering row is the most violated one, found by a full scan of all m
violations.  When m * n reaches ``_PRICE_MIN_SIZE`` that scan, an m x n
product, outweighs an add, so it also keeps its next ``_PRICE_K`` - 1 most
violated rows (multiple pricing): later passes take the first of them whose
violation, re-tested by one dot product, still exceeds the tolerance, and
scan again once the list runs out.  Any violated row keeps the method
finite (Goldfarb & Idnani 1983), and a solve still ends only on a full scan
that finds no violation.

State per working set: the indices, the rows ``U_S`` and bounds ``b_S`` in
contiguous blocks, and a lower Cholesky factor L of ``U_S U_S'``.  An add
extends L by one row.  A drop deletes a column of R = L', and Givens
rotations (``scipy.linalg.qr_delete``) restore the triangle in O(q^2).
Triangular solves are the BLAS ones of :mod:`avisolve.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm

from .errors import CycleLimit, DimensionMismatch, Infeasible
from .linalg import SpdFactor, cholesky_solve, factor_spd, lower_solve, upper_solve

__all__ = ["QpWorkspace", "QpResult", "qp_setup", "qp_solve"]

# Dual feasibility slack: working-set multipliers may dip this far below zero.
_EPS_DUAL = 1e-10
# Relative scale for the primal feasibility tolerance (times 1 + max|b|).
_EPS_PRIMAL_REL = 1e-8
# _reduce refuses a row u whose squared reduced norm is at most this fraction
# of u'u: it depends on the working set.
_DEP_REL = 1e-14
# Multiple pricing (module docstring) starts at m * n = _PRICE_MIN_SIZE.  A
# smaller scan costs less than the extra working-set changes that entering
# rows other than the most violated one bring; measured at m = 10 n, the
# break-even lies near m * n = 1.2e5.
_PRICE_K = 4
_PRICE_MIN_SIZE = 150_000


@dataclass
class QpResult:
    """Outcome of one QP solve.

    y : primal minimizer.
    multipliers : full-length dual vector, zero off the working set.
    active_set : sorted constraint indices in the final working set.
    inner_iterations : working-set changes (adds plus drops) this call.
    """

    y: np.ndarray
    multipliers: np.ndarray
    active_set: tuple[int, ...]
    inner_iterations: int


def _delete_factor_row(L: np.ndarray, k: int) -> np.ndarray:
    """Cholesky factor of L L' with row and column k deleted, in O(q^2).

    Deleting column k of R = L' leaves R' R = L L' minus that row and
    column; Givens rotations restore R to upper triangular form, and row
    signs are flipped so the new factor keeps a positive diagonal.
    """
    q = L.shape[0]
    if k == q - 1:
        return L[:k, :k].copy()
    # a column-ordered Q is rotated in place; a row-ordered one is copied
    _, R = scipy.linalg.qr_delete(
        np.eye(q, order="F"), L.T, k, which="col", overwrite_qr=True, check_finite=False
    )
    R = R[: q - 1]
    R[R.diagonal() < 0.0] *= -1.0
    return np.ascontiguousarray(R.T)


def _blocking_row(S: list[int], lam: np.ndarray, r: np.ndarray) -> tuple[float, int]:
    """Largest step t keeping lam - t r >= 0 and the position of the blocking
    row, ties to the smallest constraint index; (inf, -1) when no r_i > 0."""
    positive = (r > 0.0).nonzero()[0]
    if not positive.size:
        return math.inf, -1
    ratios = lam[positive] / r[positive]
    t = ratios.min()
    tied = positive[ratios <= t]
    return float(t), min(tied.tolist(), key=S.__getitem__)


class QpWorkspace:
    """Factored Hessian plus whitened constraint rows plus persistent working set."""

    def __init__(self, factor: SpdFactor, A: np.ndarray, b: np.ndarray):
        self.hessian_factor = factor
        self.A = A
        self.b = b
        self.n = factor.n
        self.m = A.shape[0]
        self.eps_primal = _EPS_PRIMAL_REL * (1.0 + (np.max(np.abs(b)) if self.m else 0.0))
        self.eps_dual = _EPS_DUAL
        # G = C C' and the whitened rows U = A C^{-T}, solved in place: U' is
        # the Fortran-ordered view of the C-ordered buffer
        self._C = factor.chol
        self._U = np.array(A, order="C")
        dtrsm(1.0, self._C.T, self._U.T, lower=0, trans_a=1, overwrite_b=1)
        self._S: list[int] = []
        # rows 0..q-1 hold U_S and b_S; independent rows number at most
        # min(m, n), so the blocks never grow
        cap = min(self.m, self.n)
        self._AS = np.empty((cap, self.n))
        self._bS = np.empty(cap)
        self._L = np.zeros((0, 0))
        self.total_inner_iterations = 0
        self.total_scans = 0

    @property
    def working_set(self) -> tuple[int, ...]:
        return tuple(self._S)

    # -- working-set bookkeeping -------------------------------------------

    def set_working_set(self, indices) -> None:
        """Reset the working set to the rows of ``indices`` that _reduce admits.

        Used for cold starts and to rewind the state after a rejected
        acceleration step in the outer solver.  A bad index raises before the
        state changes.  Only :func:`qp_solve` counts working-set changes, so
        rebuild work is never charged to ``total_inner_iterations``.
        """
        indices = [int(i) for i in indices]
        for i in indices:
            if not 0 <= i < self.m:
                raise DimensionMismatch(f"constraint index {i} out of range")
        self._S = []
        self._L = np.zeros((0, 0))
        for i in indices:
            u = self._U[i]
            l, d2 = self._reduce(u, float(u @ u))
            if d2:
                self._append(i, l, math.sqrt(d2))

    def _reduce(self, u: np.ndarray, uu: float) -> tuple[np.ndarray, float]:
        """L^{-1} U_S u and d2 = u'u - |L^{-1} U_S u|^2 for a whitened row u.

        The only admission test: d2 reads 0, and u may not enter, for a zero
        row, for a full working set (a further row depends on it whatever
        roundoff says) and when d2 <= _DEP_REL * u'u (u depends on U_S).
        """
        q = len(self._S)
        l = lower_solve(self._L, self._AS[:q] @ u) if q else np.zeros(0)
        d2 = uu - float(l @ l) if q < len(self._AS) else 0.0
        return l, (d2 if d2 > _DEP_REL * uu else 0.0)

    def _append(self, idx: int, l: np.ndarray, d: float) -> None:
        q = len(self._S)
        self._AS[q] = self._U[idx]
        self._bS[q] = self.b[idx]
        grown = np.zeros((q + 1, q + 1))
        grown[:q, :q] = self._L
        grown[q, :q] = l
        grown[q, q] = d
        self._L = grown
        self._S.append(idx)

    def _drop(self, pos: int) -> None:
        q = len(self._S)
        self._S.pop(pos)
        self._AS[pos : q - 1] = self._AS[pos + 1 : q]
        self._bS[pos : q - 1] = self._bS[pos + 1 : q]
        self._L = _delete_factor_row(self._L, pos)

    def _eqp(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Equality-constrained solve on the current working set.

        c is C^{-1} g.  Returns (v, lam_S) with U_S v = b_S and
        v + c + U_S' lam_S = 0.
        """
        q = len(self._S)
        if not q:
            return -c, np.zeros(0)
        US = self._AS[:q]
        lam = -cholesky_solve(self._L, self._bS[:q] + US @ c)
        return -c - US.T @ lam, lam


def qp_setup(hessian: np.ndarray, A: np.ndarray, b: np.ndarray) -> QpWorkspace:
    """Validate shapes, factor the Hessian, and return a reusable workspace."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    factor = factor_spd(hessian)
    n = factor.n
    if A.ndim != 2 or A.shape[1] != n:
        raise DimensionMismatch(f"constraint matrix shape {A.shape} incompatible with n={n}")
    if b.shape != (A.shape[0],):
        raise DimensionMismatch(f"rhs shape {b.shape} incompatible with {A.shape[0]} constraints")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("A or b contains non-finite entries")
    return QpWorkspace(factor, A, b)


def qp_solve(ws: QpWorkspace, linear_term: np.ndarray, warm_start: bool = True) -> QpResult:
    """Minimize 0.5 y'Gy + g'y over Ay <= b using the workspace state.

    With ``warm_start`` the solve begins from the working set left by the
    previous call; otherwise the working set is cleared first.  Raises
    Infeasible when the constraints admit no point, and CycleLimit if the
    number of working-set changes exceeds 100 * (m + n).
    """
    g = np.asarray(linear_term, dtype=float)
    if g.shape != (ws.n,):
        raise DimensionMismatch(f"linear term shape {g.shape}, expected ({ws.n},)")
    if not np.isfinite(g).all():
        raise ValueError("linear term contains non-finite entries")
    if not warm_start and ws._S:
        ws.set_working_set([])

    start_changes = ws.total_inner_iterations
    cap = 100 * (ws.m + ws.n)
    U, b, eps_primal, S = ws._U, ws.b, ws.eps_primal, ws._S
    c = lower_solve(ws._C, g)

    # Phase 1: re-solve on the inherited working set, shedding constraints
    # whose multipliers come out negative under the new linear term.
    v, lam = ws._eqp(c)
    while lam.size:
        k = int(lam.argmin())
        if not lam[k] < -ws.eps_dual:
            break
        ws._drop(k)
        ws.total_inner_iterations += 1
        if ws.total_inner_iterations - start_changes > cap:
            raise CycleLimit("working-set change budget exhausted in warm phase")
        v, lam = ws._eqp(c)
    settled = ws.total_inner_iterations

    # Phase 2: dual active-set main loop.  Every pass changes the working
    # set.  The entering row comes from the last scan's candidates or from a
    # new full scan, and the step takes the violation that admitted it,
    # recomputed only after a drop.  Only a full scan may end the loop.
    zero_steps = 0
    keep = min(_PRICE_K, ws.m) if ws.m * ws.n >= _PRICE_MIN_SIZE else 1
    candidates: list[int] = []
    while ws.m:
        if zero_steps >= ws.m + ws.n:
            candidates.clear()
        p = -1
        while candidates:
            i = candidates.pop()
            vp = float(U[i] @ v - b[i])
            if vp > eps_primal and i not in S:
                p = i
                break
        if p < 0:
            viol = U @ v
            viol -= b
            ws.total_scans += 1
            if viol.max() <= eps_primal:
                break
            if zero_steps >= ws.m + ws.n:
                # anti-cycling: fall back to smallest violated index
                p = int((viol > eps_primal).argmax())
            else:
                p = int(viol.argmax())
                if keep > 1:
                    top = np.argpartition(viol, -keep)[-keep:]
                    top = top[viol[top] > eps_primal]
                    # most violated last, for pop()
                    candidates = [i for i in top[viol[top].argsort()].tolist() if i != p]
            vp = float(viol[p])
        u = U[p]
        uu = float(u @ u)
        acc = 0.0  # multiplier accumulated for the entering constraint
        while vp > eps_primal:
            if ws.total_inner_iterations - start_changes > cap:
                raise CycleLimit("working-set change budget exhausted")
            q = len(S)
            l, d2 = ws._reduce(u, uu)
            r = upper_solve(ws._L, l) if q else l
            t_add = vp / d2 if d2 else math.inf
            t_drop, k = _blocking_row(S, lam, r)
            t = min(t_add, t_drop)
            if t == math.inf:
                raise Infeasible(f"constraint {p} is inconsistent with the working set")
            zero_steps = 0 if t > 0.0 else zero_steps + 1
            if d2:  # a refused row moves v by zero up to roundoff; skip it
                v = v - t * (u - ws._AS[:q].T @ r if q else u)
            if q:
                lam = lam - t * r
            acc += t
            if t_add <= t_drop:
                ws._append(p, l, math.sqrt(d2))
                ws.total_inner_iterations += 1
                lam = np.concatenate((lam, (acc,)))
                break
            ws._drop(k)
            ws.total_inner_iterations += 1
            lam = np.concatenate((lam[:k], lam[k + 1 :]))
            vp = float(u @ v - b[p])

    # Final polish: re-solving on the settled working set removes the
    # roundoff drift of the incremental updates and makes repeat calls with
    # the same linear term exact no-ops.  Without a change since phase 1,
    # lam already is that re-solve.
    if ws.total_inner_iterations != settled:
        lam = ws._eqp(c)[1]

    # back to y through stationarity, G y + g + A_S' lam_S = 0
    multipliers = np.zeros(ws.m)
    if S:
        multipliers[S] = lam
        g = g + ws.A[S].T @ lam
    return QpResult(
        y=-ws.hessian_factor.solve(g),
        multipliers=multipliers,
        active_set=tuple(sorted(S)),
        inner_iterations=ws.total_inner_iterations - start_changes,
    )
