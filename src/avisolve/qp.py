"""Warm-startable dual active-set method for strictly convex QPs.

Solves

    minimize   0.5 * y' G y + g' y
    subject to A y <= b

with G symmetric positive definite.  The Hessian is factored once in
:func:`qp_setup` and reused across every subsequent :func:`qp_solve` call on
the same workspace; only the linear term ``g`` changes between calls.  That
is the access pattern of the outer splitting iteration, which solves a long
sequence of QPs differing in ``g`` alone.

The method works on the dual: it starts from the unconstrained minimizer (or
from the working set left by the previous solve), and repeatedly picks a
violated constraint, then takes the largest step toward satisfying it that
keeps the working-set multipliers nonnegative, dropping blocking constraints
along the way.  Iterates stay dual feasible throughout, so a warm start from
a nearly correct working set costs almost nothing.

State per working set: the indices themselves, the rows ``A_S``, the rows
of ``W' = (G^{-1} A_S')'`` and the bounds ``b_S`` in contiguous row blocks,
and a lower Cholesky factor L of ``M = A_S W``.  Adding a constraint extends
L by one row.  Dropping one deletes a row and a column of M, which stays
positive definite; with ``R = L'`` that is a column deletion from R, and
Givens rotations (``scipy.linalg.qr_delete``) restore the triangle in O(q^2)
without recomputing ``A_S W``.  Triangular solves against L call BLAS
``dtrsv`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsv

from .errors import CycleLimit, DimensionMismatch, Infeasible
from .linalg import SpdFactor, factor_spd

__all__ = ["QpWorkspace", "QpResult", "qp_setup", "qp_solve"]

# Dual feasibility slack: working-set multipliers may dip this far below zero.
_EPS_DUAL = 1e-10
# Relative scale for the primal feasibility tolerance (times 1 + max|b|).
_EPS_PRIMAL_REL = 1e-8
# A candidate row counts as dependent on the working set when the squared
# norm of its reduced direction falls below this fraction of a' G^{-1} a, or
# when the working set already holds min(m, n) rows.
_DEP_REL = 1e-14


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


def _lower_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^{-1} rhs for lower triangular L; a C-contiguous L is passed uncopied."""
    return dtrsv(L.T, rhs, trans=1)


def _upper_solve(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L'^{-1} rhs for lower triangular L."""
    return dtrsv(L.T, rhs)


def _delete_factor_row(L: np.ndarray, k: int) -> np.ndarray:
    """Cholesky factor of L L' with row and column k deleted, in O(q^2).

    Deleting column k of R = L' leaves R' R = L L' minus that row and
    column; Givens rotations restore R to upper triangular form, and row
    signs are flipped so the new factor keeps a positive diagonal.
    """
    q = L.shape[0]
    if k == q - 1:
        return L[:k, :k].copy()
    _, R = scipy.linalg.qr_delete(
        np.eye(q), L.T, k, which="col", overwrite_qr=True, check_finite=False
    )
    R = R[: q - 1]
    R[R.diagonal() < 0.0] *= -1.0
    return np.ascontiguousarray(R.T)


def _blocking_row(S: list[int], lam: np.ndarray, r: np.ndarray, positive: np.ndarray):
    """Largest step t keeping lam - t r >= 0 on ``positive`` (where r > 0)
    and the position of the blocking row; ties go to the smallest constraint index."""
    ratios = lam[positive] / r[positive]
    t = ratios.min()
    tied = positive[ratios <= t]
    return float(t), min(tied.tolist(), key=S.__getitem__)


class QpWorkspace:
    """Factored Hessian plus constraint data plus persistent working set."""

    def __init__(self, factor: SpdFactor, A: np.ndarray, b: np.ndarray):
        self.hessian_factor = factor
        self.A = A
        self.b = b
        self.n = factor.n
        self.m = A.shape[0]
        self.eps_primal = _EPS_PRIMAL_REL * (1.0 + (np.max(np.abs(b)) if self.m else 0.0))
        self.eps_dual = _EPS_DUAL
        # selection scale: 1 + Euclidean norm of each constraint row
        self._row_scale = 1.0 + np.linalg.norm(A, axis=1) if self.m else np.zeros(0)
        self._S: list[int] = []
        # rows 0..q-1 hold A_S, W' (W = G^{-1} A_S') and b_S; independent
        # rows number at most min(m, n), so the blocks never grow
        cap = min(self.m, self.n)
        self._AS = np.empty((cap, self.n))
        self._WT = np.empty((cap, self.n))
        self._bS = np.empty(cap)
        self._L = np.zeros((0, 0))
        self.total_inner_iterations = 0

    @property
    def working_set(self) -> tuple[int, ...]:
        return tuple(self._S)

    # -- working-set bookkeeping -------------------------------------------

    def set_working_set(self, indices) -> None:
        """Reset the working set, skipping rows dependent on earlier ones.

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
            a = self.A[i]
            w = self.hessian_factor.solve(a)
            aw = float(a @ w)
            if aw <= 0.0:
                continue  # zero row carries no geometry
            l, d2 = self._reduce(w, aw)
            if d2 <= _DEP_REL * aw:
                continue
            self._append(i, w, l, math.sqrt(d2))

    def _reduce(self, w: np.ndarray, aw: float) -> tuple[np.ndarray, float]:
        """L^{-1} A_S w and the squared norm of the entering row's reduced
        direction, a' G^{-1} a - |L^{-1} A_S w|^2, for w = G^{-1} a.

        The norm reads 0 once the working set is full: a further row then
        depends on the working set whatever roundoff says.
        """
        q = len(self._S)
        if not q:
            return np.zeros(0), aw
        l = _lower_solve(self._L, self._AS[:q] @ w)
        return l, (aw - float(l @ l) if q < len(self._AS) else 0.0)

    def _append(self, idx: int, w: np.ndarray, l: np.ndarray, d: float) -> None:
        q = len(self._S)
        self._AS[q] = self.A[idx]
        self._WT[q] = w
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
        self._WT[pos : q - 1] = self._WT[pos + 1 : q]
        self._bS[pos : q - 1] = self._bS[pos + 1 : q]
        self._L = _delete_factor_row(self._L, pos)

    def _msolve(self, u: np.ndarray) -> np.ndarray:
        """Solve M r = u against the Cholesky factor of A_S W."""
        return _upper_solve(self._L, _lower_solve(self._L, u))

    def _eqp(self, g0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Equality-constrained solve on the current working set.

        g0 is G^{-1} g.  Returns (y, lam_S) with A_S y = b_S and
        G y + g + A_S' lam_S = 0.
        """
        q = len(self._S)
        if not q:
            return -g0.copy(), np.zeros(0)
        rhs = self._bS[:q] + self._AS[:q] @ g0
        lam = -self._msolve(rhs)
        y = -g0 - self._WT[:q].T @ lam
        return y, lam


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
    if not warm_start and ws._S:
        ws.set_working_set([])

    start_changes = ws.total_inner_iterations
    cap = 100 * (ws.m + ws.n)
    A, b, eps_primal, S = ws.A, ws.b, ws.eps_primal, ws._S
    g0 = ws.hessian_factor.solve(g)

    # Phase 1: re-solve on the inherited working set, shedding constraints
    # whose multipliers come out negative under the new linear term.
    y, lam = ws._eqp(g0)
    while lam.size:
        k = int(lam.argmin())
        if not lam[k] < -ws.eps_dual:
            break
        ws._drop(k)
        ws.total_inner_iterations += 1
        if ws.total_inner_iterations - start_changes > cap:
            raise CycleLimit("working-set change budget exhausted in warm phase")
        y, lam = ws._eqp(g0)
    settled = ws.total_inner_iterations

    # Phase 2: dual active-set main loop.
    zero_steps = 0
    while ws.m:
        viol = A @ y
        viol -= b
        if viol.max() <= eps_primal:
            break
        if zero_steps >= ws.m + ws.n:
            # anti-cycling: fall back to smallest violated index
            p = int((viol > eps_primal).argmax())
        else:
            p = int(np.where(viol > eps_primal, viol / ws._row_scale, -np.inf).argmax())
        a_p = A[p]
        w = ws.hessian_factor.solve(a_p)
        aw = float(a_p @ w)
        acc = 0.0  # multiplier accumulated for the entering constraint
        while True:
            if ws.total_inner_iterations - start_changes > cap:
                raise CycleLimit("working-set change budget exhausted")
            vp = float(a_p @ y - b[p])
            if vp <= eps_primal:
                break  # resolved by drops taken along the way
            q = len(S)
            l, d2 = ws._reduce(w, aw)
            r = _upper_solve(ws._L, l) if q else l
            positive = (r > 0.0).nonzero()[0]
            if d2 > _DEP_REL * aw and d2 > 0.0:
                t_full = vp / d2
                if positive.size:
                    t_drop, k = _blocking_row(S, lam, r, positive)
                else:
                    t_drop, k = np.inf, -1
                t = min(t_full, t_drop)
                zero_steps = 0 if t > 0.0 else zero_steps + 1
                y = y - t * (w - ws._WT[:q].T @ r if q else w)
                if q:
                    lam = lam - t * r
                acc += t
                if t_full <= t_drop:
                    ws._append(p, w, l, math.sqrt(d2))
                    ws.total_inner_iterations += 1
                    lam = np.concatenate((lam, (acc,)))
                    break
            else:
                # the entering row is dependent on the working set; move in
                # the dual only, or certify infeasibility
                if not positive.size:
                    raise Infeasible(f"constraint {p} is inconsistent with the working set")
                t, k = _blocking_row(S, lam, r, positive)
                zero_steps = 0 if t > 0.0 else zero_steps + 1
                lam = lam - t * r
                acc += t
            ws._drop(k)
            ws.total_inner_iterations += 1
            lam = np.concatenate((lam[:k], lam[k + 1 :]))

    # Final polish: re-solving on the settled working set removes the
    # roundoff drift of the incremental updates and makes repeat calls with
    # the same linear term exact no-ops.  Without a change since phase 1,
    # (y, lam) already is that re-solve.
    if ws.total_inner_iterations != settled:
        y, lam = ws._eqp(g0)

    multipliers = np.zeros(ws.m)
    if S:
        multipliers[S] = lam
    return QpResult(
        y=y,
        multipliers=multipliers,
        active_set=tuple(sorted(S)),
        inner_iterations=ws.total_inner_iterations - start_changes,
    )
