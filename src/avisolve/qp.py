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
constraints are infeasible.  It ends without an anti-cycling rule: an add
steps by t_add > 0, so a zero step drops, at most min(m, n) times in a row.
Iterates stay dual feasible, so a warm start from a nearly correct working
set costs almost nothing.  The solvers pass unit-norm rows, so violations
compare directly.

The entering row is the most violated one, found by a full scan of all m
violations.  When m * n reaches ``_PRICE_MIN_SIZE`` that scan, an m x n
product, outweighs an add, so it also keeps its next ``_PRICE_K`` - 1 most
violated rows (multiple pricing).  Each later pass pops one of them and
re-tests it by one dot product: a row still violated and outside the
working set enters, a stale one just ends the pass, so not every pass
changes the working set; once the list runs out, the next pass scans.  Any
violated row keeps the method finite (Goldfarb & Idnani 1983), and a solve
still ends only on a full scan that finds no violation.

A caller may cap the working-set changes of a call (``QpWorkspace.
max_changes``, off by default) when an inexact answer will do.  The test
sits at the top of a phase-2 pass, so a capped call stops right after an
add, with dual-feasible multipliers; y and the multipliers come from the
same final re-solve on the working set as always.  The working-set rows
then hold with equality, but other rows may be violated, and the result
reads ``capped``.  A warm call without the cap resumes from that working
set.  :func:`avisolve.avi.solve_dr_daqp` caps the QPs of early iterations.

State per working set: the indices, the rows ``U_S`` and bounds ``b_S`` in
contiguous blocks, and a lower Cholesky factor L of ``U_S U_S'``.  An add
extends L by one row.  A drop deletes a column of R = L', and Givens
rotations (``scipy.linalg.qr_delete``) restore its trailing block in O(q^2).
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
# qr_delete unwrapped; test_delete_factor_row_matches_public_qr_delete pins it
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)


@dataclass
class QpResult:
    """Outcome of one QP solve.

    y : primal minimizer.
    multipliers : full-length dual vector, zero off the working set.
    active_set : sorted constraint indices in the final working set.
    inner_iterations : working-set changes (adds plus drops) this call.
    capped : the call stopped at ``QpWorkspace.max_changes`` changes, so y
        may violate rows outside the working set (module docstring).
    """

    y: np.ndarray
    multipliers: np.ndarray
    active_set: tuple[int, ...]
    inner_iterations: int
    capped: bool


def row_indices(indices, m: int) -> list[int]:
    """``indices`` as a list of Python ints, each a constraint row in range(m).

    Any other entry raises DimensionMismatch: an index out of range, or one
    of a non-integer type, 1.0 and True included.  numpy integers pass.
    """
    rows = list(indices)
    for i in rows:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < m:
            raise DimensionMismatch(f"constraint index {i!r} is not a row in range({m})")
    return [int(i) for i in rows]


def _delete_factor_row(L: np.ndarray, k: int) -> np.ndarray:
    """Cholesky factor of L L' with row and column k deleted, in O(q^2).

    Deleting column k of R = L' leaves R' R = L L' minus that row and
    column.  Givens rotations restore the trailing block, rows k.. of R, to
    triangular form (rows above k stay so), and its rows flip sign so the
    new factor keeps a positive diagonal.  L's trailing block is consumed.
    """
    q = L.shape[0]
    out = np.zeros((q - 1, q - 1))
    out[:k, :k] = L[:k, :k]
    out[k:, :k] = L[k + 1 :, :k]
    if k < q - 1:
        # a column-ordered Q is rotated in place; a row-ordered one is copied
        Q = np.eye(q - k, order="F")
        _, R = _qr_delete(Q, L[k:, k:].T, 0, which="col", overwrite_qr=True, check_finite=False)
        R = R[:-1]
        R[R.diagonal() < 0.0] *= -1.0
        out[k:, k:] = R.T
    return out


def _blocking_row(lam: np.ndarray, r: np.ndarray) -> tuple[float, int]:
    """Largest step t keeping lam - t r >= 0 and the position of the blocking
    row, ties to the first blocking position; (inf, -1) when no r_i > 0."""
    positive = (r > 0.0).nonzero()[0]
    if not positive.size:
        return math.inf, -1
    ratios = lam[positive] / r[positive]
    k = int(ratios.argmin())
    return float(ratios[k]), int(positive[k])


class QpWorkspace:
    """Factored Hessian plus whitened constraint rows plus persistent working set.

    ``max_changes`` (None: no cap) caps the working-set changes of each
    :func:`qp_solve` call on the workspace; see the module docstring.
    """

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
        self.max_changes: int | None = None

    @property
    def working_set(self) -> tuple[int, ...]:
        return tuple(self._S)

    @property
    def change_budget(self) -> int:
        """Working-set changes one call may make before it raises CycleLimit."""
        return 100 * (self.m + self.n)

    @property
    def priced(self) -> bool:
        """Whether scans keep candidates (multiple pricing, module docstring)."""
        return self.m * self.n >= _PRICE_MIN_SIZE

    # -- working-set bookkeeping -------------------------------------------

    def set_working_set(self, indices) -> None:
        """Reset the working set to the rows of ``indices`` that _reduce admits.

        Used for cold starts and to rewind the state after a rejected
        acceleration step in the outer solver.  A bad index raises before the
        state changes.  Only :func:`qp_solve` counts working-set changes, so
        rebuild work is never charged to ``total_inner_iterations``.
        """
        indices = row_indices(indices, self.m)
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
        l = lower_solve(self._L, self._AS[:q] @ u)
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
    number of working-set changes exceeds ``ws.change_budget``.

    With ``ws.max_changes`` set, phase 2 stops at the top of the first pass
    that begins with that many changes made, right after an add, and the
    result reads ``capped``: its multipliers are dual feasible and the
    working-set rows hold with equality, but other rows may be violated.
    """
    g = np.asarray(linear_term, dtype=float)
    if g.shape != (ws.n,):
        raise DimensionMismatch(f"linear term shape {g.shape}, expected ({ws.n},)")
    if not np.isfinite(g).all():
        raise ValueError("linear term contains non-finite entries")
    if not warm_start and ws._S:
        ws.set_working_set([])

    start_changes = ws.total_inner_iterations
    budget = ws.change_budget
    stop = math.inf if ws.max_changes is None else start_changes + ws.max_changes
    U, b, eps_primal, S = ws._U, ws.b, ws.eps_primal, ws._S
    c = lower_solve(ws._C, g)

    # Phase 1: re-solve on the inherited working set, shedding rows whose
    # multipliers turn negative: at most min(m, n) drops, so no change budget.
    v, lam = ws._eqp(c)
    while lam.size:
        k = int(lam.argmin())
        if not lam[k] < -ws.eps_dual:
            break
        ws._drop(k)
        ws.total_inner_iterations += 1
        v, lam = ws._eqp(c)
    settled = ws.total_inner_iterations

    # Phase 2: dual active-set main loop.  A pass takes one entering row, a
    # priced candidate or a full scan's most violated row; a stale candidate
    # just ends the pass, and only a scan that finds no violation ends the
    # loop, unless the change cap ends it at the top of a pass.  The step takes
    # the violation that admitted the row, recomputed only after a drop; the
    # row enters even if a drop left vp <= eps_primal, as v carries acc for it.
    # No anti-cycling rule: an add steps by t_add = vp / d2 > 0, as vp starts
    # above eps_primal and a drop stops short of t_add, so each step of length
    # <= 0 drops one of at most min(m, n) rows; the budget guards roundoff.
    keep = min(_PRICE_K, ws.m) if ws.priced else 1
    candidates: list[int] = []
    capped = False
    while ws.m:
        if ws.total_inner_iterations >= stop:
            capped = True
            break
        if candidates:
            p = candidates.pop()
            vp = float(U[p] @ v - b[p])
            if not vp > eps_primal or p in S:
                continue
        else:
            viol = U @ v
            viol -= b
            ws.total_scans += 1
            p = int(viol.argmax())
            vp = float(viol[p])
            if not vp > eps_primal:
                break
            if keep > 1:
                top = np.argpartition(viol, -keep)[-keep:]
                top = top[viol[top] > eps_primal]
                # most violated last, for pop()
                candidates = [i for i in top[viol[top].argsort()].tolist() if i != p]
        u = U[p]
        uu = float(u @ u)
        acc = 0.0  # multiplier accumulated for the entering constraint
        while True:
            if ws.total_inner_iterations - start_changes > budget:
                raise CycleLimit("working-set change budget exhausted")
            q = len(S)
            l, d2 = ws._reduce(u, uu)
            r = upper_solve(ws._L, l)
            t_add = vp / d2 if d2 else math.inf
            t_drop, k = _blocking_row(lam, r)
            t = min(t_add, t_drop)
            if t == math.inf:
                raise Infeasible(f"constraint {p} is inconsistent with the working set")
            if d2:  # a refused row moves v by zero up to roundoff; skip it
                v = v - t * (u - ws._AS[:q].T @ r)
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
        capped=capped,
    )
