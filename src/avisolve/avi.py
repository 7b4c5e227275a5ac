"""Solvers for strongly monotone affine variational inequalities.

The problem: find x in the polyhedron {x : A x <= b} such that

    (H x + f)' (y - x) >= 0   for every feasible y,

with H + H' positive definite.  When H is symmetric this is the optimality
condition of a convex QP; in general H is nonsymmetric and no objective
exists, but the solution is still unique and characterized by the KKT system

    H x + f + A' lam = 0,   0 <= lam  perp  (b - A x) >= 0.

Three solvers are provided:

* :func:`solve_dr` is a splitting iteration.  Each step solves a strictly
  convex QP whose Hessian ``H_tilde = rho I + sym(H)`` is fixed and whose
  linear term depends on the running iterate, then applies a linear update
  through a cached factorization of ``rho I + H``.  Converges linearly; the
  merit ``||y_k - z_k||`` is the stopping signal.
* :func:`solve_dr_daqp` adds corrections to the splitting: the reduced KKT
  system of the inner QP's active set is solved directly, through one LU
  factor of H per solve and a q x q Schur complement
  (:func:`kkt_active_solve`), and a candidate that passes the exactness
  check ends the solve with status Exact.  Its docstring states when a
  correction runs, and how the inner QPs of early iterations are capped.
* :func:`solve_projected_gradient` is a deliberately simple baseline:
  Euclidean projections of explicit gradient steps.  Never exact.

All three share one outer loop and run on a copy of the problem whose
constraint rows have unit norm.  All iteration-level norms are Euclidean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import AssumptionViolated, DimensionMismatch, NotPositiveDefinite, Singular
from .linalg import GeneralFactor, factor_general, factor_spd
from .qp import QpWorkspace, qp_setup, qp_solve, row_indices

__all__ = [
    "STATUS_EXACT",
    "STATUS_TOLERANCE",
    "STATUS_MAXITER",
    "AviProblem",
    "SolverSettings",
    "DrWorkspace",
    "ReducedKkt",
    "Solution",
    "TraceRecord",
    "IterationTrace",
    "build_dr_workspace",
    "qp_linear_term",
    "dr_update",
    "kkt_active_solve",
    "check_solution",
    "kkt_residual",
    "natural_residual",
    "solve_dr",
    "solve_dr_daqp",
    "solve_projected_gradient",
]

STATUS_EXACT = "Exact"
STATUS_TOLERANCE = "Tolerance"
STATUS_MAXITER = "MaxIter"


@dataclass
class AviProblem:
    """Problem data: matrix H (n x n, generally nonsymmetric), vector f,
    and the polyhedron {x : A x <= b} with A of shape (m x n).

    m = 0 (unconstrained) is allowed; pass A with shape (0, n).
    """

    H: np.ndarray
    f: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1] or self.H.shape[0] == 0:
            raise DimensionMismatch(f"H must be square and nonempty, got {self.H.shape}")
        n = self.H.shape[0]
        if self.f.shape != (n,):
            raise DimensionMismatch(f"f has shape {self.f.shape}, expected ({n},)")
        if self.A.size == 0:
            self.A = self.A.reshape(0, n)
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise DimensionMismatch(f"A has shape {self.A.shape}, expected (m, {n})")
        if self.b.shape != (self.A.shape[0],):
            raise DimensionMismatch(
                f"b has shape {self.b.shape}, expected ({self.A.shape[0]},)"
            )
        for name, arr in (("H", self.H), ("f", self.f), ("A", self.A), ("b", self.b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SolverSettings:
    """Tuning knobs shared by all solvers.

    rho=None and pg_step=None select the automatic choices: rho becomes the
    Frobenius norm of H, and the projected-gradient step becomes mu / L**2
    with mu the smallest eigenvalue of sym(H) and L the Frobenius norm of H.
    The exactness tolerances ``eps_primal`` and ``eps_dual`` of
    :func:`check_solution` are fixed class constants; ``eps_primal`` also
    sets row i's tolerance eps_primal (1 + |b_i|) in the active-set walk of
    :func:`solve_dr_daqp`.
    """

    eps_primal: ClassVar[float] = 1e-8
    eps_dual: ClassVar[float] = 1e-8
    rho: float | None = None
    eta: float = 1e-6
    max_iter: int = 10000
    stab_count: int = 2
    pg_step: float | None = None

    def __post_init__(self):
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite, or None")
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        for name in ("max_iter", "stab_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stab_count < 1:
            raise ValueError("stab_count must be at least 1")
        if self.pg_step is not None and not 0 < self.pg_step < math.inf:
            raise ValueError("pg_step must be positive and finite, or None")


@dataclass
class DrWorkspace:
    """Factored data of the splitting iteration.

    The inner QP's working set is the only state that changes during a
    solve; the rest depends on the problem and rho alone.  The LU factor of
    rho I + H is built on first use, so a solve that ends before its first
    DR update never computes it.
    """

    problem: AviProblem
    h_sym: np.ndarray
    qp_hessian: np.ndarray
    rho: float
    qp: QpWorkspace
    h_delta: np.ndarray

    @functools.cached_property
    def update_factor(self) -> GeneralFactor:
        """LU factor of rho I + H, the matrix of :func:`dr_update`."""
        return factor_general(self.rho * np.eye(self.problem.n) + self.problem.H)


@dataclass
class Solution:
    """Solver output.

    On status Exact, (x, multipliers) satisfies the KKT system to the
    solver's exactness tolerances and multipliers vanish off active_set.  On
    Tolerance/MaxIter exits the multipliers come from the final inner QP:
    they certify that QP, not the variational inequality itself.
    """

    x: np.ndarray
    multipliers: np.ndarray
    active_set: tuple[int, ...]
    status: str
    iterations: int
    kkt_residual: float


@dataclass
class TraceRecord:
    """One iteration of a solve; active_set is a diagnostic extra.

    dist_to_ref is the distance of the solver's state after the iteration:
    the updated splitting iterate z for the splitting solvers (the object
    the convergence guarantee speaks about) and the stepped iterate for the
    projected-gradient baseline; on a terminating iteration it is the
    distance of the returned solution estimate.  active_set is the inner
    QP's, except on an Exact exit, where it is the returned solution's.
    chain_steps counts the reduced KKT solves of the iteration's active-set
    walks (see :func:`solve_dr_daqp`); the corrections themselves add one
    each.
    """

    k: int
    merit: float
    active_set_size: int
    newton_attempted: bool
    newton_accepted: bool
    inner_qp_iters: int
    dist_to_ref: float | None = None
    active_set: tuple[int, ...] = ()
    chain_steps: int = 0


class IterationTrace(list):
    """Per-iteration TraceRecords; one record per iteration performed."""

    def dists(self) -> np.ndarray:
        """dist_to_ref per iteration, NaN where no reference was supplied."""
        return np.array([np.nan if r.dist_to_ref is None else r.dist_to_ref for r in self])

    def accepted_merits(self) -> list[float]:
        return [r.merit for r in self if r.newton_accepted]

    def iterations_to(self, tol: float) -> int | None:
        """Iterations needed for dist_to_ref to reach tol; None if never."""
        for r in self:
            if r.dist_to_ref is not None and r.dist_to_ref <= tol:
                return r.k + 1
        return None


# ---------------------------------------------------------------------------
# workspace construction and per-iteration pieces


def _checked_sym(p: AviProblem) -> np.ndarray:
    """sym(H); raises AssumptionViolated unless it is positive definite."""
    h_sym = 0.5 * (p.H + p.H.T)
    try:
        factor_spd(h_sym)
    except NotPositiveDefinite as exc:
        raise AssumptionViolated(str(exc)) from exc
    return h_sym


def build_dr_workspace(p: AviProblem, s: SolverSettings) -> DrWorkspace:
    """Factor what the splitting iteration needs; the DR update's factor
    waits for its first use (:attr:`DrWorkspace.update_factor`).

    Checks the standing assumption (sym(H) positive definite) first; a
    violation raises AssumptionViolated.  rho defaults to the Frobenius
    norm of H.
    """
    h_sym = _checked_sym(p)
    rho = float(s.rho) if s.rho is not None else float(np.linalg.norm(p.H, "fro"))
    qp_hessian = rho * np.eye(p.n) + h_sym
    workspace = DrWorkspace(
        problem=p,
        h_sym=h_sym,
        qp_hessian=qp_hessian,
        rho=rho,
        qp=qp_setup(qp_hessian, p.A, p.b),
        h_delta=p.H - qp_hessian,
    )
    return workspace


def qp_linear_term(ws: DrWorkspace, z: np.ndarray) -> np.ndarray:
    """Linear term of the inner QP at iterate z: f + (H - H_tilde) z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (ws.problem.n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({ws.problem.n},)")
    return ws.problem.f + ws.h_delta @ z


def dr_update(ws: DrWorkspace, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Averaging step: (rho I + H)^{-1} (rho y + H z + 0.5 sym(H) (y - z))."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    n = ws.problem.n
    if y.shape != (n,) or z.shape != (n,):
        raise DimensionMismatch("y and z must both have length n")
    rhs = ws.rho * y + ws.problem.H @ z + 0.5 * (ws.h_sym @ (y - z))
    return ws.update_factor.solve(rhs)


class ReducedKkt:
    """What :func:`kkt_active_solve` keeps between calls on one problem.

    The LU factor of H, h = H^{-1}(-f) and the column H^{-1} a_i of every
    row solved for so far; a later call solves only for the rows new to
    its active set.  The factor is computed on first use.  The solver
    driver makes one per solve.
    """

    def __init__(self, p: AviProblem):
        self.problem = p
        self.factor: GeneralFactor | None = None
        self.h: np.ndarray | None = None
        self.cols: dict[int, np.ndarray] = {}


def kkt_active_solve(
    p: AviProblem, act, reduced: ReducedKkt | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the reduced KKT system for a candidate active set.

    Solves [[H, A_S'], [A_S, 0]] [x; lam] = [-f; b_S] through one LU
    factor of H and the q x q Schur complement (the range-space method):
    with X = H^{-1} A_S' and h = H^{-1}(-f), lam solves
    (A_S X) lam = A_S h - b_S and x = h - X lam, and one step of iterative
    refinement with the same factors follows.  ``reduced`` carries the
    factor and the columns of X between calls on the same problem; without
    it a throwaway one is used.  Raises Singular when the active rows are
    dependent (the caller treats that as "no correction available").
    Multipliers are returned for the active rows only, in sorted index
    order; callers scatter them into a full vector.
    """
    indices = sorted(row_indices(act, p.m))
    if len(set(indices)) != len(indices):
        raise DimensionMismatch("active set contains repeated indices")
    if reduced is None:
        reduced = ReducedKkt(p)
    elif reduced.problem is not p:
        raise ValueError("reduced was built for another problem")
    if reduced.factor is None:
        reduced.factor = factor_general(p.H)
        reduced.h = reduced.factor.solve(-p.f)
    h, cols = reduced.h, reduced.cols
    if not indices:
        return h.copy(), np.zeros(0)
    new = [i for i in indices if i not in cols]
    if new:
        rhs = p.A[new].T
        if len(new) == 1:
            # LAPACK solves a single column by another kernel, whose bits
            # differ; a column must not depend on the batch it came in
            rhs = np.repeat(rhs, 2, axis=1)
        solved = reduced.factor.solve(rhs)
        for j, i in enumerate(new):
            cols[i] = solved[:, j]
    X = np.column_stack([cols[i] for i in indices])
    A_S, b_S = p.A[indices], p.b[indices]
    schur = factor_general(A_S @ X)
    lam = schur.solve(A_S @ h - b_S)
    x = h - X @ lam
    # h - X lam cancels when cond(H) is large; one refinement step on the
    # saddle system's residual brings x back to the accuracy of an LU of it
    r = reduced.factor.solve(-p.f - p.H @ x - A_S.T @ lam)
    d_lam = schur.solve(A_S @ r - (b_S - A_S @ x))
    return x + r - X @ d_lam, lam + d_lam


def _kkt_parts(p: AviProblem, x, multipliers) -> tuple[float, ...]:
    """The four KKT violations of a primal-dual pair, unscaled, with their scales.

    Returns (stationarity, 1 + max|f|, primal infeasibility, negative
    multiplier, complementarity, 1 + max|b|).  The last three violations are
    zero when m = 0.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(multipliers, dtype=float)
    if x.shape != (p.n,) or lam.shape != (p.m,):
        raise DimensionMismatch("solution candidate has wrong dimensions")
    stat = float(abs(p.H @ x + p.f + p.A.T @ lam).max())
    f_scale = 1.0 + float(abs(p.f).max())
    if not p.m:
        return stat, f_scale, 0.0, 0.0, 0.0, 1.0
    slack = p.b - p.A @ x
    infeas, neg = max(0.0, float(-slack.min())), max(0.0, float(-lam.min()))
    comp = float(abs(lam * slack).max())
    return stat, f_scale, infeas, neg, comp, 1.0 + float(abs(p.b).max())


def check_solution(
    p: AviProblem,
    x: np.ndarray,
    multipliers: np.ndarray,
    eps_primal: float,
    eps_dual: float,
) -> bool:
    """Exactness test for a primal-dual pair.

    True iff stationarity holds within eps_dual * (1 + max|f|), primal
    feasibility and complementarity within eps_primal * (1 + max|b|), and
    multipliers are above -eps_dual.
    """
    stat, f_scale, infeas, neg, comp, b_scale = _kkt_parts(p, x, multipliers)
    return (
        stat <= eps_dual * f_scale
        and infeas <= eps_primal * b_scale
        and neg <= eps_dual
        and comp <= eps_primal * b_scale
    )


def kkt_residual(p: AviProblem, x: np.ndarray, multipliers: np.ndarray) -> float:
    """Scaled KKT residual; the largest scaled violation over the four
    conditions tested by check_solution (zero at an exact solution)."""
    stat, f_scale, infeas, neg, comp, b_scale = _kkt_parts(p, x, multipliers)
    return max(stat / f_scale, infeas / b_scale, neg, comp / b_scale)


def natural_residual(p: AviProblem, z: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Weighted natural residual z - Proj_Q(z - Q^{-1}(Hz + f)).

    Proj_Q is the projection onto the feasible set in the norm induced by
    the SPD weight Q, computed as a QP with Hessian Q.  The residual is zero
    exactly at the solution.  With Q equal to the splitting Hessian
    rho I + sym(H), this equals z minus the inner-QP solution at z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (p.n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({p.n},)")
    Q = np.asarray(Q, dtype=float)
    ws = qp_setup(Q, p.A, p.b)
    v = z - ws.hessian_factor.solve(p.H @ z + p.f)
    res = qp_solve(ws, -(Q @ v), warm_start=False)
    return z - res.y


# ---------------------------------------------------------------------------
# solvers


def _point(p: AviProblem, v, name: str) -> np.ndarray:
    """v as a finite float vector of length n, or an error naming it."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.n,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({p.n},)")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _distance(x: np.ndarray, reference) -> float | None:
    if reference is None:
        return None
    return float(np.linalg.norm(x - reference))


def _equilibrate(p: AviProblem) -> tuple[AviProblem, np.ndarray]:
    """Copy of p with each row of A x <= b scaled to unit Euclidean norm.

    Returns the scaled problem and the row norms; zero rows keep norm 1.
    The feasible set, and with it x and the active set, does not change,
    while the multipliers of p are those of the copy divided by the norms.
    """
    norms = np.linalg.norm(p.A, axis=1)
    norms[norms == 0.0] = 1.0
    return AviProblem(H=p.H, f=p.f, A=p.A / norms[:, None], b=p.b / norms), norms


# reduced solves of the active-set walk that follows a correction that failed
_CHAIN_STEPS = 5


def _correction(p: AviProblem, act: tuple[int, ...], reduced: ReducedKkt):
    """Reduced KKT solve for act and the active-set walk from it.

    Returns (candidate, exact, steps).  candidate is (x, full multipliers)
    for act, or None when its rows are dependent; only it goes to the
    caller's acceptance test.  exact is (x, full multipliers, active set) of
    the candidate found exact, else None.  steps counts the walk's reduced
    solves; :func:`solve_dr_daqp` states the one rule that judges every set
    the walk solves, act included.
    """
    candidate, S, tried = None, act, set()
    tol = SolverSettings.eps_primal * (1.0 + np.abs(p.b))
    while S not in tried and len(tried) <= _CHAIN_STEPS:
        tried.add(S)
        try:
            x, lam_S = kkt_active_solve(p, S, reduced)
        except Singular:
            break
        lam = np.zeros(p.m)
        lam[list(S)] = lam_S
        candidate = candidate or (x, lam)
        viol = p.A @ x - p.b
        if (
            lam_S.min(initial=0.0) >= 0
            and np.all(viol <= tol)
            and check_solution(p, x, lam, SolverSettings.eps_primal, SolverSettings.eps_dual)
        ):
            return candidate, (x, lam, S), len(tried) - 1
        viol[list(S)] = 0.0  # a row of S leaves only by its multiplier's sign
        keep = [i for i in S if lam[i] > 0]
        enter = np.argsort(-viol, kind="stable")[: p.n - len(keep)]
        S = tuple(sorted(keep + [int(i) for i in enter if viol[i] > tol[i]]))
    return candidate, None, len(tried) - 1


def _splitting_setup(p: AviProblem, s: SolverSettings):
    """Inner QP, linear-term map and update of the splitting iteration."""
    ws = build_dr_workspace(p, s)
    return ws.qp, lambda z: qp_linear_term(ws, z), lambda y, z: dr_update(ws, y, z)


def _gradient_setup(p: AviProblem, s: SolverSettings):
    """Projection QP, linear-term map and update of projected gradient.

    The projection of z - alpha (H z + f) is the QP with identity Hessian
    and linear term alpha (H z + f) - z; the projected point is the next
    iterate.
    """
    h_sym = _checked_sym(p)
    if s.pg_step is not None:
        alpha = float(s.pg_step)
    else:
        mu = float(scipy.linalg.eigvalsh(h_sym, subset_by_index=[0, 0])[0])
        alpha = mu / float(np.linalg.norm(p.H, "fro")) ** 2
    proj = qp_setup(np.eye(p.n), p.A, p.b)
    return proj, lambda z: alpha * (p.H @ z + p.f) - z, lambda y, z: y


def _iterate(
    user: AviProblem,
    s: SolverSettings | None,
    z0,
    reference,
    setup,
    corrections: bool,
    warm_start: bool = True,
) -> tuple[Solution, IterationTrace]:
    """The outer loop shared by all three solvers.

    Each iteration solves the inner QP at z for y, with merit ||y - z||,
    and either exits (merit <= eta, or an exact correction) or moves z by
    the solver's update.  ``setup(p, s)`` returns the solver's QP workspace,
    its linear-term map z -> g and its update (y, z) -> z.  With
    ``corrections`` the two correction rules and the inexact early QPs of
    :func:`solve_dr_daqp` run as well.

    The loop runs on a copy of ``user`` with unit-norm rows; the returned
    multipliers and KKT residual belong to ``user``.
    """
    s = s if s is not None else SolverSettings()
    z = np.zeros(user.n) if z0 is None else _point(user, z0, "z0").copy()
    if reference is not None:
        reference = _point(user, reference, "reference")
    p, row_norms = _equilibrate(user)
    qp, linear_term, update = setup(p, s)
    reduced = ReducedKkt(p)  # corrections share one factor of H per solve
    trace = IterationTrace()
    delta = np.inf  # best merit at an accepted correction, nonincreasing
    streak = 0
    last_act = None  # sentinel: no streak can reach stab_count at k = 0
    capping = corrections and z0 is None
    for k in range(s.max_iter):
        # inexact early QPs: the main QP of iteration k stops after
        # floor(n 2^k / 2) changes, until that reaches the change budget
        capping = capping and (p.n << k) // 2 < qp.change_budget and k < s.max_iter - 1
        qp.max_changes = (p.n << k) // 2 if capping else None
        res = qp_solve(qp, linear_term(z), warm_start=warm_start)
        qp.max_changes = None
        qp_iters = res.inner_iterations
        streak = streak + 1 if res.active_set == last_act else 0
        tried = exact = None  # tried: the active set corrected this iteration
        accepted = False
        chain = 0
        if corrections and streak >= s.stab_count:
            tried = res.active_set
            candidate, exact, chain = _correction(p, tried, reduced)
            if candidate is None:
                streak = 0
            elif exact is None:
                # a second QP at the candidate decides acceptance
                x_c = candidate[0]
                res2 = qp_solve(qp, linear_term(x_c), warm_start=warm_start)
                qp_iters += res2.inner_iterations
                d = res2.y - x_c
                new_merit = math.sqrt(d @ d)
                if new_merit < delta:
                    delta = new_merit
                    z, res = x_c, res2
                    accepted = True
                else:
                    streak = 0
                    qp.set_working_set(tried)
        y, act, lam = res.y, res.active_set, res.multipliers

        d = y - z
        merit = math.sqrt(d @ d)

        # a capped QP's y is no QP solution, so its merit can end nothing
        converged = merit <= s.eta and not res.capped

        # certify-only: the set of an uncapped first QP, or of a converged
        # one, if not yet tried in this iteration; only an Exact exit counts
        if corrections and exact is None and act != tried and (
            converged or k == 0 and not res.capped
        ):
            tried = act
            _, exact, steps = _correction(p, act, reduced)
            chain += steps

        if exact is not None:
            y, lam, act = exact  # the certified candidate is the solution
        done = exact is not None or converged
        last_act = act
        if not done:
            z = update(y, z)
        trace.append(
            TraceRecord(
                k=k,
                merit=merit,
                active_set_size=len(act),
                newton_attempted=tried is not None,
                newton_accepted=accepted,
                inner_qp_iters=qp_iters,
                dist_to_ref=_distance(y if done else z, reference),
                active_set=act,
                chain_steps=chain,
            )
        )
        if done:
            break

    if exact is not None:
        status = STATUS_EXACT
    elif converged:
        status = STATUS_TOLERANCE
    else:
        status = STATUS_MAXITER
    lam = lam / row_norms
    sol = Solution(
        x=y,
        multipliers=lam,
        active_set=act,
        status=status,
        iterations=len(trace),
        kkt_residual=kkt_residual(user, y, lam),
    )
    return sol, trace


def solve_dr(
    p: AviProblem,
    s: SolverSettings | None = None,
    z0=None,
    reference=None,
) -> tuple[Solution, IterationTrace]:
    """Plain splitting iteration without active-set acceleration.

    Stops with status Tolerance once ||y_k - z_k|| <= eta, returning y_k and
    the final QP's multipliers, or MaxIter at the iteration cap.  When
    ``reference`` is given, per-iteration distances to it are traced.
    """
    return _iterate(p, s, z0, reference, _splitting_setup, corrections=False)


def solve_dr_daqp(
    p: AviProblem,
    s: SolverSettings | None = None,
    z0=None,
    reference=None,
    warm_start: bool = True,
) -> tuple[Solution, IterationTrace]:
    """Splitting iteration with active-set corrections and exact exits.

    A correction takes the active set S of the iteration's inner QP and
    walks from it by primal-dual active-set steps (Hintermueller, Ito &
    Kunisch, SIAM J. Optim. 13, 2003).  Each set of the walk, S first, gets
    its reduced KKT solve, and one rule judges every candidate: it ends the
    solve with status Exact and its own active set when no multiplier is
    negative, no row is violated by more than eps_primal (1 + |b_i|), and
    check_solution passes.  Otherwise the next set keeps the rows with a
    positive multiplier and adds the rows violated by more than that same
    per-row tolerance, most violated first, up to n rows.  The walk stops
    at a set already tried, at dependent rows, or after ``_CHAIN_STEPS``
    reduced solves (``TraceRecord.chain_steps``).

    Two rules start a correction; neither runs twice on one set in one
    iteration:

    * Streak: the inner QP has reported S for ``stab_count`` iterations in
      a row.  Without an exact candidate, a second QP solve at the first
      candidate decides acceptance: the pair (candidate, its QP solution)
      replaces (z_k, y_k) only when its merit strictly improves the best
      accepted merit so far.  A failed or rejected attempt resets the streak
      and rewinds the QP working set to S.
    * Certify-only: S comes from an uncapped QP at k = 0 (the first QP
      needed fewer working-set changes than the cap below, or the caller
      gave ``z0``), or from a QP whose merit has fallen below eta.  Only an
      exact candidate counts; otherwise the attempt changes nothing, with
      no acceptance QP, and the solve goes on (k = 0) or ends Tolerance.

    The LU factor of rho I + H (``DrWorkspace.update_factor``) is built by
    the first DR update, so a solve ended at k = 0 never computes it.

    ``warm_start=False`` forces every inner QP to start from an empty
    working set (used for warm-vs-cold comparisons).

    Inexact early QPs: far from the solution an exact inner QP buys little,
    so the main QP of iteration k stops after floor(n 2^k / 2) working-set
    changes (``QpWorkspace.max_changes``; ``QpResult.capped``), until that
    cap reaches the change budget of the CycleLimit test; from then on no QP
    of the solve is capped.  The cap applies only without a caller's ``z0``
    (a start near the solution needs one exact QP).  The acceptance QP of a
    correction and the QP of the last allowed iteration are never capped.
    A capped QP's y solves no QP, so its merit neither ends the solve nor
    starts a certify-only correction; a streak correction on its active set
    still runs, and Exact is still certified by check_solution.  Finitely
    many inexact splitting steps keep the iteration convergent (Eckstein &
    Bertsekas, Math. Prog. 55, 1992), and an iterate that ends the solve
    comes from an exact QP or an exact correction.

    The iteration runs on a copy of the problem whose constraint rows have
    unit norm, so every tolerance means the same distance on every row
    whatever scale the rows were given.  The returned multipliers and KKT
    residual belong to ``p`` itself.
    """
    return _iterate(
        p, s, z0, reference, _splitting_setup, corrections=True, warm_start=warm_start
    )


def solve_projected_gradient(
    p: AviProblem,
    s: SolverSettings | None = None,
    z0=None,
    reference=None,
) -> tuple[Solution, IterationTrace]:
    """Projected-gradient baseline: x+ = Proj(x - alpha (Hx + f)).

    The Euclidean projection reuses the warm-started QP machinery with an
    identity Hessian.  The automatic step is mu / L**2 (mu the smallest
    eigenvalue of sym(H), L the Frobenius norm of H), the classical strongly
    monotone choice.  Exits Tolerance when ||x+ - x|| <= eta, else MaxIter;
    never Exact.  Multipliers certify the final projection QP only.
    """
    return _iterate(p, s, z0, reference, _gradient_setup, corrections=False)
