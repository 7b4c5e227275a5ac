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
* :func:`solve_dr_daqp` augments the splitting with an active-set
  stabilization heuristic: once the inner QP reports the same active set for
  ``stab_count`` consecutive iterations, the reduced KKT system for that set
  is solved directly, through one LU factor of H per solve and a q x q Schur
  complement (:func:`kkt_active_solve`).  If the candidate passes the
  exactness check, the solver stops with the exact solution (status Exact);
  otherwise the candidate is accepted as the new iterate only when it
  strictly improves the best merit seen at an acceptance so far.
* :func:`solve_projected_gradient` is a deliberately simple baseline:
  Euclidean projections of explicit gradient steps.  Never exact.

All three share one outer loop and run on a copy of the problem whose
constraint rows have unit norm.  All iteration-level norms are Euclidean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, Singular
from .linalg import GeneralFactor, factor_general, factor_spd
from .qp import QpWorkspace, qp_setup, qp_solve

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
    :func:`check_solution` are fixed class constants.
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
        if not self.eta > 0:
            raise ValueError("eta must be positive")
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
    solve; the rest depends on the problem and rho alone.
    """

    problem: AviProblem
    h_sym: np.ndarray
    qp_hessian: np.ndarray
    rho: float
    update_factor: GeneralFactor
    qp: QpWorkspace
    h_delta: np.ndarray


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
    distance of the returned solution estimate.
    """

    k: int
    merit: float
    active_set_size: int
    newton_attempted: bool
    newton_accepted: bool
    inner_qp_iters: int
    dist_to_ref: float | None = None
    active_set: tuple[int, ...] = ()


@dataclass
class IterationTrace:
    """Per-iteration records; one record per iteration performed."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def dists(self) -> np.ndarray:
        """dist_to_ref per iteration, NaN where no reference was supplied."""
        return np.array(
            [np.nan if r.dist_to_ref is None else r.dist_to_ref for r in self.records]
        )

    def accepted_merits(self) -> list[float]:
        return [r.merit for r in self.records if r.newton_accepted]

    def iterations_to(self, tol: float) -> int | None:
        """Iterations needed for dist_to_ref to reach tol; None if never."""
        for r in self.records:
            if r.dist_to_ref is not None and r.dist_to_ref <= tol:
                return r.k + 1
        return None


# ---------------------------------------------------------------------------
# workspace construction and per-iteration pieces


def build_dr_workspace(p: AviProblem, s: SolverSettings) -> DrWorkspace:
    """Factor everything the splitting iteration needs.

    Checks the standing assumption (sym(H) positive definite) first; a
    violation surfaces as NotPositiveDefinite.  rho defaults to the
    Frobenius norm of H.
    """
    h_sym = 0.5 * (p.H + p.H.T)
    factor_spd(h_sym)  # assumption check; raises NotPositiveDefinite
    rho = float(s.rho) if s.rho is not None else float(np.linalg.norm(p.H, "fro"))
    eye = np.eye(p.n)
    qp_hessian = rho * eye + h_sym
    workspace = DrWorkspace(
        problem=p,
        h_sym=h_sym,
        qp_hessian=qp_hessian,
        rho=rho,
        update_factor=factor_general(rho * eye + p.H),
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
    indices = sorted(int(i) for i in act)
    if len(set(indices)) != len(indices):
        raise DimensionMismatch("active set contains repeated indices")
    if indices and (indices[0] < 0 or indices[-1] >= p.m):
        raise DimensionMismatch("active set index out of range")
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


def _newton_candidate(p: AviProblem, act: tuple[int, ...], reduced: ReducedKkt):
    """Reduced KKT solve for act, or None when the system is unavailable.

    Returns (x, full multipliers) on success.  A rank-deficient active set
    yields None; the caller then falls back to splitting steps.
    """
    try:
        x, lam_act = kkt_active_solve(p, act, reduced)
    except Singular:
        return None
    lam = np.zeros(p.m)
    if act:
        lam[list(act)] = lam_act
    return x, lam


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
    h_sym = 0.5 * (p.H + p.H.T)
    factor_spd(h_sym)  # assumption check; raises NotPositiveDefinite
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
    ``corrections`` the active-set stabilization and the near-convergence
    polish described in :func:`solve_dr_daqp` run as well.

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
    last_act = None  # sentinel: no attempt can fire at k = 0
    for k in range(s.max_iter):
        res = qp_solve(qp, linear_term(z), warm_start=warm_start)
        y, act, lam, qp_iters = res.y, res.active_set, res.multipliers, res.inner_iterations
        attempted = accepted = False
        exact = None
        if corrections:
            streak = streak + 1 if act == last_act else 0
            if streak >= s.stab_count:
                attempted = True
                candidate = _newton_candidate(p, act, reduced)
                if candidate is None:
                    streak = 0
                elif check_solution(p, *candidate, s.eps_primal, s.eps_dual):
                    exact = candidate
                else:
                    # a second QP at the candidate decides acceptance
                    x_c = candidate[0]
                    res2 = qp_solve(qp, linear_term(x_c), warm_start=warm_start)
                    qp_iters += res2.inner_iterations
                    d = res2.y - x_c
                    new_merit = math.sqrt(d @ d)
                    if new_merit < delta:
                        delta = new_merit
                        z, y, act, lam = x_c, res2.y, res2.active_set, res2.multipliers
                        accepted = True
                    else:
                        streak = 0
                        qp.set_working_set(act)

        d = y - z
        merit = math.sqrt(d @ d)

        # near-convergence polish: certify the current active set before
        # falling back to an inexact exit
        if corrections and exact is None and merit <= s.eta and (accepted or not attempted):
            attempted = True
            candidate = _newton_candidate(p, act, reduced)
            if candidate is not None and check_solution(
                p, *candidate, s.eps_primal, s.eps_dual
            ):
                exact = candidate

        if exact is not None:
            y, lam = exact  # the certified candidate is the solution
        done = exact is not None or merit <= s.eta
        if not done:
            last_act = act
            z = update(y, z)
        trace.append(
            TraceRecord(
                k=k,
                merit=merit,
                active_set_size=len(act),
                newton_attempted=attempted,
                newton_accepted=accepted,
                inner_qp_iters=qp_iters,
                dist_to_ref=_distance(y if done else z, reference),
                active_set=act,
            )
        )
        if done:
            break

    if exact is not None:
        status = STATUS_EXACT
    elif merit <= s.eta:
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
    """Splitting iteration with active-set stabilization and exact exits.

    Per iteration: solve the inner QP at z_k (warm-started), track how long
    the reported active set has been unchanged, and once the streak reaches
    ``stab_count``, solve the reduced KKT system for that set.  A candidate
    that passes check_solution ends the solve with status Exact.  Otherwise
    a second QP solve at the candidate point decides acceptance: the pair
    (candidate, its QP solution) replaces (z_k, y_k) only when its merit
    strictly improves the best accepted merit so far.  A failed or rejected
    attempt resets the streak and rewinds the QP working set to the
    pre-attempt active set.

    Near-converged iterates get one last chance at an exact exit: when the
    merit falls below eta, the reduced KKT system for the current set is
    solved and checked before settling for status Tolerance.

    ``warm_start=False`` forces every inner QP to start from an empty
    working set (used for warm-vs-cold comparisons).

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
