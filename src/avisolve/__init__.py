"""avisolve: solvers for strongly monotone affine variational inequalities.

Find x in {x : A x <= b} with (H x + f)'(y - x) >= 0 for all feasible y,
assuming H + H' is positive definite.  The flagship solver combines an
operator-splitting iteration with active-set stabilized KKT corrections and
terminates with the exact solution in finitely many steps on nondegenerate
problems; a plain splitting solver and a projected-gradient baseline are
included for comparison, along with a random problem generator and a
brute-force enumeration oracle for small instances.
"""

from .avi import (
    STATUS_EXACT,
    STATUS_MAXITER,
    STATUS_TOLERANCE,
    AviProblem,
    DrWorkspace,
    IterationTrace,
    ReducedKkt,
    Solution,
    SolverSettings,
    TraceRecord,
    build_dr_workspace,
    check_solution,
    dr_update,
    kkt_active_solve,
    kkt_residual,
    natural_residual,
    qp_linear_term,
    solve_dr,
    solve_dr_daqp,
    solve_projected_gradient,
)
from .errors import (
    AssumptionViolated,
    AviSolveError,
    CycleLimit,
    DimensionMismatch,
    Infeasible,
    NoCertificate,
    NotPositiveDefinite,
    ParseError,
    Singular,
    TooLarge,
)
from .gen import (
    GENERATOR_VERSION,
    GenSpec,
    QuadraticGame,
    generator_draws,
    nondegenerate_instances,
    quadratic_game_to_avi,
    random_avi,
)
from .oracle import OracleResult, brute_force_solve, certified_candidates
from .qp import QpResult, QpWorkspace, qp_setup, qp_solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
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
    "QpWorkspace",
    "QpResult",
    "qp_setup",
    "qp_solve",
    "GENERATOR_VERSION",
    "GenSpec",
    "QuadraticGame",
    "generator_draws",
    "random_avi",
    "quadratic_game_to_avi",
    "nondegenerate_instances",
    "OracleResult",
    "brute_force_solve",
    "certified_candidates",
    "AviSolveError",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "Singular",
    "Infeasible",
    "CycleLimit",
    "AssumptionViolated",
    "TooLarge",
    "NoCertificate",
    "ParseError",
]
