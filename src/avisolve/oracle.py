"""Exact reference solver for small problems by active-set enumeration.

For every subset S of constraints with |S| <= n and linearly independent
rows, the KKT equality system

    [[H, A_S'], [A_S, 0]] [x; lam_S] = [-f; b_S]

has a unique solution (H + H' positive definite plus full row rank make the
saddle matrix nonsingular).  The unique solution of the variational
inequality is the candidate that is also primal feasible with nonnegative
multipliers.  This module enumerates all subsets, which is exponential in m
and therefore gated at m <= 16; it exists as ground truth for tests and for
the command-line ``oracle`` command, not as a production solver.

The enumeration is deliberately independent of the main solver's KKT path:
the subsets of one size travel as one index array, their systems are
assembled in one batch and solved with numpy's batched LU, and primal and
dual feasibility are tested by masks over the batch, so agreement between
oracle and solver is a genuine double check rather than the same code run
twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .avi import AviProblem, check_solution, kkt_residual
from .errors import NoCertificate, TooLarge

__all__ = ["OracleResult", "brute_force_solve", "certified_candidates"]

_MAX_CONSTRAINTS = 16
# feasibility slack for accepting a candidate (tighter than solver defaults)
_FEAS_TOL = 1e-9
# margins defining strict complementarity
_STRICT_MARGIN = 1e-6
# rank filter: keep subsets whose rows have orthogonal residual above this
# fraction of the row norm
_RANK_REL = 1e-10
# subsets are ranked and solved in chunks of about this many saddle-matrix
# entries, so memory stays bounded whatever n is
_CHUNK_DOUBLES = 1 << 20


@dataclass
class OracleResult:
    """Enumeration outcome.

    ``certified`` records whether the winning candidate passes the full KKT
    check at (1e-9, 1e-9); ``strictly_complementary`` whether every active
    multiplier and every inactive slack clears a 1e-6 margin.
    """

    x: np.ndarray
    multipliers: np.ndarray
    active_set: tuple[int, ...]
    strictly_complementary: bool
    certified: bool


def _independent_subsets(A: np.ndarray, idx: np.ndarray, row_norms: np.ndarray) -> np.ndarray:
    """The rows of idx (index subsets, one per row) whose constraint rows
    are linearly independent, decided by a batched QR projection-residual
    test, in their given order.
    """
    # QR of the transposed row stacks: |R_jj| is the norm of row j's
    # component orthogonal to the span of the previous rows
    r = np.linalg.qr(A[idx].transpose(0, 2, 1), mode="r")
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))  # (num, size)
    floor = _RANK_REL * np.maximum(row_norms[idx], 1e-300)
    return idx[np.all(diag > floor, axis=1)]


def _solve_batch(p: AviProblem, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the KKT equality system for every subset, one per row of idx.

    Returns (x_batch, lam_batch) with shapes (num, n) and (num, size).
    Rows that fail to solve (singular despite the rank filter) come back as
    NaN and are discarded by the caller.
    """
    n = p.n
    num, size = idx.shape
    rows = p.A[idx]  # (num, size, n)
    K = np.zeros((num, n + size, n + size))
    K[:, :n, :n] = p.H
    K[:, :n, n:] = rows.transpose(0, 2, 1)
    K[:, n:, :n] = rows
    rhs = np.zeros((num, n + size))
    rhs[:, :n] = -p.f
    rhs[:, n:] = p.b[idx]
    try:
        sol = np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # isolate the bad subsets; solve the rest one by one
        sol = np.full((num, n + size), np.nan)
        for i in range(num):
            try:
                sol[i] = np.linalg.solve(K[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return sol[:, :n], sol[:, n:]


def brute_force_solve(p: AviProblem) -> OracleResult:
    """Enumerate all candidate active sets and return the certified winner.

    Candidates must satisfy primal slacks >= -1e-9 and multipliers >= -1e-9;
    among passing candidates the one with the smallest scaled KKT residual
    wins (ties keep the earliest in size-then-lexicographic order).  Raises
    TooLarge for m > 16 and NoCertificate when nothing passes, which signals
    an assumption violation or a tolerance pathology.
    """
    candidates = certified_candidates(p)
    if not candidates:
        raise NoCertificate("no active set yields a feasible primal-dual candidate")
    # min keeps the first of equal residuals
    active, x, lam_full = min(candidates, key=lambda c: kkt_residual(p, c[1], c[2]))
    on = np.zeros(p.m, dtype=bool)
    on[list(active)] = True
    min_active_mult = float(np.min(lam_full[on], initial=np.inf))
    min_inactive_slack = float(np.min((p.b - p.A @ x)[~on], initial=np.inf))
    strict = min_active_mult > _STRICT_MARGIN and min_inactive_slack > _STRICT_MARGIN
    certified = check_solution(p, x, lam_full, _FEAS_TOL, _FEAS_TOL)
    return OracleResult(
        x=x,
        multipliers=lam_full,
        active_set=active,
        strictly_complementary=strict,
        certified=certified,
    )


def certified_candidates(p: AviProblem) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """All subsets whose KKT candidate passes primal and dual feasibility.

    Used by uniqueness tests: on a strictly complementary instance exactly
    one subset passes.  Returns (subset, x, full multipliers) triples in
    size-then-lexicographic order.
    """
    if p.m > _MAX_CONSTRAINTS:
        raise TooLarge(f"oracle limited to m <= {_MAX_CONSTRAINTS}, got m = {p.m}")
    row_norms = np.linalg.norm(p.A, axis=1)
    passing = []
    for size in range(min(p.n, p.m) + 1):
        subsets = np.array(list(combinations(range(p.m), size)), dtype=np.intp)
        chunk = max(1, _CHUNK_DOUBLES // (p.n + size) ** 2)
        for start in range(0, len(subsets), chunk):
            idx = _independent_subsets(p.A, subsets[start : start + chunk], row_norms)
            xs, lams = _solve_batch(p, idx)
            # slacks only of finite rows: an inf in x would make inf - inf
            ok = np.all(np.isfinite(xs), axis=1) & np.all(np.isfinite(lams), axis=1)
            slack = p.b - xs[ok] @ p.A.T
            ok[ok] = (np.min(slack, axis=1, initial=np.inf) >= -_FEAS_TOL) & (
                np.min(lams[ok], axis=1, initial=np.inf) >= -_FEAS_TOL
            )
            lam_full = np.zeros((np.count_nonzero(ok), p.m))
            np.put_along_axis(lam_full, idx[ok], lams[ok], axis=1)
            # subsets as tuples of Python ints, which print and serialize plainly
            passing += zip(map(tuple, idx[ok].tolist()), xs[ok], lam_full)
    return passing
