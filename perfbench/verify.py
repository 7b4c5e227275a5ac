"""Independent check of a returned solution, invariant to row scaling.

``avisolve.check_solution`` measures every row against one global
tolerance scaled by ``1 + max|b|``, so a row with a small norm is barely
checked and a wrong point can pass.  This check normalises each row first:
with ``a_i`` a row of A, the slack ``(b_i - a_i x) / ||a_i||`` is a distance
in x units and ``lam_i ||a_i||`` is a multiplier in gradient units.  Scaling
a row together with its bound leaves every term unchanged.
"""

from __future__ import annotations

import numpy as np

from avisolve import STATUS_EXACT

# Largest relative KKT violation accepted from a solution reported Exact.
VERIFY_TOL = 1e-7


def kkt_violation(p, x: np.ndarray, lam: np.ndarray) -> float:
    """Largest row-normalised KKT violation of (x, lam); 0 at the solution.

    Stationarity and dual feasibility are relative to ``1 + max(|f|, |Hx|)``,
    primal feasibility to ``1 + |x|``, complementarity to their product.
    Every row of A must be nonzero.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.shape != (p.n,) or lam.shape != (p.m,):
        raise ValueError("solution has the wrong dimensions")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
        return np.inf
    hx = p.H @ x
    g_scale = 1.0 + max(np.max(np.abs(p.f)), np.max(np.abs(hx)))
    x_scale = 1.0 + np.max(np.abs(x))
    parts = [np.max(np.abs(hx + p.f + p.A.T @ lam)) / g_scale]
    if p.m:
        norms = np.linalg.norm(p.A, axis=1)
        if not np.all(norms > 0.0):
            raise ValueError("row-normalised check needs nonzero rows")
        slack = (p.b - p.A @ x) / norms
        lam_n = lam * norms
        parts.append(max(0.0, -np.min(slack)) / x_scale)
        parts.append(max(0.0, -np.min(lam_n)) / g_scale)
        parts.append(np.max(np.abs(lam_n * slack)) / (g_scale * x_scale))
    return float(max(parts))


def verified(p, solution) -> bool:
    """True when the solver claims Exact and the claim survives the check."""
    return solution.status == STATUS_EXACT and kkt_violation(
        p, solution.x, solution.multipliers
    ) <= VERIFY_TOL
