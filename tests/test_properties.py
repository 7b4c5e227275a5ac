"""Metamorphic property tests: transforms that leave an AVI's solution alone.

Each case draws a ``random_avi`` core (n 2-6, m n to 12, gamma 0.5) and
applies one of four transforms that keep its solution x*: one or two
redundant rows at distance 10**U(3, 8), the objective (H, f) scaled by
10**U(-10, 10), each row of A x <= b scaled by 10**U(-6, 6), or a far row
together with a scaled objective.  x* comes from ``brute_force_solve`` on
the core.  The draws are derandomized, so every run tries the same cases.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from avisolve import AviProblem, GenSpec, brute_force_solve, random_avi, solve_dr_daqp  # noqa: E402

_TRANSFORMS = ("far rows", "objective", "rows", "far rows and objective")


@st.composite
def _cases(draw):
    """(seed, n, m, far, objective, rows): the core's spec, then the
    exponents of the far rows' distances, of the objective's scale and of
    the row scales, each None when the transform leaves it out."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(_TRANSFORMS))
    far = objective = rows = None
    if kind in ("far rows", "far rows and objective"):
        far = tuple(draw(st.lists(st.floats(3, 8), min_size=1, max_size=2)))
    if kind in ("objective", "far rows and objective"):
        objective = draw(st.floats(-10, 10))
    if kind == "rows":
        rows = tuple(draw(st.lists(st.floats(-6, 6), min_size=m, max_size=m)))
    return seed, n, m, far, objective, rows


def _transformed(case):
    """The core of case and its transformed copy, which has the same solution."""
    seed, n, m, far, objective, rows = case
    core = random_avi(GenSpec(n=n, m=m, gamma_asym=0.5, seed=seed))
    H, f, A, b = core.H, core.f, core.A, core.b
    if far is not None:
        normals = np.random.default_rng(seed).standard_normal((len(far), n))
        A = np.vstack([A, normals / np.linalg.norm(normals, axis=1)[:, None]])
        b = np.append(b, 10.0 ** np.asarray(far))
    if objective is not None:
        H, f = 10.0**objective * H, 10.0**objective * f
    if rows is not None:
        scales = 10.0 ** np.asarray(rows)
        A, b = A * scales[:, None], b * scales
    return core, AviProblem(H=H, f=f, A=A, b=b)


# false Exacts of the walk that accepted its first set with negative
# multipliers, or judged every row by the tolerance of the largest |b_i|
@example(case=(4124973753, 6, 6, (7.34,), None, None))
@example(case=(3439845234, 2, 4, (6.32, 7.89), None, None))
@example(case=(3629346542, 6, 10, None, -9.55, None))
@example(case=(3243419750, 4, 8, (7.74,), -3.76, None))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_cases())
def test_exact_matches_the_oracle_under_solution_preserving_transforms(case):
    core, variant = _transformed(case)
    x_star = brute_force_solve(core).x
    # a far row must be redundant, or the transform moved the solution
    assert np.all(variant.A[core.m :] @ x_star < variant.b[core.m :])
    sol, _ = solve_dr_daqp(variant)
    if sol.status == "Exact":
        assert np.max(np.abs(sol.x - x_star)) <= 1e-6 * (1 + np.max(np.abs(x_star)))
