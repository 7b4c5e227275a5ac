"""Tests for the solver core: workspace pieces, KKT machinery, the three
solvers, and their trace contracts.

The scalar instance H = 2, f = -2, A = [1], b = (10) (solution x = 1) is
used throughout because every intermediate quantity can be computed by
hand: with rho = 2 the inner QP Hessian is 4, the iterate map of the plain
splitting run is z+ = (3 + 5 z) / 8, and starting from 0 the first iterates
are 0.375 and 0.609375.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avisolve
from avisolve import (
    AssumptionViolated,
    AviProblem,
    DimensionMismatch,
    GenSpec,
    Infeasible,
    NotPositiveDefinite,
    QuadraticGame,
    ReducedKkt,
    Singular,
    SolverSettings,
    brute_force_solve,
    build_dr_workspace,
    check_solution,
    dr_update,
    kkt_active_solve,
    kkt_residual,
    natural_residual,
    nondegenerate_instances,
    qp_linear_term,
    qp_setup,
    qp_solve,
    quadratic_game_to_avi,
    random_avi,
    solve_dr,
    solve_dr_daqp,
    solve_projected_gradient,
)


def _scalar_problem(bound=10.0):
    return AviProblem(
        H=np.array([[2.0]]),
        f=np.array([-2.0]),
        A=np.array([[1.0]]),
        b=np.array([bound]),
    )


SCALAR_SETTINGS = SolverSettings(rho=2.0)


# ---------------------------------------------------------------------------
# problem and settings validation


def test_problem_dimension_checks():
    with pytest.raises(DimensionMismatch):
        AviProblem(H=np.ones((2, 3)), f=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0))
    with pytest.raises(DimensionMismatch):
        AviProblem(H=np.eye(2), f=np.zeros(3), A=np.zeros((0, 2)), b=np.zeros(0))
    with pytest.raises(DimensionMismatch):
        AviProblem(H=np.eye(2), f=np.zeros(2), A=np.ones((3, 2)), b=np.zeros(2))


def test_problem_rejects_nonfinite():
    with pytest.raises(ValueError):
        AviProblem(
            H=np.array([[np.nan]]), f=np.zeros(1), A=np.zeros((0, 1)), b=np.zeros(0)
        )


@pytest.mark.parametrize("name", ["z0", "reference"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_start_or_reference_is_rejected(name, value, deadline):
    # a non-finite z0 used to make the inner QP spin without end
    with deadline(5.0), pytest.raises(ValueError, match=f"{name} contains non-finite"):
        solve_dr_daqp(_scalar_problem(), **{name: [value]})


def test_settings_fields_and_fixed_tolerances():
    # the exactness tolerances are class constants, not constructor fields
    assert len(dataclasses.fields(SolverSettings)) == 5
    s = SolverSettings()
    assert s.eps_primal == s.eps_dual == 1e-8
    with pytest.raises(TypeError):
        SolverSettings(eps_primal=1e-6)


def test_settings_validation():
    for rho in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SolverSettings(rho=rho)
    with pytest.raises(ValueError):
        SolverSettings(eta=0.0)
    with pytest.raises(ValueError):
        SolverSettings(stab_count=0)
    for pg_step in (0.0, np.inf):
        with pytest.raises(ValueError):
            SolverSettings(pg_step=pg_step)
    # integer fields take integers only, not bools; numpy integers included
    for fields in (
        {"max_iter": 2.5},
        {"max_iter": 10.0},
        {"stab_count": 1.5},
        {"max_iter": True},
        {"stab_count": True},
    ):
        with pytest.raises(ValueError):
            SolverSettings(**fields)
    assert SolverSettings(max_iter=np.int64(3), stab_count=np.int32(1)).max_iter == 3


def test_assumption_violation_rejected():
    # pure skew: symmetric part is zero, not positive definite
    skew = AviProblem(
        H=np.array([[0.0, 1.0], [-1.0, 0.0]]),
        f=np.zeros(2),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
    )
    for solver in (solve_dr, solve_dr_daqp, solve_projected_gradient):
        with pytest.raises(NotPositiveDefinite):
            solver(skew)
    # every solver reports the violation as the problem-level error
    for solver in (solve_dr, solve_dr_daqp, solve_projected_gradient):
        with pytest.raises(AssumptionViolated):
            solver(skew)
    with pytest.raises(AssumptionViolated):
        build_dr_workspace(skew, SolverSettings())


# ---------------------------------------------------------------------------
# workspace construction and per-iteration pieces


def test_workspace_scalar():
    ws = build_dr_workspace(_scalar_problem(), SolverSettings())
    assert ws.rho == 2.0  # Frobenius norm of [[2]]
    np.testing.assert_allclose(ws.h_sym, [[2.0]])
    np.testing.assert_allclose(ws.qp_hessian, [[4.0]])


def test_workspace_skew_part_cancels():
    p = AviProblem(
        H=np.array([[1.0, 1.0], [-1.0, 1.0]]),
        f=np.zeros(2),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
    )
    ws = build_dr_workspace(p, SolverSettings())
    np.testing.assert_allclose(ws.h_sym, np.eye(2))
    assert ws.rho == pytest.approx(2.0)
    np.testing.assert_allclose(ws.qp_hessian, 3.0 * np.eye(2))


def test_workspace_random_factorizations():
    p = random_avi(GenSpec(n=5, m=10, gamma_asym=0.5, seed=4))
    ws = build_dr_workspace(p, SolverSettings())
    # qp Hessian factor reproduces rho I + sym(H)
    rec = ws.qp.hessian_factor.reconstruct()
    assert np.max(np.abs(rec - ws.qp_hessian)) <= 1e-12 * np.max(np.abs(ws.qp_hessian))
    # the update factor solves (rho I + H) x = r
    r = np.arange(1.0, 6.0)
    x = ws.update_factor.solve(r)
    np.testing.assert_allclose((ws.rho * np.eye(5) + p.H) @ x, r, atol=1e-10)


def test_linear_term_values():
    ws = build_dr_workspace(_scalar_problem(), SCALAR_SETTINGS)
    np.testing.assert_allclose(qp_linear_term(ws, np.zeros(1)), [-2.0])
    np.testing.assert_allclose(qp_linear_term(ws, np.array([1.0])), [-4.0])
    np.testing.assert_allclose(qp_linear_term(ws, np.array([0.375])), [-2.75])
    with pytest.raises(DimensionMismatch):
        qp_linear_term(ws, np.zeros(2))


def test_dr_update_fixed_point():
    for seed in range(10):
        p = random_avi(GenSpec(n=4, m=8, gamma_asym=0.5, seed=seed + 1))
        ws = build_dr_workspace(p, SolverSettings())
        x = np.random.default_rng(seed).standard_normal(4)
        np.testing.assert_allclose(dr_update(ws, x, x), x, atol=1e-12)


def test_dr_update_scalar_hand_values():
    ws = build_dr_workspace(_scalar_problem(), SCALAR_SETTINGS)
    z1 = dr_update(ws, np.array([0.5]), np.array([0.0]))
    np.testing.assert_allclose(z1, [0.375], atol=1e-15)
    z2 = dr_update(ws, np.array([0.6875]), np.array([0.375]))
    np.testing.assert_allclose(z2, [0.609375], atol=1e-15)


# ---------------------------------------------------------------------------
# KKT machinery


def test_kkt_active_solve_empty_set():
    x, lam = kkt_active_solve(_scalar_problem(), ())
    np.testing.assert_allclose(x, [1.0])
    assert lam.shape == (0,)


def test_kkt_active_solve_scalar_bound():
    x, lam = kkt_active_solve(_scalar_problem(bound=0.25), (0,))
    np.testing.assert_allclose(x, [0.25], atol=1e-15)
    np.testing.assert_allclose(lam, [1.5], atol=1e-15)


def test_kkt_active_solve_oracle_set():
    for spec, prob, orc in nondegenerate_instances(4, 8, 0.5, 10):
        x, lam_act = kkt_active_solve(prob, orc.active_set)
        assert np.max(np.abs(x - orc.x)) <= 1e-10


def test_kkt_active_solve_singular():
    # duplicated constraint rows make the saddle system rank deficient
    p = AviProblem(
        H=np.eye(2),
        f=np.zeros(2),
        A=np.array([[1.0, 0.0], [1.0, 0.0]]),
        b=np.array([1.0, 1.0]),
    )
    with pytest.raises(Singular):
        kkt_active_solve(p, (0, 1))


def test_kkt_active_solve_index_checks():
    with pytest.raises(DimensionMismatch):
        kkt_active_solve(_scalar_problem(), (0, 0))
    with pytest.raises(DimensionMismatch):
        kkt_active_solve(_scalar_problem(), (5,))
    # a non-integer index, a bool included, is refused, not truncated to a row
    for act in ((0.7,), (0.0,), (np.float64(0.0),), (False,)):
        with pytest.raises(DimensionMismatch):
            kkt_active_solve(_scalar_problem(), act)
    x, lam = kkt_active_solve(_scalar_problem(bound=0.25), (np.int64(0),))
    assert x[0] == 0.25 and lam.shape == (1,)


def _saddle_reference(p, act):
    """x and lam_S from the assembled saddle system [[H, A_S'], [A_S, 0]]."""
    idx = sorted(act)
    n, q = p.n, len(idx)
    K = np.zeros((n + q, n + q))
    K[:n, :n] = p.H
    K[:n, n:] = p.A[idx].T
    K[n:, :n] = p.A[idx]
    sol = np.linalg.solve(K, np.concatenate([-p.f, p.b[idx]]))
    return sol[:n], sol[n:]


def test_kkt_active_solve_matches_assembled_saddle_system():
    rng = np.random.default_rng(0)
    n = 8
    for seed in range(10):
        prob = random_avi(GenSpec(n=n, m=20, gamma_asym=0.5, seed=seed))
        for q in (0, 1, 4, n):
            act = tuple(int(i) for i in rng.choice(prob.m, size=q, replace=False))
            x, lam = kkt_active_solve(prob, act)
            x_ref, lam_ref = _saddle_reference(prob, act)
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))
            if q:
                assert np.max(np.abs(lam - lam_ref)) <= 1e-12 * max(1.0, np.max(np.abs(lam_ref)))
            else:
                assert lam.shape == (0,)


def test_kkt_active_solve_reused_cache_matches_fresh_bytes():
    # a cache that already holds some columns must give the bytes of a
    # fresh solve; the sets overlap, and some bring a single new row
    prob = random_avi(GenSpec(n=10, m=40, gamma_asym=0.5, seed=3))
    reduced = ReducedKkt(prob)
    for act in [(4, 1, 7), (1, 7, 9), (9,), (0, 1, 4, 7, 9), (12, 0), (), (30, 31, 32, 1)]:
        x, lam = kkt_active_solve(prob, act, reduced)
        x_fresh, lam_fresh = kkt_active_solve(prob, act)
        assert x.tobytes() == x_fresh.tobytes()
        assert lam.tobytes() == lam_fresh.tobytes()
    assert sorted(reduced.cols) == [0, 1, 4, 7, 9, 12, 30, 31, 32]


def test_kkt_active_solve_duplicate_rows_singular_with_cache():
    p = AviProblem(
        H=np.array([[2.0, 1.0], [-1.0, 3.0]]),
        f=np.array([1.0, -1.0]),
        A=np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]]),
        b=np.array([1.0, 1.0, 2.0]),
    )
    reduced = ReducedKkt(p)
    kkt_active_solve(p, (0, 2), reduced)  # row 0's column is cached
    for cache in (None, reduced):
        with pytest.raises(Singular):
            kkt_active_solve(p, (0, 1), cache)
    with pytest.raises(ValueError):  # a cache belongs to one problem
        kkt_active_solve(_scalar_problem(), (0,), reduced)


def test_check_solution_scalar_cases():
    p = _scalar_problem()
    assert check_solution(p, np.array([1.0]), np.array([0.0]), 1e-8, 1e-8)
    # stationarity violated: |2*0 - 2| = 2
    assert not check_solution(p, np.array([0.0]), np.array([0.0]), 1e-8, 1e-8)
    p_bound = _scalar_problem(bound=0.25)
    assert check_solution(p_bound, np.array([0.25]), np.array([1.5]), 1e-8, 1e-8)


def test_check_solution_rejects_bad_pairs():
    p = _scalar_problem(bound=0.25)
    # infeasible point
    assert not check_solution(p, np.array([0.5]), np.array([1.0]), 1e-8, 1e-8)
    # negative multiplier
    assert not check_solution(p, np.array([0.25]), np.array([-0.5]), 1e-8, 1e-8)
    # complementarity violated: inactive constraint with nonzero multiplier
    assert not check_solution(p, np.array([0.1]), np.array([1.8]), 1e-8, 1e-8)
    with pytest.raises(DimensionMismatch):
        check_solution(p, np.zeros(2), np.zeros(1), 1e-8, 1e-8)
    # a NaN point is never exact, also without constraints
    free = AviProblem(H=np.eye(2), f=np.ones(2), A=np.zeros((0, 2)), b=np.zeros(0))
    assert not check_solution(free, np.array([np.nan, 0.0]), np.zeros(0), 1e-8, 1e-8)


def test_kkt_residual_zero_at_solution():
    p = _scalar_problem(bound=0.25)
    assert kkt_residual(p, np.array([0.25]), np.array([1.5])) <= 1e-15
    assert kkt_residual(p, np.array([0.0]), np.array([0.0])) > 0.1
    with pytest.raises(DimensionMismatch):
        kkt_residual(p, np.zeros(1), np.zeros(2))


def test_natural_residual_scalar_interior():
    # gradient step 0 - 1*(2*0 - 2) = 2 stays interior, so R = 0 - 2
    r = natural_residual(_scalar_problem(), np.zeros(1), np.eye(1))
    np.testing.assert_allclose(r, [-2.0], atol=1e-12)


def test_natural_residual_zero_at_solution():
    for spec, prob, orc in nondegenerate_instances(4, 8, 0.5, 5):
        ws = build_dr_workspace(prob, SolverSettings())
        assert np.linalg.norm(natural_residual(prob, orc.x, np.eye(4))) <= 1e-8
        assert np.linalg.norm(natural_residual(prob, orc.x, ws.qp_hessian)) <= 1e-8


def test_natural_residual_projection_identity():
    # with the splitting Hessian as weight, the residual equals z minus the
    # inner-QP solution at z
    for seed in range(10):
        p = random_avi(GenSpec(n=5, m=15, gamma_asym=0.5, seed=seed + 1))
        ws = build_dr_workspace(p, SolverSettings())
        z = np.random.default_rng(100 + seed).standard_normal(5)
        lhs = natural_residual(p, z, ws.qp_hessian)
        inner = qp_solve(qp_setup(ws.qp_hessian, p.A, p.b), qp_linear_term(ws, z), warm_start=False)
        assert np.max(np.abs(lhs - (z - inner.y))) <= 1e-10


# ---------------------------------------------------------------------------
# plain splitting solver


def test_solve_dr_scalar_recursion():
    # with reference 0 the traced distance is |z_k| itself
    sol, trace = solve_dr(_scalar_problem(), SCALAR_SETTINGS, reference=np.zeros(1))
    assert trace[0].dist_to_ref == pytest.approx(0.375, abs=1e-15)
    assert trace[1].dist_to_ref == pytest.approx(0.609375, abs=1e-15)
    assert sol.status == "Tolerance"
    assert abs(sol.x[0] - 1.0) <= 1e-6
    assert len(trace) == sol.iterations


def test_solve_dr_fixed_point_start():
    sol, trace = solve_dr(_scalar_problem(), SCALAR_SETTINGS, z0=np.array([1.0]))
    assert sol.iterations == 1
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-12)


def test_solve_dr_matches_oracle():
    settings = SolverSettings(eta=1e-8)
    for spec, prob, orc in nondegenerate_instances(10, 12, 0.5, 3):
        sol, _ = solve_dr(prob, settings)
        assert sol.status == "Tolerance"
        assert np.max(np.abs(sol.x - orc.x)) <= 1e-6


def test_solve_dr_convergence_trace():
    # traced distance to the reference crosses 1e-4 and, for moderate
    # asymmetry, shrinks monotonically past the transient
    for gamma in (0.0, 0.5, 0.75):
        for spec, prob, orc in nondegenerate_instances(5, 10, gamma, 5):
            sol, trace = solve_dr(prob, SolverSettings(eta=1e-9), reference=orc.x)
            dists = trace.dists()
            assert np.nanmin(dists) <= 1e-4
            tail = dists[10:]
            assert np.all(np.diff(tail) <= 1e-12 * (1.0 + tail[:-1]))
    # strong asymmetry: the distance still crosses 1e-4 but may wobble
    for spec, prob, orc in nondegenerate_instances(5, 10, 0.9, 5):
        sol, trace = solve_dr(prob, SolverSettings(eta=1e-9), reference=orc.x)
        assert np.nanmin(trace.dists()) <= 1e-4


def test_solve_dr_maxiter():
    sol, trace = solve_dr(_scalar_problem(), SolverSettings(rho=2.0, max_iter=3, eta=1e-15))
    assert sol.status == "MaxIter"
    assert sol.iterations == 3
    assert len(trace) == 3


# ---------------------------------------------------------------------------
# hybrid solver


def test_solve_dr_daqp_scalar_interior():
    sol, trace = solve_dr_daqp(_scalar_problem(), SolverSettings(rho=2.0, stab_count=1))
    assert sol.status == "Exact"
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-12)
    assert sol.iterations <= 3
    assert sol.active_set == ()
    # the first iteration cannot attempt a correction: no previous set exists
    assert not trace[0].newton_attempted
    assert trace[-1].newton_attempted


def test_solve_dr_daqp_scalar_bound():
    sol, _ = solve_dr_daqp(_scalar_problem(bound=0.25), SolverSettings(rho=2.0, stab_count=1))
    assert sol.status == "Exact"
    np.testing.assert_allclose(sol.x, [0.25], atol=1e-12)
    np.testing.assert_allclose(sol.multipliers, [1.5], atol=1e-10)
    assert sol.active_set == (0,)


def test_solve_dr_daqp_exact_on_random_batch():
    for seed in range(1, 11):
        prob = random_avi(GenSpec(n=8, m=80, gamma_asym=0.5, seed=seed))
        sol, trace = solve_dr_daqp(prob)
        assert sol.status == "Exact"
        assert check_solution(prob, sol.x, sol.multipliers, 1e-8, 1e-8)
        assert len(trace) == sol.iterations


def test_solve_dr_daqp_matches_oracle_small():
    for spec, prob, orc in nondegenerate_instances(5, 10, 0.25, 10):
        sol, _ = solve_dr_daqp(prob)
        assert sol.status == "Exact"
        assert np.max(np.abs(sol.x - orc.x)) <= 1e-6
        assert sol.active_set == orc.active_set


def _row_scaled(p, scales):
    return AviProblem(H=p.H, f=p.f, A=p.A * scales[:, None], b=p.b * scales)


def test_solve_dr_daqp_exact_on_badly_scaled_rows():
    # scaling rows of A x <= b leaves the solution alone; before the rows
    # were equilibrated, 42 of these 50 came back Exact with the wrong x
    scales = 10.0 ** np.linspace(-6, 6, 8)
    for seed in range(1, 51):
        prob = random_avi(GenSpec(n=4, m=8, gamma_asym=0.5, seed=seed))
        orc = brute_force_solve(prob)
        sol, _ = solve_dr_daqp(_row_scaled(prob, scales))
        if sol.status == "Exact":
            assert np.max(np.abs(sol.x - orc.x)) <= 1e-6, seed
            assert sol.active_set == orc.active_set, seed


# Seeds of random_avi(n=4, m=8, gamma=0.5) that solve_dr_daqp reports Exact
# with a wrong x when every correction tries only the QP's active set: a far
# redundant row 0.5 (1, 1, 1, 1) x <= B, and (H, f) scaled by s.  The
# tolerances of check_solution are the cause (ROADMAP item 1); the
# active-set walk tries more sets per correction and must not add a seed.
_FALSE_EXACT_WITHOUT_WALK = {
    ("far row", 1e5): {25},
    ("far row", 1e7): {1, 16, 21, 25, 34, 42, 43, 50},
    ("small objective", 1e-8): {42},
    ("small objective", 1e-10): {5, 11, 14, 15, 21, 22, 26, 31, 41, 42, 47},
}


def test_active_set_walk_adds_no_false_exact():
    wrong = {key: set() for key in _FALSE_EXACT_WITHOUT_WALK}
    for seed in range(1, 51):
        prob = random_avi(GenSpec(n=4, m=8, gamma_asym=0.5, seed=seed))
        x_star = brute_force_solve(prob).x
        for family, value in wrong:
            if family == "far row":
                A = np.vstack([prob.A, np.full(4, 0.5)])
                variant = AviProblem(H=prob.H, f=prob.f, A=A, b=np.append(prob.b, value))
            else:
                variant = AviProblem(H=value * prob.H, f=value * prob.f, A=prob.A, b=prob.b)
            sol, _ = solve_dr_daqp(variant)
            if sol.status == "Exact" and np.max(np.abs(sol.x - x_star)) > 1e-6:
                wrong[family, value].add(seed)
    for key, seeds in wrong.items():
        assert seeds <= _FALSE_EXACT_WITHOUT_WALK[key], (key, seeds)


def _game(seed):
    """A 4-player quadratic game drawn as the benchmark's game workload
    draws one: 200 variables, 100 rows scaled by 10**U(-2, 2)."""
    rng = np.random.default_rng(seed)
    d, count = 50, 4
    n = d * count
    blocks = [[None] * count for _ in range(count)]
    for i in range(count):
        M = rng.standard_normal((d, d))
        blocks[i][i] = M.T @ M / d + 0.1 * np.eye(d)
    for i in range(count):
        for j in range(i + 1, count):
            C = rng.standard_normal((d, d)) / np.sqrt(d)
            blocks[i][j], blocks[j][i] = C, -C.T
    linear = [rng.standard_normal(d) for _ in range(count)]
    rows = []
    for i in range(count):
        private = np.zeros((15, n))
        private[:, i * d : (i + 1) * d] = rng.standard_normal((15, d))
        rows.append(private)
    A = np.vstack(rows + [rng.standard_normal((40, n))])
    b = A @ rng.standard_normal(n) + rng.uniform(0.1, 1.1, A.shape[0])
    scale = 10.0 ** rng.uniform(-2, 2, A.shape[0])
    game = QuadraticGame(blocks=blocks, linear=linear, A=A * scale[:, None], b=b * scale)
    return quadratic_game_to_avi(game)


def test_trace_counts_every_reduced_kkt_solve(monkeypatch):
    # each correction solves its own set once and its walk chain_steps more
    # times, so the trace accounts for every reduced KKT solve of a solve
    import avisolve.avi as avi_module

    kkt, correction = avi_module.kkt_active_solve, avi_module._correction
    calls = {"solves": 0, "attempts": 0}

    def solved(*args):
        calls["solves"] += 1
        return kkt(*args)

    def attempted(*args):
        calls["attempts"] += 1
        return correction(*args)

    monkeypatch.setattr(avi_module, "kkt_active_solve", solved)
    monkeypatch.setattr(avi_module, "_correction", attempted)
    # the game's walk ends Exact; the random instance makes three attempts,
    # two of whose walks run to the step limit
    for prob in (_game(0), random_avi(GenSpec(n=5, m=10, gamma_asym=0.5, seed=1))):
        calls.update(solves=0, attempts=0)
        sol, trace = solve_dr_daqp(prob)
        steps = sum(r.chain_steps for r in trace)
        assert sol.status == "Exact" and steps > 0
        assert steps + calls["attempts"] == calls["solves"]


def test_solve_dr_daqp_row_scaling_invariance():
    # a row-scaled copy gives the same status, set and x; its multipliers
    # are those of the original divided by the row scales
    for seed in range(1, 6):
        prob = random_avi(GenSpec(n=10, m=100, gamma_asym=0.5, seed=seed))
        scales = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, prob.m)
        sol, _ = solve_dr_daqp(prob)
        scaled, _ = solve_dr_daqp(_row_scaled(prob, scales))
        assert scaled.status == sol.status == "Exact"
        assert scaled.active_set == sol.active_set
        assert np.max(np.abs(scaled.x - sol.x)) <= 1e-10
        np.testing.assert_allclose(
            scaled.multipliers, sol.multipliers / scales, rtol=1e-8, atol=1e-12
        )


def test_solve_dr_daqp_zero_rows():
    # a zero row 0 <= b_i is inert; with b_i < 0 the inner QP proves the
    # constraints inconsistent
    prob = _scalar_problem(bound=0.25)
    with_zero = AviProblem(H=prob.H, f=prob.f, A=np.array([[1.0], [0.0]]), b=np.array([0.25, 1.0]))
    sol, _ = solve_dr_daqp(with_zero, SolverSettings(rho=2.0, stab_count=1))
    assert sol.status == "Exact"
    np.testing.assert_allclose(sol.x, [0.25], atol=1e-12)
    np.testing.assert_allclose(sol.multipliers, [1.5, 0.0], atol=1e-10)
    bad = AviProblem(H=prob.H, f=prob.f, A=with_zero.A, b=np.array([0.25, -1.0]))
    with pytest.raises(Infeasible):
        solve_dr_daqp(bad)


def test_solve_dr_daqp_exact_exit_without_streak():
    # with the streak requirement effectively disabled, the solver still
    # certifies the final active set when the merit crosses eta
    sol, _ = solve_dr_daqp(_scalar_problem(), SolverSettings(rho=2.0, stab_count=10000))
    assert sol.status == "Exact"
    np.testing.assert_allclose(sol.x, [1.0], atol=1e-6)


def test_solve_dr_daqp_identification_from_reference_start():
    for spec, prob, orc in nondegenerate_instances(5, 10, 0.5, 10):
        sol, trace = solve_dr_daqp(prob, z0=orc.x)
        assert trace[0].active_set == orc.active_set
        assert sol.status == "Exact"
        assert sol.iterations <= SolverSettings().stab_count + 1


def test_solve_dr_daqp_accepted_merits_decrease():
    # accepted corrections must strictly improve the best accepted merit
    checked = 0
    for seed in range(1, 21):
        prob = random_avi(GenSpec(n=12, m=60, gamma_asym=0.5, seed=seed))
        sol, trace = solve_dr_daqp(prob, SolverSettings(stab_count=1))
        merits = trace.accepted_merits()
        checked += len(merits)
        assert all(b < a for a, b in zip(merits, merits[1:]))
    assert checked >= 1  # the batch must actually exercise acceptances


def test_solve_dr_daqp_acceptances_bounded_by_distinct_sets():
    for seed in range(1, 21):
        prob = random_avi(GenSpec(n=12, m=60, gamma_asym=0.5, seed=seed))
        sol, trace = solve_dr_daqp(prob, SolverSettings(stab_count=1))
        accepted = sum(1 for r in trace if r.newton_accepted)
        distinct = len({r.active_set for r in trace})
        assert accepted <= distinct


def test_solve_dr_daqp_maxiter():
    settings = SolverSettings(rho=2.0, max_iter=3, eta=1e-15, stab_count=100)
    sol, trace = solve_dr_daqp(_scalar_problem(), settings)
    assert sol.status == "MaxIter"
    assert sol.iterations == 3
    assert len(trace) == 3


def test_solve_dr_daqp_z0_shape_check():
    with pytest.raises(DimensionMismatch):
        solve_dr_daqp(_scalar_problem(), z0=np.zeros(2))


def test_reference_shape_check():
    # checked before the first QP solve, by every solver
    for solver in (solve_dr, solve_dr_daqp, solve_projected_gradient):
        with pytest.raises(DimensionMismatch):
            solver(_scalar_problem(), reference=np.zeros(3))


def test_solve_dr_daqp_exact_with_ill_conditioned_h():
    # sym(H) = Q diag(logspace(0, -12)) Q' plus a small skew part: the
    # correction's x = h - X lam cancels there, and must still be exact
    n, m = 20, 200
    for seed in range(30):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        skew = rng.standard_normal((n, n))
        H = Q @ np.diag(np.logspace(0, -12, n)) @ Q.T + 1e-7 * (skew - skew.T)
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = A @ rng.standard_normal(n) + rng.uniform(0.1, 1.0, m)
        sol, _ = solve_dr_daqp(AviProblem(H=H, f=rng.standard_normal(n), A=A, b=b))
        assert sol.status == "Exact"
        assert sol.kkt_residual <= 1e-12


_SOLVE_SEEDS = """
import sys
from avisolve import GenSpec, random_avi, solve_dr_daqp
for seed in map(int, sys.argv[1:]):
    sol, trace = solve_dr_daqp(random_avi(GenSpec(n=30, m=300, gamma_asym=0.5, seed=seed)))
    attempts = sum(r.newton_attempted for r in trace)
    print(attempts, seed, sol.status, sol.iterations, sol.active_set,
          sol.x.tobytes().hex(), sol.multipliers.tobytes().hex())
"""


def _in_fresh_process(code, *args):
    src = str(Path(avisolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, check=True,
    )  # fmt: skip
    return proc.stdout.splitlines()


def _solve_in_fresh_process(*seeds):
    return _in_fresh_process(_SOLVE_SEEDS, *seeds)


def test_solve_dr_daqp_keeps_no_state_between_solves():
    # A, then B (same shape, so a leftover factor or column would fit),
    # then A again: each must match a solve in a fresh process byte for byte
    a, b, a_again = _solve_in_fresh_process(1, 2, 1)
    (a_fresh,), (b_fresh,) = _solve_in_fresh_process(1), _solve_in_fresh_process(2)
    assert (a, b, a_again) == (a_fresh, b_fresh, a_fresh)
    assert int(a.split()[0]) > 0 and int(b.split()[0]) > 0  # corrections ran


_IMPORTS = """
import sys
import avisolve
print(*sorted({name.split(".")[1] for name, module in list(sys.modules.items())
               if name.startswith("scipy.") and not name.split(".")[1].startswith("_")
               and hasattr(module, "__path__")}))
print(*[name for name in ("scipy.optimize", "scipy.sparse", "fractions", "hypothesis")
        if name in sys.modules])
"""


def test_import_loads_no_optional_dependency():
    # importing the package is most of a solve's set-up time, so a reference
    # that needs scipy.optimize, scipy.sparse, fractions or hypothesis must
    # import it where it is used, not at package import
    packages, optional = _in_fresh_process(_IMPORTS)
    assert packages == "linalg"
    assert optional == ""


def test_solve_dr_daqp_exact_with_nearly_singular_sym_h():
    # lambda_min(sym H) is 5.6e-8 to 5.2e-5 on these seeds (cond(H) <= 21):
    # the family the benchmark's random workloads draw from
    for seed in range(1, 11):
        prob = random_avi(GenSpec(n=50, m=500, gamma_asym=0.5, seed=seed))
        sol, _ = solve_dr_daqp(prob)
        assert sol.status == "Exact"
        assert sol.kkt_residual <= 1e-8


def test_solve_dr_daqp_survives_singular_corrections(monkeypatch):
    # two active rows 3e-7 apart in angle: the splitting iteration settles on
    # both, and every correction on that set raises Singular inside
    # kkt_active_solve; each failure resets the streak, so the attempts come
    # stab_count iterations apart and the solve ends inexact without raising.
    # The active-set walk of a correction on another set may step into (0, 1)
    # too, so failures are counted per attempt, not per raise.
    import avisolve.avi as avi_module

    kkt, correction = avi_module.kkt_active_solve, avi_module._correction
    raised, failed = [], []

    def counted(p, act, *args):
        try:
            return kkt(p, act, *args)
        except Singular:
            raised.append(act)
            raise

    def attempted(p, act, *args):
        candidate, exact, steps = correction(p, act, *args)
        if candidate is None:
            failed.append(act)
        return candidate, exact, steps

    monkeypatch.setattr(avi_module, "kkt_active_solve", counted)
    monkeypatch.setattr(avi_module, "_correction", attempted)
    H = np.array([[1.0, 0.5], [-0.5, 1.0]])
    x_star = np.ones(2)
    a1 = np.array([1.0, 0.0])
    a2 = np.array([1.0, 3e-7]) / np.linalg.norm([1.0, 3e-7])
    A = np.vstack([a1, a2])
    prob = AviProblem(H=H, f=-H @ x_star - 1e6 * (a1 + a2), A=A, b=A @ x_star)
    sol, trace = solve_dr_daqp(prob)
    assert sol.status == "Tolerance"
    assert set(raised) == {(0, 1)} and len(raised) >= len(failed)
    assert len(failed) >= 2 and set(failed) == {(0, 1)}
    ks = [r.k for r in trace if r.newton_attempted and r.active_set == (0, 1)]
    assert len(ks) == len(failed)
    assert set(np.diff(ks).tolist()) == {SolverSettings().stab_count}


def _priced_avi(seed):
    """random_avi at n = 130, m = 1300, above the inner QP's pricing size,
    where the early QPs capped by solve_dr_daqp take many changes."""
    return random_avi(GenSpec(n=130, m=1300, gamma_asym=0.5, seed=seed))


def test_solve_dr_daqp_capped_early_qps_end_where_a_restart_at_x_does(monkeypatch):
    import avisolve.avi as avi_module

    qp = avi_module.qp_solve
    capped = []

    def recorded(*args, **kwargs):
        res = qp(*args, **kwargs)
        capped.append(res.capped)
        return res

    monkeypatch.setattr(avi_module, "qp_solve", recorded)
    # the cap does not depend on the inner QP's pricing size
    problems = [_priced_avi(seed) for seed in range(1, 5)] + [
        random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=s))
        for n in (10, 30)
        for s in range(1, 5)
    ]
    for prob in problems:
        capped.clear()
        sol, _ = solve_dr_daqp(prob)
        assert sol.status == "Exact"
        assert capped[0]
        # a caller's z0 turns the cap off: a restart at x* takes one QP
        capped.clear()
        again, _ = solve_dr_daqp(prob, z0=sol.x)
        assert not any(capped)
        assert again.status == "Exact" and again.iterations == 1
        assert np.array_equal(again.x, sol.x)
        # and the uncapped solve from the same start ends at the same x
        uncapped, _ = solve_dr_daqp(prob, z0=np.zeros(prob.n))
        assert np.array_equal(uncapped.x, sol.x)


def test_solve_dr_daqp_capped_early_qps_leave_no_infeasible_answer():
    # the QP of the last allowed iteration is never capped, and a capped QP
    # cannot end the solve by its merit, so the returned x is feasible
    settings = [SolverSettings(max_iter=k) for k in range(1, 5)] + [SolverSettings(eta=1e3)]
    for seed in range(1, 5):
        prob = _priced_avi(seed)
        norms = np.linalg.norm(prob.A, axis=1)
        for s in settings:
            sol, _ = solve_dr_daqp(prob, s)
            assert np.max((prob.A @ sol.x - prob.b) / norms) <= 1e-8


# ---------------------------------------------------------------------------
# projected-gradient baseline


def test_pg_scalar_forced_steps():
    # alpha = 0.25: x1 = 0.5, x2 = 0.75, geometric approach with ratio 1/2
    sol, trace = solve_projected_gradient(
        _scalar_problem(), SolverSettings(pg_step=0.25), reference=np.zeros(1)
    )
    assert trace[0].dist_to_ref == pytest.approx(0.5, abs=1e-15)
    assert trace[1].dist_to_ref == pytest.approx(0.75, abs=1e-15)
    gaps = 1.0 - trace.dists()[:10]
    np.testing.assert_allclose(gaps[1:] / gaps[:-1], 0.5, atol=1e-12)


def test_pg_fixed_point_start():
    sol, trace = solve_projected_gradient(
        _scalar_problem(), SolverSettings(pg_step=0.25), z0=np.array([1.0])
    )
    assert sol.iterations == 1
    assert np.abs(sol.x[0] - 1.0) <= 1e-10


def test_pg_auto_step_converges_slower():
    # the baseline reaches the exact solver's answer but needs far more
    # iterations to get within 1e-4 of it
    prob = random_avi(GenSpec(n=10, m=30, gamma_asym=0.5, seed=1))
    ref_sol, _ = solve_dr_daqp(prob)
    assert ref_sol.status == "Exact"
    pg_sol, pg_trace = solve_projected_gradient(
        prob, SolverSettings(max_iter=20000), reference=ref_sol.x
    )
    _, dq_trace = solve_dr_daqp(prob, reference=ref_sol.x)
    assert np.linalg.norm(pg_sol.x - ref_sol.x) <= 1e-4
    assert pg_trace.iterations_to(1e-4) > dq_trace.iterations_to(1e-4)


def test_pg_never_exact():
    for seed in range(1, 6):
        prob = random_avi(GenSpec(n=5, m=10, gamma_asym=0.5, seed=seed))
        sol, _ = solve_projected_gradient(prob, SolverSettings(max_iter=200))
        assert sol.status in ("Tolerance", "MaxIter")


def test_layers_are_called_through_module_names(monkeypatch):
    # the benchmark traces a solve by swapping these module-level names, so
    # the solver must look each up in avisolve.avi when it calls it
    import avisolve.avi as avi_module

    names = ("build_dr_workspace", "qp_solve", "dr_update", "kkt_active_solve", "check_solution")
    calls = dict.fromkeys(names, 0)
    qp_iters = []

    def counted(name):
        fn = getattr(avi_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "qp_solve":
                qp_iters.append(out.inner_iterations)
            return out

        return wrapper

    for name in names:
        monkeypatch.setattr(avi_module, name, counted(name))
    prob = random_avi(GenSpec(n=10, m=100, gamma_asym=0.5, seed=0))
    sol, trace = solve_dr_daqp(prob)
    assert any(r.newton_attempted for r in trace)
    assert all(calls.values()), calls
    assert calls["build_dr_workspace"] == 1
    assert calls["dr_update"] == len(trace) - 1
    assert sum(qp_iters) == sum(r.inner_qp_iters for r in trace)
