"""Tests for the random instance generator and the game builder."""

import numpy as np
import pytest

from avisolve import (
    AssumptionViolated,
    DimensionMismatch,
    GenSpec,
    QuadraticGame,
    brute_force_solve,
    generator_draws,
    nondegenerate_instances,
    qp_setup,
    qp_solve,
    quadratic_game_to_avi,
    random_avi,
    solve_dr_daqp,
)
from avisolve.linalg import factor_spd


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0, m=5, gamma_asym=0.5, seed=1)
    with pytest.raises(ValueError):
        GenSpec(n=3, m=-1, gamma_asym=0.5, seed=1)
    with pytest.raises(ValueError):
        GenSpec(n=3, m=5, gamma_asym=1.5, seed=1)
    for reg in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            GenSpec(n=3, m=5, gamma_asym=0.5, seed=1, regularization=reg)


def test_determinism():
    spec = GenSpec(n=6, m=12, gamma_asym=0.3, seed=42)
    p1 = random_avi(spec)
    p2 = random_avi(spec)
    assert np.array_equal(p1.H, p2.H)
    assert np.array_equal(p1.f, p2.f)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.b, p2.b)


def test_symmetric_case():
    p = random_avi(GenSpec(n=5, m=10, gamma_asym=0.0, seed=3))
    assert np.max(np.abs(p.H - p.H.T)) <= 1e-14
    factor_spd(p.H + p.H.T)


def test_skew_case_with_shift():
    p = random_avi(GenSpec(n=5, m=10, gamma_asym=1.0, seed=3, regularization=1.0))
    shifted = p.H - np.eye(5)
    assert np.max(np.abs(shifted + shifted.T)) <= 1e-14


def test_skew_case_unshifted_rejected():
    with pytest.raises(AssumptionViolated):
        random_avi(GenSpec(n=5, m=10, gamma_asym=1.0, seed=3))


def test_strict_feasibility_margin():
    # the generating point satisfies A x0 <= b - 0.1 by construction
    for seed in range(1, 21):
        spec = GenSpec(n=4, m=20, gamma_asym=0.5, seed=seed)
        p = random_avi(spec)
        draws = generator_draws(spec)
        assert np.all(p.A @ draws["x0"] <= p.b - 0.1 + 1e-12)


def test_unit_frobenius_summands():
    for seed in range(1, 11):
        spec = GenSpec(n=5, m=0, gamma_asym=0.5, seed=seed)
        draws = generator_draws(spec)
        gram = draws["ms"].T @ draws["ms"]
        skew = draws["ma"].T - draws["ma"]
        for summand in (gram, skew):
            normalized = summand / np.linalg.norm(summand, "fro")
            assert abs(np.linalg.norm(normalized, "fro") - 1.0) <= 1e-12


def test_assumption_holds_on_grid():
    # any gamma < 1 leaves symmetric content, so H + H' stays factorable
    for n in (5, 10, 20):
        for seed in range(1, 21):
            p = random_avi(GenSpec(n=n, m=0, gamma_asym=0.9, seed=seed))
            factor_spd(p.H + p.H.T)


def test_reconstruction_from_draws():
    # H follows the documented formula from the raw draws
    spec = GenSpec(n=4, m=6, gamma_asym=0.25, seed=9, regularization=0.5)
    p = random_avi(spec)
    draws = generator_draws(spec)
    gram = draws["ms"].T @ draws["ms"]
    gram = 0.5 * (gram + gram.T)
    skew = draws["ma"].T - draws["ma"]
    expected = (
        0.75 * gram / np.linalg.norm(gram, "fro")
        + 0.25 * skew / np.linalg.norm(skew, "fro")
        + 0.5 * np.eye(4)
    )
    np.testing.assert_allclose(p.H, expected, atol=1e-15)
    np.testing.assert_allclose(p.b, draws["a"] @ draws["x0"] + draws["u"], atol=1e-15)


# ---------------------------------------------------------------------------
# quadratic games


def test_game_single_player_reduces_to_qp():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3))
    q_mat = g.T @ g + np.eye(3)
    q_vec = rng.standard_normal(3)
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.ones(6)
    game = QuadraticGame(blocks=[[q_mat]], linear=[q_vec], A=A, b=b)
    p = quadratic_game_to_avi(game)
    np.testing.assert_allclose(p.H, q_mat)
    orc = brute_force_solve(p)
    qp_res = qp_solve(qp_setup(q_mat, A, b), q_vec, warm_start=False)
    assert np.max(np.abs(orc.x - qp_res.y)) <= 1e-8


def test_game_two_player_unconstrained():
    # first-order conditions: 2 x1 + x2 = 2 and -x1 + 2 x2 = 2, whose unique
    # solution by elimination is (0.4, 1.2)
    game = QuadraticGame(
        blocks=[[np.array([[2.0]]), np.array([[1.0]])],
                [np.array([[-1.0]]), np.array([[2.0]])]],
        linear=[np.array([-2.0]), np.array([-2.0])],
    )
    p = quadratic_game_to_avi(game)
    assert p.m == 0
    sol, _ = solve_dr_daqp(p)
    assert sol.status == "Exact"
    np.testing.assert_allclose(sol.x, [0.4, 1.2], atol=1e-10)


def test_game_zero_sum_with_box():
    # regularized zero-sum coupling gives H = I + skew; box constraints bite
    game = QuadraticGame(
        blocks=[[np.array([[1.0]]), np.array([[1.0]])],
                [np.array([[-1.0]]), np.array([[1.0]])]],
        linear=[np.array([-2.0]), np.array([-2.0])],
        A=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        b=np.ones(4),
    )
    p = quadratic_game_to_avi(game)
    np.testing.assert_allclose(p.H, [[1.0, 1.0], [-1.0, 1.0]])
    orc = brute_force_solve(p)
    sol, _ = solve_dr_daqp(p)
    assert sol.status == "Exact"
    assert np.max(np.abs(sol.x - orc.x)) <= 1e-8


def test_game_diagonal_block_symmetrized():
    game = QuadraticGame(
        blocks=[[np.array([[2.0, 1.0], [0.0, 2.0]])]],
        linear=[np.zeros(2)],
    )
    p = quadratic_game_to_avi(game)
    np.testing.assert_allclose(p.H, [[2.0, 0.5], [0.5, 2.0]])


def test_game_assumption_violated():
    # bilinear coupling without regularization is purely skew
    game = QuadraticGame(
        blocks=[[np.zeros((1, 1)), np.array([[1.0]])],
                [np.array([[-1.0]]), np.zeros((1, 1))]],
        linear=[np.zeros(1), np.zeros(1)],
    )
    with pytest.raises(AssumptionViolated):
        quadratic_game_to_avi(game)


def test_game_shape_checks():
    with pytest.raises(DimensionMismatch):
        quadratic_game_to_avi(
            QuadraticGame(blocks=[[np.eye(2)]], linear=[np.zeros(2), np.zeros(1)])
        )
    with pytest.raises(DimensionMismatch):
        quadratic_game_to_avi(
            QuadraticGame(
                blocks=[[np.ones((2, 3)), np.ones((2, 1))],
                        [np.ones((1, 2)), np.ones((1, 1))]],
                linear=[np.zeros(2), np.zeros(1)],
            )
        )


# ---------------------------------------------------------------------------
# filtered instance stream


def test_nondegenerate_instances():
    triples = nondegenerate_instances(3, 6, 0.5, 5, start_seed=1)
    assert len(triples) == 5
    seeds = [spec.seed for spec, _, _ in triples]
    assert seeds == sorted(seeds) and seeds[0] >= 1
    for spec, prob, orc in triples:
        assert orc.certified and orc.strictly_complementary
        assert prob.n == 3 and prob.m == 6
