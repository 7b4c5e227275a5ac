"""Tests for the dense factorization layer."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from avisolve import DimensionMismatch, NotPositiveDefinite, Singular, qp_setup
from avisolve.linalg import (
    cholesky_solve,
    factor_general,
    factor_spd,
    lower_solve,
    upper_solve,
)


def test_factor_spd_identity():
    factor = factor_spd(np.eye(3))
    np.testing.assert_allclose(factor.chol, np.eye(3))


def test_factor_spd_keeps_c_ordered_cholesky_factor():
    # the one factor form: LAPACK's lower Cholesky factor in C order, which
    # the inner QP whitens with as it stands
    for n in (1, 4, 30):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        m = g.T @ g + np.eye(n)
        chol = factor_spd(m).chol
        assert chol.flags.c_contiguous
        assert np.array_equal(chol, np.tril(chol))
        assert np.all(np.diag(chol) > 0.0)
        ref = np.linalg.cholesky(m)
        assert np.max(np.abs(chol - ref)) <= 1e-13 * np.max(np.abs(ref))
        ws = qp_setup(m, rng.standard_normal((3, n)), np.ones(3))
        assert ws._C is ws.hessian_factor.chol
        assert np.array_equal(ws._C, chol)


def test_factor_spd_forced_solve():
    # 4*0 + 2*1 = 2 and 2*0 + 3*1 = 3 force the solution (0, 1)
    factor = factor_spd(np.array([[4.0, 2.0], [2.0, 3.0]]))
    x = factor.solve(np.array([2.0, 3.0]))
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-14)


def test_factor_spd_reconstruction():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5))
        m = g.T @ g + np.eye(5)
        factor = factor_spd(m)
        err = np.max(np.abs(factor.reconstruct() - m))
        assert err <= 1e-12 * np.max(np.abs(m))


def test_factor_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        factor_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_spd_rejects_asymmetric():
    with pytest.raises(NotPositiveDefinite):
        factor_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_factor_spd_rejects_pivot_below_floor():
    # positive definite, but the second pivot sits below 1e-12 * trace / n
    with pytest.raises(NotPositiveDefinite):
        factor_spd(np.diag([1.0, 1e-14]))


def test_factor_spd_floor_does_not_overflow():
    # 1e-12 * trace / n overflowed to inf at a diagonal near 1e308, which put
    # every pivot below the floor; the largest finite diagonal factors too
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(factor_spd(np.diag([1e308, 1e308])).chol, np.eye(2) * 1e154)
        for n in (2, 3, 9):
            factor_spd(np.diag(np.full(n, big)))
    # a pivot below 1e-12 times the mean diagonal still raises at that scale
    with pytest.raises(NotPositiveDefinite, match="position 1"):
        factor_spd(np.diag([1e308, 1e295]))


def test_triangular_solves_of_an_empty_system():
    # BLAS refuses n = 0; the solves return a fresh empty vector instead, so
    # an empty working set needs no branch of its own
    empty = np.zeros(0)
    for solve in (lower_solve, upper_solve, cholesky_solve):
        x = solve(np.zeros((0, 0)), empty)
        assert x.shape == (0,) and x.dtype == np.float64 and x is not empty


def test_factor_spd_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        factor_spd(np.ones((2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_factors_reject_non_finite_input(value):
    # every comparison with NaN is false, so the pivot tests alone let it through
    mat = np.full((2, 2), value)
    with pytest.raises(NotPositiveDefinite, match="non-finite"):
        factor_spd(mat)
    with pytest.raises(Singular, match="non-finite"):
        factor_general(mat)


def test_factor_general_identity():
    factor = factor_general(np.eye(2))
    np.testing.assert_allclose(factor.solve(np.array([5.0, 7.0])), [5.0, 7.0])


def test_factor_general_permutation():
    factor = factor_general(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(2)
        np.testing.assert_allclose(factor.solve(np.array([a, b])), [b, a])


def test_factor_general_residual():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6))
        r = rng.standard_normal(6)
        x = factor_general(m).solve(r)
        assert np.max(np.abs(m @ x - r)) <= 1e-10 * (1.0 + np.max(np.abs(r)))


def test_factor_general_singular():
    with pytest.raises(Singular):
        factor_general(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_factor_general_exact_zero_pivot_is_silent():
    # LU meets an exactly zero pivot here; that is Singular, with no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(Singular):
            factor_general(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert caught == []


def test_factor_general_matches_scipy_lu_bit_for_bit():
    # the factor calls the LAPACK routines that lu_factor/lu_solve wrap
    for n in (1, 4, 12, 40):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        factor = factor_general(m)
        reference = scipy.linalg.lu_factor(m)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            got = factor.solve(rhs)
            want = scipy.linalg.lu_solve(reference, rhs)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_solve_dispatch_diagonal():
    factor = factor_spd(np.array([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(factor.solve(np.array([2.0, 4.0])), [1.0, 2.0])


def test_solve_dispatch_zero_rhs():
    spd = factor_spd(np.array([[4.0, 2.0], [2.0, 3.0]]))
    gen = factor_general(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(spd.solve(np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(gen.solve(np.zeros(2)), np.zeros(2))


def test_solve_dimension_mismatch():
    factor = factor_spd(np.eye(3))
    with pytest.raises(DimensionMismatch):
        factor.solve(np.zeros(4))


def test_round_trip_spd():
    # factor.solve(M x) recovers x
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4))
        m = g.T @ g + 0.5 * np.eye(4)
        x = rng.standard_normal(4)
        got = factor_spd(m).solve(m @ x)
        assert np.max(np.abs(got - x)) <= 1e-10 * (1.0 + np.max(np.abs(x)))


def test_round_trip_general():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        got = factor_general(m).solve(m @ x)
        assert np.max(np.abs(got - x)) <= 1e-10 * (1.0 + np.max(np.abs(x)))


def test_spd_factor_matrix_rhs():
    # multi-column right-hand sides solve column by column
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    m = g.T @ g + np.eye(4)
    rhs = rng.standard_normal((4, 3))
    got = factor_spd(m).solve(rhs)
    np.testing.assert_allclose(m @ got, rhs, atol=1e-10)


def test_spd_vector_rhs_matches_matrix_route():
    # the BLAS vector route does the same arithmetic as the LAPACK matrix
    # route, so a vector and its one-column matrix solve bit for bit
    for n in (1, 3, 10, 60):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        factor = factor_spd(g.T @ g + np.eye(n))
        b = rng.standard_normal(n)
        assert np.array_equal(factor.solve(b), factor.solve(b[:, None])[:, 0])
