"""Tests for the brute-force enumeration oracle."""

import tracemalloc

import numpy as np
import pytest

from avisolve import (
    AviProblem,
    GenSpec,
    NoCertificate,
    TooLarge,
    brute_force_solve,
    certified_candidates,
    qp_setup,
    qp_solve,
    random_avi,
)


def _scalar_problem(bound=10.0):
    return AviProblem(
        H=np.array([[2.0]]),
        f=np.array([-2.0]),
        A=np.array([[1.0]]),
        b=np.array([bound]),
    )


def test_scalar_interior():
    res = brute_force_solve(_scalar_problem())
    np.testing.assert_allclose(res.x, [1.0])
    assert res.active_set == ()
    assert res.certified


def test_scalar_bound():
    res = brute_force_solve(_scalar_problem(bound=0.25))
    np.testing.assert_allclose(res.x, [0.25], atol=1e-12)
    np.testing.assert_allclose(res.multipliers, [1.5], atol=1e-12)
    assert res.active_set == (0,)
    assert res.certified and res.strictly_complementary


def test_weakly_active_constraint_flagged():
    # the bound passes exactly through the unconstrained solution x = 1:
    # the solution is degenerate and must not be called strictly complementary
    res = brute_force_solve(_scalar_problem(bound=1.0))
    np.testing.assert_allclose(res.x, [1.0], atol=1e-12)
    assert not res.strictly_complementary


def test_unconstrained():
    p = AviProblem(
        H=np.array([[2.0, 0.0], [0.0, 2.0]]),
        f=np.array([-2.0, -4.0]),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
    )
    res = brute_force_solve(p)
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-12)
    assert res.active_set == ()


def test_uniqueness_on_strict_instances():
    # exactly one subset passes both feasibility checks when the solution is
    # strictly complementary
    strict_seen = 0
    for seed in range(1, 51):
        p = random_avi(GenSpec(n=4, m=10, gamma_asym=0.5, seed=seed))
        res = brute_force_solve(p)
        if not (res.certified and res.strictly_complementary):
            continue
        strict_seen += 1
        passing = certified_candidates(p)
        assert len(passing) == 1
        assert passing[0][0] == res.active_set
    assert strict_seen >= 40  # degeneracy is the rare exception


def test_agreement_with_qp_when_symmetric():
    for seed in range(1, 11):
        p = random_avi(GenSpec(n=4, m=8, gamma_asym=0.0, seed=seed))
        res = brute_force_solve(p)
        qp_res = qp_solve(qp_setup(p.H, p.A, p.b), p.f, warm_start=False)
        assert np.max(np.abs(res.x - qp_res.y)) <= 1e-8


def test_too_large():
    rng = np.random.default_rng(0)
    p = AviProblem(
        H=np.eye(2),
        f=np.zeros(2),
        A=rng.standard_normal((17, 2)),
        b=np.ones(17),
    )
    with pytest.raises(TooLarge):
        brute_force_solve(p)
    with pytest.raises(TooLarge):
        certified_candidates(p)


def test_no_certificate_on_infeasible_constraints():
    # x <= -1 and -x <= -1 exclude every point, so no candidate can pass
    p = AviProblem(
        H=np.array([[2.0]]),
        f=np.array([0.0]),
        A=np.array([[1.0], [-1.0]]),
        b=np.array([-1.0, -1.0]),
    )
    with pytest.raises(NoCertificate):
        brute_force_solve(p)


def test_dependent_rows_skipped():
    # the duplicated row must not produce a spurious Singular error
    p = AviProblem(
        H=np.array([[2.0]]),
        f=np.array([-2.0]),
        A=np.array([[1.0], [1.0]]),
        b=np.array([0.25, 0.25]),
    )
    res = brute_force_solve(p)
    np.testing.assert_allclose(res.x, [0.25], atol=1e-12)
    assert len(res.active_set) == 1


def test_singular_saddle_matrix_falls_back_to_single_solves():
    # H = 0 makes the size-0 system singular: the batched solve raises and
    # the subsets are solved one by one, the singular one left out
    p = AviProblem(H=np.array([[0.0]]), f=np.array([-1.0]), A=np.array([[1.0]]), b=np.array([1.0]))
    res = brute_force_solve(p)
    assert res.x.tolist() == [1.0]
    assert res.multipliers.tolist() == [1.0]
    assert res.active_set == (0,)
    assert res.certified
    assert [subset for subset, _, _ in certified_candidates(p)] == [(0,)]


def _integer_avi(rng):
    """A well-posed AVI with small integer data, H = M M' + I + skew.

    Its polyhedron holds an integer point; row 1 repeats row 0 and row 2 is
    zero with b_2 >= 0 when m allows, and m = 0 is drawn about one time in nine.
    """
    n, m = int(rng.integers(1, 5)), int(rng.integers(0, 9))
    M, S = rng.integers(-2, 3, (2, n, n)).astype(float)
    A = rng.integers(-2, 3, (m, n)).astype(float)
    A[1:2] = A[:1]
    A[2:3] = 0.0
    b = A @ rng.integers(-2, 3, n) + rng.integers(0, 3, m)
    return AviProblem(
        H=M @ M.T + np.eye(n) + S - S.T, f=rng.integers(-3, 4, n).astype(float), A=A, b=b
    )


def test_candidates_on_degenerate_integer_problems():
    # every candidate is a finite feasible KKT point of independent rows,
    # in size-then-lexicographic order, and the winner is one of them
    unconstrained = 0
    for case in range(200):
        p = _integer_avi(np.random.default_rng([23, case]))
        candidates = certified_candidates(p)
        for subset, x, lam in candidates:
            assert all(type(i) is int for i in subset)
            assert list(subset) == sorted(set(subset))
            assert np.all(np.isfinite(x))
            assert np.min(p.b - p.A @ x, initial=np.inf) >= -1e-9
            assert np.min(lam, initial=np.inf) >= -1e-9
            assert not np.any(np.delete(lam, subset))
            assert np.linalg.matrix_rank(p.A[list(subset)]) == len(subset)
        keys = [(len(s), s) for s, _, _ in candidates]
        assert keys == sorted(keys)
        res = brute_force_solve(p)
        assert any(s == res.active_set and np.array_equal(x, res.x) for s, x, _ in candidates)
        unconstrained += p.m == 0
    assert unconstrained >= 10


def _candidate_bytes(p):
    return [(s, x.tobytes(), lam.tobytes()) for s, x, lam in certified_candidates(p)]


def test_chunked_enumeration_gives_the_bytes_of_one_batch(monkeypatch):
    # each saddle matrix of a batch is factored on its own, so the chunk size
    # must not move a bit; at these sizes one chunk holds a whole subset size,
    # and a chunk of one subset is the other extreme
    import avisolve.oracle as oracle_module

    problems = [
        random_avi(GenSpec(n=n, m=2 * n, gamma_asym=0.5, seed=seed))
        for n in (2, 4, 6)
        for seed in range(3)
    ] + [_integer_avi(np.random.default_rng([23, case])) for case in range(40)]
    # H = 0: a singular saddle matrix sends its chunk to the one-by-one solves
    problems.append(
        AviProblem(H=np.zeros((2, 2)), f=-np.ones(2), A=np.eye(2), b=np.ones(2))
    )
    whole = [_candidate_bytes(p) for p in problems]
    monkeypatch.setattr(oracle_module, "_CHUNK_DOUBLES", 1)
    assert [_candidate_bytes(p) for p in problems] == whole


def test_enumeration_memory_is_bounded():
    # with one batch per subset size this call peaked at 108 MB, and the same
    # count grows as n squared; chunks keep it to a few MB
    p = random_avi(GenSpec(n=20, m=16, gamma_asym=0.5, seed=1))
    tracemalloc.start()
    try:
        brute_force_solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
