"""Tests for the warm-startable dual active-set QP solver.

Reference values come from an independent enumeration route: the QP with
symmetric positive definite Hessian G is the variational problem with H = G,
so brute_force_solve provides ground truth for random cases.
"""

import numpy as np
import pytest
import scipy.linalg

import avisolve.qp as qp_module
from avisolve import (
    AviProblem,
    DimensionMismatch,
    GenSpec,
    Infeasible,
    NotPositiveDefinite,
    brute_force_solve,
    qp_setup,
    qp_solve,
    random_avi,
)
from avisolve.avi import kkt_residual


def _random_instance(seed, n=2, m=8):
    """Random strictly convex QP with a nonempty feasible set."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    hessian = g.T @ g + np.eye(n)
    A = rng.standard_normal((m, n))
    x0 = rng.standard_normal(n)
    b = A @ x0 + rng.uniform(0.1, 1.1, m)
    linear = rng.standard_normal(n)
    return hessian, linear, A, b


def _degenerate_instance(seed):
    """Integer QP data full of ties: rows round(2 N(0, 1)), about a fifth of
    them copies of row 0, b = A x0 for an integer x0 or b = 0, and G the
    identity or an integer diagonal.  Returns (hessian, g, A, b)."""
    rng = np.random.default_rng([20, seed])
    n = int(rng.integers(2, 7))
    m = int(rng.integers(n, 12 * n + 1))
    A = np.round(2.0 * rng.standard_normal((m, n)))
    A[rng.random(m) < 0.2] = A[0]
    b = A @ np.round(rng.standard_normal(n)) if rng.random() < 0.5 else np.zeros(m)
    hessian = np.eye(n) if rng.random() < 0.5 else np.diag(rng.integers(1, 5, n).astype(float))
    return hessian, np.round(5.0 * rng.standard_normal(n)), A, b


def _kkt_cases():
    """(hessian, linear, A, b, result) of random QPs solved cold, then of
    degenerate ones solved warm with g and then with -g."""
    for seed in range(20):
        hessian, linear, A, b = _random_instance(seed, n=4, m=12)
        yield hessian, linear, A, b, qp_solve(qp_setup(hessian, A, b), linear)
    for seed in range(300):
        hessian, g, A, b = _degenerate_instance(seed)
        ws = qp_setup(hessian, A, b)
        for linear in (g, -g):
            yield hessian, linear, A, b, qp_solve(ws, linear)


def _vertex_qp(n, seed):
    """A QP shaped like the first inner QP of ``solve_dr_daqp`` on
    ``random_avi`` at m = 10 n: unit-norm rows and Hessian sym(H) + |H|_F I.
    The linear term 3 f drives the solution to a (near) full vertex, so a
    cold solve makes several working-set changes per variable."""
    p = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    norms = np.linalg.norm(p.A, axis=1)
    hessian = 0.5 * (p.H + p.H.T) + np.linalg.norm(p.H, "fro") * np.eye(n)
    return hessian, 3.0 * p.f, p.A / norms[:, None], p.b / norms


def test_setup_empty_working_set():
    ws = qp_setup(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0]))
    assert ws.working_set == ()
    np.testing.assert_allclose(ws.hessian_factor.chol, np.eye(2))


def test_setup_diagonal_factor():
    ws = qp_setup(np.diag([4.0, 4.0]), np.zeros((0, 2)), np.zeros(0))
    np.testing.assert_allclose(ws.hessian_factor.solve(np.array([4.0, 8.0])), [1.0, 2.0])


def test_setup_factor_round_trip():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 5))
    hessian = g.T @ g + np.eye(5)
    ws = qp_setup(hessian, rng.standard_normal((50, 5)), rng.standard_normal(50))
    err = np.max(np.abs(ws.hessian_factor.reconstruct() - hessian))
    assert err <= 1e-12 * np.max(np.abs(hessian))


def test_setup_rejects_indefinite_hessian():
    with pytest.raises(NotPositiveDefinite):
        qp_setup(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((0, 2)), np.zeros(0))


def test_setup_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        qp_setup(np.eye(2), np.ones((3, 3)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        qp_setup(np.eye(2), np.ones((3, 2)), np.ones(2))


def test_scalar_interior():
    # minimizer 2/4 = 0.5 is far from the bound x <= 10
    ws = qp_setup(np.array([[4.0]]), np.array([[1.0]]), np.array([10.0]))
    res = qp_solve(ws, np.array([-2.0]))
    np.testing.assert_allclose(res.y, [0.5])
    assert res.active_set == ()
    np.testing.assert_allclose(res.multipliers, [0.0])


def test_scalar_active_bound():
    # constraint x <= 0.25 binds; stationarity 4*0.25 - 2 + lam = 0 forces lam = 1
    ws = qp_setup(np.array([[4.0]]), np.array([[1.0]]), np.array([0.25]))
    res = qp_solve(ws, np.array([-2.0]))
    np.testing.assert_allclose(res.y, [0.25], atol=1e-12)
    assert res.active_set == (0,)
    np.testing.assert_allclose(res.multipliers, [1.0], atol=1e-10)


def test_unconstrained():
    hessian = np.array([[4.0, 2.0], [2.0, 3.0]])
    ws = qp_setup(hessian, np.zeros((0, 2)), np.zeros(0))
    res = qp_solve(ws, np.array([-2.0, -3.0]))
    np.testing.assert_allclose(res.y, [0.0, 1.0], atol=1e-12)
    assert res.active_set == ()


def test_matches_enumeration_oracle():
    for seed in range(20):
        hessian, linear, A, b = _random_instance(seed)
        ws = qp_setup(hessian, A, b)
        res = qp_solve(ws, linear)
        oracle = brute_force_solve(AviProblem(H=hessian, f=linear, A=A, b=b))
        assert np.max(np.abs(res.y - oracle.x)) <= 1e-8


def test_kkt_certificate():
    for hessian, linear, A, b, res in _kkt_cases():
        stat = hessian @ res.y + linear + A.T @ res.multipliers
        assert np.max(np.abs(stat)) <= 1e-8 * (1.0 + np.max(np.abs(linear)))
        assert np.max(A @ res.y - b) <= 1e-8 * (1.0 + np.max(np.abs(b)))
        assert np.min(res.multipliers) >= -1e-10
        assert np.max(np.abs(res.multipliers * (b - A @ res.y))) <= 1e-8
        # multipliers vanish off the active set
        off = [i for i in range(len(b)) if i not in res.active_set]
        assert np.all(res.multipliers[off] == 0.0)


def test_warm_start_consistency():
    # warm and cold solves of the same QP agree on the minimizer
    for seed in range(20):
        hessian, linear, A, b = _random_instance(seed, n=3, m=10)
        ws = qp_setup(hessian, A, b)
        qp_solve(ws, np.zeros(3))  # leave some working set behind
        warm = qp_solve(ws, linear, warm_start=True)
        cold = qp_solve(qp_setup(hessian, A, b), linear, warm_start=False)
        assert np.max(np.abs(warm.y - cold.y)) <= 1e-8


def test_row_left_at_its_bound_by_a_drop_still_enters():
    # row 0 enters first; stepping toward row 1, row 0's multiplier reaches 0
    # at t = 3 - 4e-16 and row 1's bound at t = 3, so row 0 drops and leaves
    # row 1 satisfied up to roundoff but carrying multiplier 3: row 1 must
    # still enter, or y falls back to the unconstrained minimizer
    hessian = np.diag([1.0, 4.0, 3.0, 4.0])
    linear = np.array([3.0, 1.0, 3.0, -6.0])
    A = np.array(
        [[-3.0, 0.0, 0.0, 1.0], [-1.0, 0.0, -1.0, 2.0], [-2.0, 2.0, -2.0, -2.0], [0.0, 0.0, 2.0, 0.0]]
    )
    b = np.zeros(4)
    res = qp_solve(qp_setup(hessian, A, b), linear)
    oracle = brute_force_solve(AviProblem(H=hessian, f=linear, A=A, b=b))
    assert np.max(A @ res.y - b) <= 1e-12
    assert np.max(np.abs(res.y - oracle.x)) <= 1e-12
    np.testing.assert_allclose(res.multipliers, [0.0, 3.0, 0.0, 0.0], atol=1e-12)


def test_warm_repeat_is_free():
    # repeating the same linear term performs zero working-set changes and
    # returns exactly what the first call returned: that call ended with the
    # re-solve on the settled working set, which the repeat reproduces
    for seed in range(10):
        hessian, linear, A, b = _random_instance(seed, n=3, m=10)
        ws = qp_setup(hessian, A, b)
        first = qp_solve(ws, linear)
        again = qp_solve(ws, linear, warm_start=True)
        assert again.inner_iterations == 0
        assert again.y.tobytes() == first.y.tobytes()
        assert again.multipliers.tobytes() == first.multipliers.tobytes()
        assert again.active_set == first.active_set


def test_parametric_continuity():
    # a tiny change of the linear term keeps the active set; warm-starting
    # from the previous result must then beat a cold solve
    wins = 0
    eligible = 0
    for seed in range(50):
        hessian, linear, A, b = _random_instance(seed, n=4, m=12)
        rng = np.random.default_rng(1000 + seed)
        perturbed = linear + 1e-7 * rng.standard_normal(4)
        cold1 = qp_solve(qp_setup(hessian, A, b), linear, warm_start=False)
        cold2 = qp_solve(qp_setup(hessian, A, b), perturbed, warm_start=False)
        if cold1.active_set != cold2.active_set or not cold1.active_set:
            continue  # set changed or nothing active: comparison is vacuous
        eligible += 1
        ws = qp_setup(hessian, A, b)
        qp_solve(ws, linear, warm_start=False)
        warm = qp_solve(ws, perturbed, warm_start=True)
        if warm.inner_iterations < cold2.inner_iterations:
            wins += 1
        assert np.max(np.abs(warm.y - cold2.y)) <= 1e-8
    assert eligible >= 10
    assert wins >= 0.9 * eligible


def test_workspace_counter_accumulates():
    hessian, linear, A, b = _random_instance(7, n=3, m=10)
    ws = qp_setup(hessian, A, b)
    r1 = qp_solve(ws, linear)
    r2 = qp_solve(ws, -linear)
    assert ws.total_inner_iterations == r1.inner_iterations + r2.inner_iterations
    # a repeat call changes nothing and needs one scan to confirm it
    scans = ws.total_scans
    qp_solve(ws, -linear)
    assert ws.total_scans == scans + 1


def test_infeasible():
    # x <= -1 and -x <= -1 cannot both hold
    ws = qp_setup(np.eye(1), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(Infeasible):
        qp_solve(ws, np.array([0.0]))


def test_linear_term_shape_check():
    ws = qp_setup(np.eye(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DimensionMismatch):
        qp_solve(ws, np.zeros(3))


def test_set_working_set_rejects_bad_index():
    hessian, linear, A, b = _random_instance(0)
    ws = qp_setup(hessian, A, b)
    with pytest.raises(DimensionMismatch):
        ws.set_working_set([99])
    # a non-integer index, a bool included, is refused, not truncated to a row
    for indices in ([0.7], [1.0], [-1], [True]):
        with pytest.raises(DimensionMismatch):
            ws.set_working_set(indices)
    ws.set_working_set(np.array([1, 0]))
    assert ws.working_set == (1, 0)


def test_set_working_set_bad_index_leaves_workspace_unchanged():
    # validation comes first: a bad index anywhere in the list leaves the
    # working set, its factor and the change counter as they were
    hessian, linear, A, b = _random_instance(2, n=4, m=12)
    ws = qp_setup(hessian, A, b)
    res = qp_solve(ws, 5.0 * linear)
    assert res.active_set and res.active_set[:2] != (0, 1)
    before = (ws.working_set, ws.total_inner_iterations, ws._L.copy())
    with pytest.raises(DimensionMismatch):
        ws.set_working_set([0, 1, 99])
    assert ws.working_set == before[0]
    assert ws.total_inner_iterations == before[1]
    assert np.array_equal(ws._L, before[2])


def test_set_working_set_skips_dependent_rows():
    # the duplicated row cannot enter the working set twice
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ws = qp_setup(np.eye(2), A, np.array([1.0, 1.0, 1.0]))
    ws.set_working_set([0, 1, 2])
    assert ws.working_set == (0, 2)
    # a zero row enters neither an empty (q = 0) nor a nonempty working set
    A = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    ws = qp_setup(np.eye(2), A, np.ones(4))
    ws.set_working_set([0, 1, 2, 3])
    assert ws.working_set == (1, 3)
    _assert_factor_consistent(ws, np.eye(2), A)


def _assert_factor_consistent(ws, hessian, A):
    # L L' reproduces A_S G^{-1} A_S', the row block holds the whitened rows
    # of S, and the whitened rows U satisfy U C' = A with C C' = G
    assert np.max(np.abs(ws._U @ ws._C.T - A)) <= 1e-12 * np.max(np.abs(A))
    S = list(ws.working_set)
    q = len(S)
    assert ws._L.shape == (q, q)
    if not q:
        return
    A_S = A[S]
    M = A_S @ np.linalg.solve(hessian, A_S.T)
    L = ws._L
    assert np.max(np.abs(L @ L.T - M)) <= 1e-10 * np.max(np.abs(M))
    assert np.all(np.diag(L) > 0.0)
    assert np.allclose(np.triu(L, 1), 0.0)
    assert np.array_equal(ws._AS[:q], ws._U[S])


def test_factor_tracks_random_adds_and_drops():
    # QP solves under random linear terms add and drop rows; explicit drops
    # at random positions exercise the downdate away from the last row
    for seed in range(10):
        hessian, _, A, b = _random_instance(seed, n=6, m=30)
        ws = qp_setup(hessian, A, b)
        rng = np.random.default_rng(100 + seed)
        drops = 0
        for _ in range(30):
            q = len(ws.working_set)
            if q and rng.random() < 0.4:
                ws._drop(int(rng.integers(q)))
                drops += 1
            else:
                qp_solve(ws, 5.0 * rng.standard_normal(6))
            _assert_factor_consistent(ws, hessian, A)
        assert drops >= 5


def _public_delete_factor_row(L, k):
    """The downdate through the public qr_delete on the whole factor."""
    q = L.shape[0]
    if k == q - 1:
        return L[:k, :k].copy()
    _, R = scipy.linalg.qr_delete(np.eye(q), L.T.copy(), k, which="col", check_finite=False)
    R = R[: q - 1].copy()
    R[R.diagonal() < 0.0] *= -1.0
    return R.T


def test_delete_factor_row_matches_public_qr_delete():
    # rotating only the trailing block leaves the factor bit for bit as the
    # public routine on the whole factor gives it; only the (unread) zeros
    # above the diagonal may differ in sign
    rng = np.random.default_rng(7)
    for q in range(1, 41):
        M = rng.standard_normal((q, q + 2))
        G = M @ M.T
        L = np.linalg.cholesky(G)
        for k in range(q):
            got = qp_module._delete_factor_row(L.copy(), k)
            want = _public_delete_factor_row(L, k)
            assert got.shape == (q - 1, q - 1) and got.flags.c_contiguous
            assert np.tril(got).tobytes() == np.tril(want).tobytes()
            assert not np.triu(got, 1).any()
            keep = np.delete(np.arange(q), k)
            assert np.allclose(got @ got.T, G[np.ix_(keep, keep)], rtol=1e-12, atol=1e-12 * q)


def test_factor_after_set_working_set():
    hessian, _, A, b = _random_instance(3, n=6, m=30)
    ws = qp_setup(hessian, A, b)
    ws.set_working_set([4, 17, 2, 9, 25])
    assert ws.working_set == (4, 17, 2, 9, 25)
    _assert_factor_consistent(ws, hessian, A)
    for pos in (2, 0, 2):
        ws._drop(pos)
        _assert_factor_consistent(ws, hessian, A)
    assert ws.working_set == (17, 9)


def test_inner_iterations_parity():
    # every working-set change is counted once: adds minus drops equals the
    # net change of the set, so the count and that change share a parity
    for seed in range(10):
        hessian, _, A, b = _random_instance(seed, n=5, m=25)
        ws = qp_setup(hessian, A, b)
        rng = np.random.default_rng(200 + seed)
        for _ in range(20):
            before = len(ws.working_set)
            res = qp_solve(ws, 5.0 * rng.standard_normal(5))
            net = len(res.active_set) - before
            assert res.inner_iterations >= abs(net)
            assert (res.inner_iterations - net) % 2 == 0


def test_full_working_set_admits_no_more_rows():
    # three random rows in the plane: the third depends on the first two,
    # and roundoff must not let it in, which would leave L near singular
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, 2))
        hessian = g.T @ g + np.eye(2)
        A = rng.standard_normal((3, 2))
        ws = qp_setup(hessian, A, np.ones(3))
        ws.set_working_set([0, 1, 2])
        assert ws.working_set == (0, 1)
        assert np.linalg.cond(ws._L) < 1e6
        _assert_factor_consistent(ws, hessian, A)


def test_dependent_row_on_full_working_set_is_infeasible():
    # n rows plus a negative combination of them with a bound below what
    # the combination allows: once the n rows fill the working set, the
    # last row is dependent and certifies infeasibility
    n = 3
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        A0 = rng.standard_normal((n, n))
        c = rng.uniform(0.5, 2.0, n)
        b0 = rng.uniform(0.5, 1.5, n)
        A = np.vstack([A0, -(c @ A0)])
        b = np.append(b0, -(c @ b0) - 1.0)
        ws = qp_setup(g.T @ g + np.eye(n), A, b)
        with pytest.raises(Infeasible):
            qp_solve(ws, rng.standard_normal(n))


def test_entering_row_is_violated_even_when_another_scales_higher():
    # row 0 sits inside the primal tolerance but has the larger violation
    # relative to its scale; the entering row must be the violated row 1
    A = np.array([[1.0, 0.0], [100.0, 0.0]])
    eps = 1e-8 * (1.0 + 100.0)
    b = np.array([1.0 - 0.9 * eps, 100.0 - 1.5 * eps])
    ws = qp_setup(np.eye(2), A, b)
    res = qp_solve(ws, np.array([-1.0, 0.0]))
    assert res.active_set == (1,)
    assert res.inner_iterations == 1


def test_entering_row_rounding_cannot_loop_forever(deadline):
    # row 7 sits exactly at the primal tolerance, so the scan over all rows
    # and a dot product with row 7 alone may round its violation to opposite
    # sides of it; the step must take the scan's value, or the row is picked
    # again and again without a working-set change.  The deadline turns a
    # hang into a failure.
    for seed in (1, 5, 6):
        rng = np.random.default_rng(seed)
        n, m = 40, 60
        g = rng.standard_normal(n)
        A = rng.standard_normal((m, n))
        b = A @ (-g) + rng.uniform(1.0, 2.0, m)
        b[7] = A[7] @ (-g) - 0.5
        ws = qp_setup(np.eye(n), A, b)
        ws.eps_primal = float(A[7] @ (-g) - b[7])
        with deadline(5.0):
            res = qp_solve(ws, g, warm_start=False)
        assert res.inner_iterations <= 1


@pytest.mark.parametrize("where", ["g", "A", "b"])
def test_non_finite_input_raises_instead_of_hanging(where, deadline):
    # a NaN violation is neither above nor below the tolerance, so phase 2
    # used to spin without a working-set change
    data = {"g": np.array([1.0, -1.0]), "A": np.eye(2), "b": np.ones(2)}
    data[where].flat[0] = np.nan
    with deadline(5.0), pytest.raises(ValueError, match="non-finite"):
        qp_solve(qp_setup(np.eye(2), data["A"], data["b"]), data["g"])


def test_ill_conditioned_hessian_meets_kkt_tolerance():
    # the whitened rows A C^{-T} grow like 1/sqrt(smallest eigenvalue of G);
    # with cond(G) = 1e8 the solve must still satisfy the scaled KKT test
    n, m = 8, 30
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        hessian = (Q * np.logspace(0, -8, n)) @ Q.T
        hessian = 0.5 * (hessian + hessian.T)
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = A @ rng.standard_normal(n) + rng.uniform(0.1, 1.1, m)
        linear = hessian @ rng.standard_normal(n)
        res = qp_solve(qp_setup(hessian, A, b), linear)
        prob = AviProblem(H=hessian, f=linear, A=A, b=b)
        assert kkt_residual(prob, res.y, res.multipliers) <= 1e-8


def test_multiple_pricing_saves_scans_only_on_large_problems(monkeypatch):
    # n = 130, m = 1300 lies above the pricing size, n = 30 below it
    assert 30 * 300 < qp_module._PRICE_MIN_SIZE <= 130 * 1300

    def scans_and_changes(n, seed):
        hessian, linear, A, b = _vertex_qp(n, seed)
        ws = qp_setup(hessian, A, b)
        res = qp_solve(ws, linear)
        return ws.total_scans, res.inner_iterations, res.y

    for seed in range(2):
        large = scans_and_changes(130, seed)
        small = scans_and_changes(30, seed)
        with monkeypatch.context() as patch:
            patch.setattr(qp_module, "_PRICE_K", 1)
            large_ref = scans_and_changes(130, seed)
            small_ref = scans_and_changes(30, seed)
        assert large[0] < 0.8 * large[1]
        assert large[0] < 0.5 * large_ref[0]
        # below the pricing size the path is the unpriced one, bit for bit
        assert small[:2] == small_ref[:2]
        assert np.array_equal(small[2], small_ref[2])


def test_multiple_pricing_finds_the_unpriced_solution(monkeypatch):
    for seed in range(5):
        hessian, linear, A, b = _vertex_qp(130, seed)
        ws = qp_setup(hessian, A, b)
        res = qp_solve(ws, linear)
        with monkeypatch.context() as patch:
            patch.setattr(qp_module, "_PRICE_K", 1)
            ref = qp_solve(qp_setup(hessian, A, b), linear)
        assert res.active_set == ref.active_set
        assert np.max(np.abs(res.y - ref.y)) <= 1e-10
        assert np.max(A @ res.y - b) <= ws.eps_primal



def test_change_cap_stops_after_an_add_with_dual_feasible_multipliers():
    for seed in range(2):
        hessian, linear, A, b = _vertex_qp(130, seed)
        ref = qp_solve(qp_setup(hessian, A, b), linear)
        assert not ref.capped
        for cap in (1, 40, 150):
            ws = qp_setup(hessian, A, b)
            ws.max_changes = cap
            res = qp_solve(ws, linear)
            assert res.capped
            assert cap <= res.inner_iterations < ref.inner_iterations
            # dual feasible, and the working-set rows hold with equality
            S = list(res.active_set)
            assert res.multipliers.min() >= -ws.eps_dual
            assert np.max(np.abs(A[S] @ res.y - b[S])) <= 1e-10
            # an uncapped warm call then finishes the cold call's solve
            ws.max_changes = None
            warm = qp_solve(ws, linear)
            assert not warm.capped
            assert warm.active_set == ref.active_set
            assert np.max(np.abs(warm.y - ref.y)) <= 1e-12


def test_change_cap_above_the_call_changes_leaves_the_result_unchanged():
    hessian, linear, A, b = _vertex_qp(130, 0)

    def call(cap):
        ws = qp_setup(hessian, A, b)
        ws.max_changes = cap
        return qp_solve(ws, linear), ws.total_scans

    ref, ref_scans = call(None)
    res, scans = call(ref.inner_iterations + 1)
    assert not res.capped and scans == ref_scans
    assert (res.active_set, res.inner_iterations) == (ref.active_set, ref.inner_iterations)
    assert res.y.tobytes() == ref.y.tobytes()
    assert res.multipliers.tobytes() == ref.multipliers.tobytes()
