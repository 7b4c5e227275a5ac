"""SHA-256 digests over the solver outputs of a fixed set of cases.

Two source trees that print the same digest give byte-identical outputs on
every case, which is how a change that claims to keep behaviour is checked:
run the script in both trees and compare the last line it prints.

    python3 tools/output_digest.py

It prints one line per group of cases (name, case count, SHA-256 of the
group alone); then, per group, the SHA-256 of its answers and of its path
(``golden answers: ...``, ``golden path: ...``); then the ``answers`` and
``path`` digests over all groups; then the number of cases; and last the
digest over all of them.  A change that moves only some outputs shows
which groups it moves.  A change that moves the path on purpose (fewer
iterations, other working-set changes) and keeps the answers prints the
parent's ``answers:`` line; a change that claims identical outputs prints
the parent's last line.

The cases, each hashed in a fixed order:

* ``golden``: golden instances (``random_avi``, m = 10 n, gamma 0.5, n in
  {10, 30}, seeds 0-19) under ``solve_dr_daqp``, ``solve_dr``,
  ``solve_dr_daqp(warm_start=False)`` and, at n = 10,
  ``solve_projected_gradient``;
* ``vertex``, ``game``, ``small``: the benchmark pools of run seed
  ``POOL_SEED`` (perfbench/workloads.py), the first 4 ``vertex``, the first
  24 ``game`` and all 128 ``small`` instances, under ``solve_dr_daqp``;
* ``qp``, direct ``qp_setup``/``qp_solve`` calls: 900 small QPs (n 1-8, m 0
  to 4 n + 2, with zero and duplicate rows, some infeasible, m = 0 among them;
  every fourth with a diagonal Hessian and signed zeros in the linear
  terms) started from a random ``set_working_set``, each solved warm twice
  with one linear term, warm with another and cold; plus 4 QPs large enough
  for the inner QP's multiple pricing (n = 130, m = 1300); plus
  ``DEGENERATE_CASES`` integer QPs full of ties (n 2-6, m n to 12 n, rows
  round(2 N(0, 1)) with about a fifth copies of row 0, b = A x0 or 0, G the
  identity or an integer diagonal), each solved warm with g and then -g;
* ``oracle``, ``certified_candidates`` and then ``brute_force_solve`` on
  ``random_avi`` instances (n 2-6, m = 2 n, gamma 0.5, seeds 0-9), on
  ``ORACLE_INTEGER_CASES`` well-posed integer AVIs (n 1-4, m 0-8, a
  repeated row and a zero row with b >= 0; the draws of
  tests/test_oracle.py) and on one problem whose size-0 saddle matrix is
  singular, which takes the oracle's one-by-one fallback.

Every value goes to the combined digest, in one byte stream, and to
exactly one of two more, the answers or the path:

* answers: a solve's x, multipliers, active set, kkt_residual and status;
  a QP call's y, multipliers and active set; every oracle value (each
  candidate's subset, x and multipliers, every ``OracleResult`` field); a
  raise's error type and message; and the ``ok``/``raise`` mark and tuple
  lengths that frame each case;
* path: a solve's iteration count and every ``TraceRecord`` field; a QP
  call's ``inner_iterations``, ``total_inner_iterations``, ``total_scans``
  and working set after the call; the ``set_working_set`` start fed before
  each random ``qp`` case.

The ``oracle`` group has no path, so its path line is the SHA-256 of
nothing.  Arrays are hashed as raw bytes, so even the sign of a zero
counts.  The package is imported from ``src/`` next to this script, and
BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import avisolve  # noqa: E402
import workloads  # noqa: E402
from avisolve import (  # noqa: E402
    AviProblem,
    AviSolveError,
    GenSpec,
    brute_force_solve,
    certified_candidates,
    qp_setup,
    qp_solve,
    random_avi,
)

QP_CASES = 900
PRICED_CASES = 4
DEGENERATE_CASES = 1000
ORACLE_INTEGER_CASES = 200
POOL_SEED = 23


def _hashes() -> dict:
    return {part: hashlib.sha256() for part in ("all", "answers", "path")}


@dataclasses.dataclass(frozen=True)
class OnPath:
    """A value of the path: it goes to the ``path`` digests, not ``answers``."""

    value: object


class Digest:
    """SHA-256 per part over a stream of values; ``count`` counts finished cases.

    Every value goes to the ``all`` hash and to the ``answers`` hash, or to
    the ``path`` hash when wrapped in ``OnPath``.  ``group(name)`` starts a
    named group: values fed from then on also go to that group's hashes,
    and its cases count in ``groups``.
    """

    def __init__(self):
        self.total = _hashes()
        self.count = 0
        self.groups: dict[str, list] = {}  # name -> [hashes by part, case count]
        self._group = [_hashes(), 0]
        self._part = "answers"

    def group(self, name: str) -> None:
        self._group = self.groups[name] = [_hashes(), 0]

    def _update(self, data: bytes) -> None:
        for hashes in (self.total, self._group[0]):
            hashes["all"].update(data)
            hashes[self._part].update(data)

    def feed(self, *values) -> None:
        for v in values:
            if isinstance(v, OnPath):
                self._part = "path"
                self.feed(v.value)
                self._part = "answers"
            elif isinstance(v, np.ndarray):
                self._update(f"a{v.dtype.str}{v.shape}".encode())
                self._update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, (tuple, list)):
                self._update(f"t{len(v)}".encode())
                self.feed(*v)
            else:
                # repr of a float is exact: it reads back to the same bits
                self._update(f"{type(v).__name__}:{v!r};".encode())

    def case(self, run) -> None:
        """Hash what ``run()`` returns, or the type and message it raises."""
        try:
            self.feed("ok", run())
        except AviSolveError as exc:
            self.feed("raise", type(exc).__name__, str(exc))
        self.count += 1
        self._group[1] += 1


def _solve(solver, problem, **kwargs):
    sol, trace = solver(problem, **kwargs)
    return (
        sol.x,
        sol.multipliers,
        sol.active_set,
        sol.kkt_residual,
        sol.status,
        OnPath(sol.iterations),
        OnPath([dataclasses.astuple(r) for r in trace]),
    )


def solver_cases(d: Digest) -> None:
    d.group("golden")
    for n in (10, 30):
        for s in range(20):
            prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=s))
            d.case(lambda: _solve(avisolve.solve_dr_daqp, prob))
            d.case(lambda: _solve(avisolve.solve_dr, prob))
            d.case(lambda: _solve(avisolve.solve_dr_daqp, prob, warm_start=False))
            if n == 10:
                d.case(lambda: _solve(avisolve.solve_projected_gradient, prob))
    for name, count in (("vertex", 4), ("game", 24), ("small", 128)):
        build = workloads.WORKLOADS[name].build
        d.group(name)
        for index in range(count):
            prob = build(POOL_SEED, index)
            d.case(lambda: _solve(avisolve.solve_dr_daqp, prob))


def _qp_data(rng: np.random.Generator, diagonal: bool):
    """A random strictly convex QP with zero, duplicate and clashing rows."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 4 * n + 3))
    if diagonal:
        hessian = np.diag(rng.uniform(0.5, 2.0, n))
    else:
        M = rng.standard_normal((n, n))
        hessian = M @ M.T + 0.1 * np.eye(n)
    A = rng.standard_normal((m, n))
    b = A @ rng.standard_normal(n) + rng.uniform(0.0, 1.0, m)
    for i in range(m):
        kind = rng.integers(0, 8)
        if kind == 0:
            A[i] = 0.0  # zero row, infeasible when b[i] < 0
            b[i] = rng.uniform(-0.1, 1.0)
        elif kind == 1 and i:
            j = int(rng.integers(0, i))  # duplicate of an earlier row, scaled
            scale = rng.choice([1.0, 2.0, -1.0])
            A[i] = scale * A[j]
            b[i] = scale * b[j] + (rng.uniform(-0.5, 0.5) if scale < 0 else 0.0)
    return hessian, A, b


def _degenerate_qp_data(rng: np.random.Generator):
    """An integer QP whose steps tie: duplicate rows and integer data."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(n, 12 * n + 1))
    A = np.round(2.0 * rng.standard_normal((m, n)))
    A[rng.random(m) < 0.2] = A[0]
    b = A @ np.round(rng.standard_normal(n)) if rng.random() < 0.5 else np.zeros(m)
    hessian = np.eye(n) if rng.random() < 0.5 else np.diag(rng.integers(1, 5, n).astype(float))
    return hessian, np.round(5.0 * rng.standard_normal(n)), A, b


def _qp_call(ws, g, warm_start=True):
    r = qp_solve(ws, g, warm_start=warm_start)
    return (
        r.y,
        r.multipliers,
        r.active_set,
        OnPath(r.inner_iterations),
        OnPath(ws.total_inner_iterations),
        OnPath(ws.total_scans),
        OnPath(ws.working_set),
    )


def qp_cases(d: Digest) -> None:
    d.group("qp")
    for case in range(QP_CASES):
        rng = np.random.default_rng([19, case])
        diagonal = case % 4 == 0
        hessian, A, b = _qp_data(rng, diagonal)
        n, m = A.shape[1], A.shape[0]
        ws = qp_setup(hessian, A, b)
        start = rng.integers(0, m, int(rng.integers(0, m + 1))) if m else []
        ws.set_working_set(start)
        d.feed(OnPath(ws.working_set))
        g1, g2 = rng.standard_normal(n), rng.standard_normal(n)
        if diagonal:
            # zeros of both signs in g, which y keeps under a diagonal Hessian
            g1[rng.random(n) < 0.5] = -0.0
            g2[rng.random(n) < 0.5] = 0.0
        d.case(lambda: _qp_call(ws, g1))
        d.case(lambda: _qp_call(ws, g1))
        d.case(lambda: _qp_call(ws, g2))
        d.case(lambda: _qp_call(ws, g2, warm_start=False))
    for case in range(PRICED_CASES):
        n = 130
        p = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=case))
        norms = np.linalg.norm(p.A, axis=1)
        hessian = 0.5 * (p.H + p.H.T) + np.linalg.norm(p.H, "fro") * np.eye(n)
        ws = qp_setup(hessian, p.A / norms[:, None], p.b / norms)
        d.case(lambda: _qp_call(ws, 3.0 * p.f))
        d.case(lambda: _qp_call(ws, 2.0 * p.f))
    for case in range(DEGENERATE_CASES):
        hessian, g, A, b = _degenerate_qp_data(np.random.default_rng([20, case]))
        ws = qp_setup(hessian, A, b)
        d.case(lambda: _qp_call(ws, g))
        d.case(lambda: _qp_call(ws, -g))


def _integer_avi(rng: np.random.Generator) -> AviProblem:
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


def oracle_cases(d: Digest) -> None:
    d.group("oracle")
    problems = [
        random_avi(GenSpec(n=n, m=2 * n, gamma_asym=0.5, seed=s))
        for n in range(2, 7)
        for s in range(10)
    ]
    problems += [_integer_avi(np.random.default_rng([23, c])) for c in range(ORACLE_INTEGER_CASES)]
    problems.append(AviProblem(H=np.zeros((1, 1)), f=-np.ones(1), A=np.ones((1, 1)), b=np.ones(1)))
    for p in problems:
        d.case(lambda: certified_candidates(p))
        d.case(lambda: dataclasses.astuple(brute_force_solve(p)))


def main() -> int:
    d = Digest()
    solver_cases(d)
    qp_cases(d)
    oracle_cases(d)
    for name, (hashes, count) in d.groups.items():
        print(f"{name}: {count} cases {hashes['all'].hexdigest()}")
    for name, (hashes, _) in d.groups.items():
        for part in ("answers", "path"):
            print(f"{name} {part}: {hashes[part].hexdigest()}")
    for part in ("answers", "path"):
        print(f"{part}: {d.total[part].hexdigest()}")
    print(f"{d.count} cases")
    print(d.total["all"].hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
