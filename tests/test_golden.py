"""Golden traces: solver outputs pinned by a recorded file.

``tests/data/golden_qp.json`` holds the status, outer iteration count,
active set and ``x`` of each solver on ``random_avi`` at m = 10 n,
gamma = 0.5, with default settings:

* ``solve_dr_daqp`` and ``solve_dr`` at n in {10, 30}, seeds 0-19;
* ``solve_projected_gradient`` at n = 10, seeds 0-9.

A change to the solvers, the inner QP or the factorizations must keep the
first three identical and ``x`` within 1e-10.  The pivot path of
``solve_dr_daqp`` is pinned too: ``QP_CHANGES`` holds, per case, the total
of ``TraceRecord.inner_qp_iters`` over the solve (inner-QP adds plus drops),
and moving one is a behaviour change like rewriting a record.  Records of
``solve_dr_daqp`` carry no ``solver`` key.  Rewrite the file only for a
deliberate behaviour change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import avisolve
from avisolve import GenSpec, random_avi

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_qp.json"
DEFAULT_SOLVER = "solve_dr_daqp"
CASES = (
    [(DEFAULT_SOLVER, n, seed) for n in (10, 30) for seed in range(20)]
    + [("solve_dr", n, seed) for n in (10, 30) for seed in range(20)]
    + [("solve_projected_gradient", 10, seed) for seed in range(10)]
)
X_TOL = 1e-10
# (n, seed) -> inner-QP working-set changes of the whole solve_dr_daqp solve
QP_CHANGES = {
    (10, seed): total
    for seed, total in enumerate(
        [28, 37, 22, 24, 22, 35, 34, 15, 33, 34, 54, 46, 38, 22, 35, 34, 24, 20, 26, 36]
    )
} | {
    (30, seed): total
    for seed, total in enumerate(
        [130, 116, 96, 96, 114, 135, 120, 121, 130, 133,
         129, 134, 119, 154, 146, 136, 128, 130, 112, 108]
    )
}


def record(solver: str, n: int, seed: int) -> dict:
    prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    sol, _ = getattr(avisolve, solver)(prob)
    head = {} if solver == DEFAULT_SOLVER else {"solver": solver}
    return head | {
        "n": n,
        "m": 10 * n,
        "gamma": 0.5,
        "seed": seed,
        "status": sol.status,
        "iterations": sol.iterations,
        "active_set": [int(i) for i in sol.active_set],
        "x": [float(v) for v in sol.x],
    }


def _golden() -> dict[tuple[str, int, int], dict]:
    records = json.loads(GOLDEN.read_text())["records"]
    return {(r.get("solver", DEFAULT_SOLVER), r["n"], r["seed"]): r for r in records}


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def _case_id(case) -> str:
    solver, n, seed = case
    return f"{n}-{seed}" if solver == DEFAULT_SOLVER else f"{solver}-{n}-{seed}"


@pytest.mark.parametrize("solver,n,seed", CASES, ids=[_case_id(c) for c in CASES])
def test_golden_trace(solver, n, seed):
    want = _golden()[(solver, n, seed)]
    got = record(solver, n, seed)
    assert got["status"] == want["status"]
    assert got["iterations"] == want["iterations"]
    assert got["active_set"] == want["active_set"]
    assert np.max(np.abs(np.array(got["x"]) - np.array(want["x"]))) <= X_TOL


@pytest.mark.parametrize(
    "n,seed", sorted(QP_CHANGES), ids=[f"{n}-{seed}" for n, seed in sorted(QP_CHANGES)]
)
def test_golden_inner_qp_changes(n, seed):
    prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    _, trace = avisolve.solve_dr_daqp(prob)
    assert sum(r.inner_qp_iters for r in trace) == QP_CHANGES[(n, seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    lines = ",\n".join(json.dumps(record(*case)) for case in CASES)
    GOLDEN.write_text('{"records": [\n' + lines + "\n]}\n")
