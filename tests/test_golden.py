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

The writer keeps a record's stored ``x`` when its status and active set
are unchanged and ``x`` is within ``X_TOL`` of it, so last-bit differences
between machines move no record, and it prints each ``QP_CHANGES`` total
that differs from the dict above, to be copied into it by hand.
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
        [24, 23, 18, 22, 28, 23, 28, 25, 23, 22, 32, 32, 30, 18, 29, 25, 20, 20, 22, 22]
    )
} | {
    (30, seed): total
    for seed, total in enumerate(
        [104, 86, 96, 98, 96, 91, 104, 86, 88, 113,
         81, 86, 83, 104, 102, 92, 106, 98, 106, 92]
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


def qp_changes(n: int, seed: int) -> int:
    prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    _, trace = avisolve.solve_dr_daqp(prob)
    return sum(r.inner_qp_iters for r in trace)


def _x_close(got: dict, want: dict) -> bool:
    return np.max(np.abs(np.array(got["x"]) - np.array(want["x"]))) <= X_TOL


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
    assert _x_close(got, want)


@pytest.mark.parametrize(
    "n,seed", sorted(QP_CHANGES), ids=[f"{n}-{seed}" for n, seed in sorted(QP_CHANGES)]
)
def test_golden_inner_qp_changes(n, seed):
    assert qp_changes(n, seed) == QP_CHANGES[(n, seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    old = _golden()
    same = ("status", "active_set")
    records = []
    for case in CASES:
        got, want = record(*case), old.get(case)
        if want and all(got[k] == want[k] for k in same) and _x_close(got, want):
            got["x"] = want["x"]
        records.append(got)
    lines = ",\n".join(json.dumps(r) for r in records)
    GOLDEN.write_text('{"records": [\n' + lines + "\n]}\n")
    for (n, seed), total in sorted(QP_CHANGES.items()):
        got = qp_changes(n, seed)
        if got != total:
            print(f"QP_CHANGES[({n}, {seed})]: {total} -> {got}")
