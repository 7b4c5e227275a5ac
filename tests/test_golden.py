"""Golden traces: solver outputs pinned by a recorded file.

``tests/data/golden_qp.json`` holds one record per solver and case of
``random_avi`` at m = 10 n, gamma = 0.5, with default settings:

* ``solve_dr_daqp`` and ``solve_dr`` at n in {10, 30}, seeds 0-19;
* ``solve_projected_gradient`` at n = 10, seeds 0-9.

A record holds the answer (status, active set and ``x``) and the path
(the outer iteration count and, for ``solve_dr_daqp`` only,
``qp_changes``: the total of ``TraceRecord.inner_qp_iters`` over the
solve, inner-QP adds plus drops).  Status, active set and both path
fields must match exactly and ``x`` to ``X_TOL``.  Records of
``solve_dr_daqp`` carry no ``solver`` key.  Each case is solved once per
session.  A change that moves the path on purpose rewrites the file and
keeps every answer; one that moves an answer is a behaviour change.
Either is said in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write

The writer keeps a record's stored ``x`` when its status and active set
are unchanged and ``x`` is within ``X_TOL`` of it, so last-bit differences
between machines move no record, and it prints which records moved an
answer and which moved only their path.
"""

import functools
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
DEFAULT_CASES = [(n, seed) for solver, n, seed in CASES if solver == DEFAULT_SOLVER]
X_TOL = 1e-10
PATH = ("iterations", "qp_changes")


@functools.cache
def _solve(solver: str, n: int, seed: int):
    prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    return getattr(avisolve, solver)(prob)


def record(solver: str, n: int, seed: int) -> dict:
    sol, trace = _solve(solver, n, seed)
    head = {} if solver == DEFAULT_SOLVER else {"solver": solver}
    rec = head | {
        "n": n,
        "m": 10 * n,
        "gamma": 0.5,
        "seed": seed,
        "status": sol.status,
        "iterations": sol.iterations,
    }
    if solver == DEFAULT_SOLVER:
        # inner-QP working-set changes of the whole solve
        rec["qp_changes"] = sum(r.inner_qp_iters for r in trace)
    return rec | {"active_set": [int(i) for i in sol.active_set], "x": [float(v) for v in sol.x]}


def _x_close(got: dict, want: dict) -> bool:
    return np.max(np.abs(np.array(got["x"]) - np.array(want["x"]))) <= X_TOL


@functools.cache
def _golden() -> dict[tuple[str, int, int], dict]:
    records = json.loads(GOLDEN.read_text())["records"]
    return {(r.get("solver", DEFAULT_SOLVER), r["n"], r["seed"]): r for r in records}


def test_golden_file_covers_every_case():
    golden = _golden()
    assert sorted(golden) == sorted(CASES)
    assert {case for case, r in golden.items() if "qp_changes" in r} == {
        (DEFAULT_SOLVER, n, seed) for n, seed in DEFAULT_CASES
    }


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


@pytest.mark.parametrize("n,seed", DEFAULT_CASES, ids=[f"{n}-{seed}" for n, seed in DEFAULT_CASES])
def test_golden_inner_qp_changes(n, seed):
    case = (DEFAULT_SOLVER, n, seed)
    assert record(*case)["qp_changes"] == _golden()[case]["qp_changes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    old = _golden()
    records = []
    for case in CASES:
        got, want = record(*case), old.get(case)
        same = want and all(got[k] == want[k] for k in ("status", "active_set"))
        if same and _x_close(got, want):
            got["x"] = want["x"]
            for k in PATH:
                if got.get(k) != want.get(k):
                    print(f"{_case_id(case)}: path moved, {k} {want.get(k)} -> {got.get(k)}")
        else:
            print(f"{_case_id(case)}: answer moved")
        records.append(got)
    lines = ",\n".join(json.dumps(r) for r in records)
    GOLDEN.write_text('{"records": [\n' + lines + "\n]}\n")
