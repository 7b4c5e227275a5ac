"""Golden traces: ``solve_dr_daqp`` outputs pinned by a recorded file.

``tests/data/golden_qp.json`` holds the status, outer iteration count,
active set and ``x`` of ``solve_dr_daqp`` on ``random_avi`` at
n in {10, 30}, m = 10 n, gamma = 0.5 and seeds 0-19, with default settings.
A change to the inner QP or its factorizations must keep the first three
identical and ``x`` within 1e-10.  Rewrite the file only for a deliberate
behaviour change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from avisolve import GenSpec, random_avi, solve_dr_daqp

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_qp.json"
CASES = [(n, seed) for n in (10, 30) for seed in range(20)]
X_TOL = 1e-10


def record(n: int, seed: int) -> dict:
    prob = random_avi(GenSpec(n=n, m=10 * n, gamma_asym=0.5, seed=seed))
    sol, _ = solve_dr_daqp(prob)
    return {
        "n": n,
        "m": 10 * n,
        "gamma": 0.5,
        "seed": seed,
        "status": sol.status,
        "iterations": sol.iterations,
        "active_set": [int(i) for i in sol.active_set],
        "x": [float(v) for v in sol.x],
    }


def _golden() -> dict[tuple[int, int], dict]:
    return {(r["n"], r["seed"]): r for r in json.loads(GOLDEN.read_text())["records"]}


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("n,seed", CASES)
def test_golden_trace(n, seed):
    want = _golden()[(n, seed)]
    got = record(n, seed)
    assert got["status"] == want["status"]
    assert got["iterations"] == want["iterations"]
    assert got["active_set"] == want["active_set"]
    assert np.max(np.abs(np.array(got["x"]) - np.array(want["x"]))) <= X_TOL


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    lines = ",\n".join(json.dumps(record(n, s)) for n, s in CASES)
    GOLDEN.write_text('{"records": [\n' + lines + "\n]}\n")
