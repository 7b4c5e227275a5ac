"""Tests of the benchmark itself: inputs, the verifier, the tracer, the CLI."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avisolve.avi as avi
from avisolve import AviProblem, GenSpec, check_solution, random_avi, solve_dr_daqp
from avisolve.linalg import factor_spd
from layers import PER_LAYER, SolveRecord, Tracer, consistency_failures, per_solve_counts, self_times
from verify import VERIFY_TOL, kkt_violation, verified
from workloads import WORKLOADS, quadratic_game

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def digest(p: AviProblem) -> str:
    h = hashlib.sha256()
    for arr in (p.H, p.f, p.A, p.b):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_deterministic_per_seed(name):
    build = WORKLOADS[name].build
    assert digest(build(7, 3)) == digest(build(7, 3))
    assert digest(build(7, 3)) != digest(build(8, 3))
    assert digest(build(7, 3)) != digest(build(7, 4))


def test_game_is_positive_definite_and_badly_scaled():
    for index in range(3):
        p = quadratic_game(5, index)
        assert (p.n, p.m) == (200, 100)
        factor_spd(p.H + p.H.T)  # raises NotPositiveDefinite otherwise
        norms = np.linalg.norm(p.A, axis=1)
        assert norms.max() / norms.min() > 100.0


@pytest.fixture(scope="module")
def solved():
    p = random_avi(GenSpec(n=10, m=100, gamma_asym=0.5, seed=3))
    sol, _ = solve_dr_daqp(p)
    return p, sol


def test_verifier_accepts_the_solution(solved):
    p, sol = solved
    assert verified(p, sol)
    assert kkt_violation(p, sol.x, sol.multipliers) <= VERIFY_TOL


def test_verifier_rejects_a_perturbed_x(solved):
    p, sol = solved
    x = sol.x.copy()
    x[0] += 1e-4
    assert kkt_violation(p, x, sol.multipliers) > VERIFY_TOL


def test_verifier_rejects_a_sign_flipped_multiplier(solved):
    p, sol = solved
    lam = sol.multipliers.copy()
    i = int(np.argmax(lam))
    assert lam[i] > 0.0
    lam[i] = -lam[i]
    assert kkt_violation(p, sol.x, lam) > VERIFY_TOL


def test_verifier_rejects_what_the_global_tolerance_certifies():
    # minimize (x - 1)^2 / 2 subject to 1e-6 x <= 0.5e-6 (x <= 0.5) and a
    # far-away row x <= 1e4, whose bound inflates check_solution's scale.
    p = AviProblem(
        H=np.array([[1.0]]),
        f=np.array([-1.0]),
        A=np.array([[1e-6], [1.0]]),
        b=np.array([0.5e-6, 1e4]),
    )
    wrong_x, no_lam = np.array([1.0]), np.zeros(2)
    assert check_solution(p, wrong_x, no_lam, 1e-8, 1e-8)
    assert kkt_violation(p, wrong_x, no_lam) > 0.1
    assert kkt_violation(p, np.array([0.5]), np.array([0.5e6, 0.0])) <= VERIFY_TOL


def traced_solves(p, repeats):
    tracer = Tracer()
    records, traces = [], []
    for k in range(repeats):
        sol, trace = tracer.solve_dr_daqp(k, p)
        traces.append(trace)
        records.append(SolveRecord.of(0, sol, trace))
    return tracer, records, traces


def test_tracer_spans_add_up_and_originals_are_restored(solved):
    p, _ = solved
    original = avi.qp_solve
    tracer, _, _ = traced_solves(p, 1)
    assert avi.qp_solve is original
    sp = tracer.arrays()
    root = sp["name"] == tracer.layers.index("avi.solve")
    assert root.sum() == 1 and sp["parent"][root][0] == -1
    own = self_times(sp["parent"], sp["start"], sp["end"])
    wall = float((sp["end"] - sp["start"])[root][0])
    assert own.sum() == pytest.approx(wall, rel=1e-9)
    assert np.all(own >= -1e-9)
    layers = {tracer.layers[i] for i in sp["name"]}
    assert {"qp.solve", "avi.build", "avi.dr_update", "linalg.spd_solve"} <= layers


def test_qp_ledger_matches_the_solver_trace_and_repeats(solved):
    p, _ = solved
    tracer, records, traces = traced_solves(p, 2)
    counts = per_solve_counts(tracer, records)
    assert consistency_failures(counts, records) == {}
    for k, trace in enumerate(traces):
        assert counts["qp.adds"][k] + counts["qp.drops"][k] == sum(
            r.inner_qp_iters for r in trace
        )
    assert counts["qp.ledger_mismatch"].sum() == 0
    sid, before, _, after = tracer.arrays()["qp_calls"].T
    for k in range(2):
        net = int((after - before)[sid == k].sum())
        assert counts["qp.adds"][k] - counts["qp.drops"][k] == net
    assert counts["qp.adds"][0] > counts["qp.drops"][0] > 0


def test_consistency_check_flags_a_count_that_does_not_repeat(solved):
    p, _ = solved
    tracer, records, _ = traced_solves(p, 2)
    counts = per_solve_counts(tracer, records)
    counts["avi.outer_iters"] = counts["avi.outer_iters"] + np.array([0, 1])
    assert list(consistency_failures(counts, records)) == [1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["vertex", "game", "small"]
    assert set(WORKLOADS) == {"vertex", "game", "small"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names and spec["paths"] == ["perfbench"]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "11"]
    return subprocess.run(
        cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench-env ")
    env = json.loads(lines[-2].split(" ", 1)[1])
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 11
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = result_of(run_bench("--seconds", "0.2", "--trace", "0"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_counts_repeat_exactly_across_runs():
    first = result_of(run_bench("--seconds", "0.2", "--trace", "1"))
    second = result_of(run_bench("--seconds", "0.2", "--trace", "1"))
    assert set(first) == {name for name, _, _ in PER_LAYER}
    exact = [name for name, unit, _ in PER_LAYER if unit.startswith("count")]
    exact += ["qp.noop_frac", "avi.correction.accept_frac"]
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
