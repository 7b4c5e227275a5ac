"""Tests for the command-line interface and its file formats."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avisolve
from avisolve import AviProblem, GenSpec, ParseError, random_avi
from avisolve.cli import (
    BENCH_COLUMNS,
    EXIT_ASSUMPTION,
    EXIT_ERROR,
    EXIT_MAXITER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    TRACE_COLUMNS,
    main,
    read_problem,
    read_reference,
    write_problem,
)


def _scalar_problem(bound=10.0):
    return AviProblem(
        H=np.array([[2.0]]),
        f=np.array([-2.0]),
        A=np.array([[1.0]]),
        b=np.array([bound]),
    )


def _scalar_file(tmp_path, bound=10.0):
    path = tmp_path / "scalar.json"
    write_problem(path, _scalar_problem(bound))
    return path


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# file I/O


def test_problem_round_trip(tmp_path):
    p = random_avi(GenSpec(n=4, m=9, gamma_asym=0.6, seed=17))
    path = tmp_path / "p.json"
    write_problem(path, p, metadata={"seed": 17})
    q, metadata = read_problem(path)
    assert np.array_equal(p.H, q.H)
    assert np.array_equal(p.f, q.f)
    assert np.array_equal(p.A, q.A)
    assert np.array_equal(p.b, q.b)
    assert metadata == {"seed": 17}


def test_problem_round_trip_unconstrained(tmp_path):
    p = AviProblem(H=np.eye(2), f=np.ones(2), A=np.zeros((0, 2)), b=np.zeros(0))
    path = tmp_path / "m0.json"
    write_problem(path, p)
    q, _ = read_problem(path)
    assert q.m == 0 and q.A.shape == (0, 2)


def test_read_problem_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        read_problem(bad)
    bad.write_text(json.dumps({"n": 1, "m": 0, "H": [[1.0]], "f": [0.0], "A": []}))
    with pytest.raises(ParseError):
        read_problem(bad)  # missing b
    bad.write_text(
        json.dumps({"n": 2, "m": 0, "H": [[1.0]], "f": [0.0, 0.0], "A": [], "b": []})
    )
    with pytest.raises(ParseError):
        read_problem(bad)  # H is 1x1 but n = 2
    bad.write_text(
        json.dumps({"n": 1, "m": 0, "H": [[1e999]], "f": [0.0], "A": [], "b": []})
    )
    with pytest.raises(ParseError):
        read_problem(bad)  # non-finite entry
    with pytest.raises(ParseError):
        read_problem(tmp_path / "missing.json")


def test_read_problem_rejects_rows_when_m_is_zero(tmp_path, capsys):
    # m = 0 with a non-empty A or b is inconsistent, not a reshape crash
    bad = tmp_path / "bad.json"
    doc = {"n": 2, "m": 0, "H": [[1.0, 0.0], [0.0, 1.0]], "f": [0.0, 0.0]}
    for A, b in (([[1.0, 0.0]], []), ([], [1.0]), ([[1.0, 0.0]], [1.0])):
        bad.write_text(json.dumps({**doc, "A": A, "b": b}))
        with pytest.raises(ParseError):
            read_problem(bad)
        code, _ = _run(capsys, ["solve", str(bad)])
        assert code == EXIT_PARSE


def test_read_problem_rejects_non_integer_sizes(tmp_path, capsys):
    # a size is an integer: 1.7 was truncated to 1 and solved without complaint
    bad = tmp_path / "bad.json"
    doc = {"n": 1, "m": 0, "H": [[1.0]], "f": [0.0], "A": [], "b": []}
    for field in ({"n": 1.7}, {"m": 0.5}, {"n": True}, {"m": False}, {"n": "1"}):
        bad.write_text(json.dumps({**doc, **field}))
        with pytest.raises(ParseError):
            read_problem(bad)
        code, _ = _run(capsys, ["solve", str(bad)])
        assert code == EXIT_PARSE
    bad.write_text(json.dumps({**doc, "n": 1.0}))
    assert read_problem(bad)[0].n == 1


def test_read_reference(tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"x": [1.0, 2.0], "status": "Exact"}))
    np.testing.assert_allclose(read_reference(ref), [1.0, 2.0])
    ref.write_text(json.dumps({"y": [1.0]}))
    with pytest.raises(ParseError):
        read_reference(ref)


_DOC = {"n": 2, "m": 0, "H": [[1.0, 0.0], [0.0, 1.0]], "f": [0.0, 0.0], "A": [], "b": []}


@pytest.mark.parametrize(
    "doc",
    [
        [_DOC],  # an array, not an object
        {**_DOC, "H": [[1.0, 0.0], [1.0]]},  # ragged H
        {**_DOC, "metadata": [1]},  # metadata that is not an object
    ],
    ids=["array", "ragged-H", "metadata"],
)
def test_malformed_problem_file_exits_parse(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_problem(path)
    code, out = _run(capsys, ["solve", str(path)])
    assert code == EXIT_PARSE
    assert out == ""


@pytest.mark.parametrize("text", [None, '{"x": ["a"]}'], ids=["missing", "string-x"])
def test_unreadable_reference_exits_parse(text, tmp_path, capsys):
    ref = tmp_path / "ref.json"
    if text is not None:
        ref.write_text(text)
    with pytest.raises(ParseError):
        read_reference(ref)
    code, out = _run(capsys, ["solve", str(_scalar_file(tmp_path)), "--reference", str(ref)])
    assert code == EXIT_PARSE
    assert out == ""


# ---------------------------------------------------------------------------
# solve


def test_solve_scalar_interior(tmp_path, capsys):
    code, out = _run(capsys, ["solve", str(_scalar_file(tmp_path))])
    assert code == EXIT_OK
    doc = json.loads(out)
    np.testing.assert_allclose(doc["x"], [1.0], atol=1e-10)
    assert doc["status"] == "Exact"
    assert doc["active_set"] == []
    assert doc["kkt_residual"] <= 1e-8


def test_solve_pg_hits_iteration_cap(tmp_path, capsys):
    # the automatic step solves the scalar instance exactly on the second
    # iteration, so the cap only binds at 1
    code, out = _run(
        capsys,
        ["solve", str(_scalar_file(tmp_path)), "--solver", "pg",
         "--max-iter", "1", "--eta", "1e-12"],
    )
    assert code == EXIT_MAXITER
    assert json.loads(out)["status"] == "MaxIter"


def test_solve_trace_consistency(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out = _run(
        capsys,
        ["solve", str(_scalar_file(tmp_path)), "--solver", "dr",
         "--trace", str(trace_path)],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["status"] == "Tolerance"
    with open(trace_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == TRACE_COLUMNS
    body = rows[1:]
    assert len(body) == doc["iterations"]
    assert [int(r[0]) for r in body] == list(range(len(body)))
    assert float(body[-1][1]) <= 1e-6  # final merit within the default eta
    assert body[0][6] == ""  # no reference given: blank distance column


def test_solve_with_reference(tmp_path, capsys):
    problem_path = _scalar_file(tmp_path)
    # a previous solve's JSON output doubles as the reference file
    code, out = _run(capsys, ["solve", str(problem_path)])
    assert code == EXIT_OK
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(out)
    trace_path = tmp_path / "trace.csv"
    code, out = _run(
        capsys,
        ["solve", str(problem_path), "--solver", "dr",
         "--trace", str(trace_path), "--reference", str(ref_path)],
    )
    assert code == EXIT_OK
    with open(trace_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    dists = [float(r[6]) for r in rows]
    assert dists[-1] <= 1e-5  # converged next to the reference


def test_solve_trace_rows_match_library_trace(tmp_path, capsys):
    # this instance accepts a correction whose active-set walk finds no exact
    # candidate, and exits Exact later, so both flag columns read 1 somewhere
    problem = random_avi(GenSpec(n=3, m=6, gamma_asym=0.5, seed=75))
    reference = np.array([0.5, -0.25, 1.0])
    problem_path, ref_path = tmp_path / "p.json", tmp_path / "ref.json"
    write_problem(problem_path, problem)
    ref_path.write_text(json.dumps({"x": reference.tolist()}))
    trace_path = tmp_path / "trace.csv"
    code, _ = _run(
        capsys,
        ["solve", str(problem_path), "--trace", str(trace_path), "--reference", str(ref_path)],
    )
    assert code == EXIT_OK
    sol, trace = avisolve.solve_dr_daqp(problem, reference=reference)
    assert sol.status == "Exact"
    assert any(r.newton_accepted for r in trace)
    with open(trace_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    expected = [
        [
            str(r.k),
            str(r.merit),
            str(r.active_set_size),
            str(int(r.newton_attempted)),
            str(int(r.newton_accepted)),
            str(r.inner_qp_iters),
            str(r.dist_to_ref),
            str(r.chain_steps),
        ]
        for r in trace
    ]
    assert rows == expected


def test_solve_rejects_wrong_length_reference(tmp_path, capsys):
    problem_path = tmp_path / "p.json"
    write_problem(problem_path, random_avi(GenSpec(n=2, m=4, gamma_asym=0.5, seed=3)))
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps({"x": [0.0, 0.0, 0.0]}))
    code, out = _run(capsys, ["solve", str(problem_path), "--reference", str(ref_path)])
    assert code == EXIT_PARSE
    assert out == ""


def test_solve_rejects_non_finite_reference(tmp_path, capsys):
    # JSON as Python reads it accepts NaN and Infinity
    problem_path = _scalar_file(tmp_path)
    ref_path = tmp_path / "ref.json"
    for value in ("NaN", "Infinity"):
        ref_path.write_text(f'{{"x": [{value}]}}')
        with pytest.raises(ParseError):
            read_reference(ref_path)
        code, out = _run(capsys, ["solve", str(problem_path), "--reference", str(ref_path)])
        assert code == EXIT_PARSE
        assert out == ""


def test_solve_missing_file(tmp_path, capsys):
    code, _ = _run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == EXIT_PARSE


def test_solve_invalid_settings(tmp_path, capsys):
    for option in (["--eta", "-1"], ["--rho", "inf"], ["--rho", "nan"]):
        code, _ = _run(capsys, ["solve", str(_scalar_file(tmp_path)), *option])
        assert code == EXIT_PARSE


def test_solve_assumption_violation(tmp_path, capsys):
    path = tmp_path / "skew.json"
    write_problem(
        path,
        AviProblem(
            H=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            f=np.zeros(2),
            A=np.zeros((0, 2)),
            b=np.zeros(0),
        ),
    )
    code, _ = _run(capsys, ["solve", str(path)])
    assert code == EXIT_ASSUMPTION


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_infeasible_problem_exits_error(command, tmp_path, capsys):
    # x <= -1 and -x <= -1 admit no point
    path = tmp_path / "infeasible.json"
    write_problem(
        path,
        AviProblem(
            H=np.array([[1.0]]),
            f=np.zeros(1),
            A=np.array([[1.0], [-1.0]]),
            b=np.array([-1.0, -1.0]),
        ),
    )
    code, _ = _run(capsys, [command, str(path)])
    assert code == EXIT_ERROR


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic(tmp_path, capsys):
    args = ["gen", "--n", "5", "--m", "50", "--gamma", "0.5", "--seed", "1"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, args + ["-o", str(f1)])[0] == EXIT_OK
    assert _run(capsys, args + ["-o", str(f2)])[0] == EXIT_OK
    assert f1.read_bytes() == f2.read_bytes()


def test_gen_symmetric_and_metadata(tmp_path, capsys):
    path = tmp_path / "sym.json"
    code, _ = _run(
        capsys, ["gen", "--n", "3", "--m", "30", "--gamma", "0", "--seed", "7",
                 "-o", str(path)]
    )
    assert code == EXIT_OK
    p, metadata = read_problem(path)
    assert np.max(np.abs(p.H - p.H.T)) <= 1e-14
    assert metadata["seed"] == 7
    assert metadata["gamma_asym"] == 0.0
    assert "generator_version" in metadata


def test_gen_solve_oracle_agree(tmp_path, capsys):
    path = tmp_path / "small.json"
    code, _ = _run(
        capsys, ["gen", "--n", "2", "--m", "6", "--gamma", "0.5", "--seed", "3",
                 "-o", str(path)]
    )
    assert code == EXIT_OK
    code, solve_out = _run(capsys, ["solve", str(path)])
    assert code == EXIT_OK
    solve_doc = json.loads(solve_out)
    assert solve_doc["status"] == "Exact"
    code, oracle_out = _run(capsys, ["oracle", str(path)])
    assert code == EXIT_OK
    oracle_doc = json.loads(oracle_out)
    assert np.max(np.abs(np.array(solve_doc["x"]) - oracle_doc["x"])) <= 1e-6


def test_gen_rejects_bad_gamma(tmp_path, capsys):
    code, _ = _run(
        capsys, ["gen", "--n", "3", "--m", "6", "--gamma", "1.5", "--seed", "1",
                 "-o", str(tmp_path / "x.json")]
    )
    assert code == EXIT_PARSE


def test_gen_rejects_negative_seed(tmp_path, capsys):
    out_path = tmp_path / "x.json"
    code, _ = _run(
        capsys, ["gen", "--n", "3", "--m", "6", "--gamma", "0.5", "--seed", "-1",
                 "-o", str(out_path)]
    )
    assert code == EXIT_PARSE
    assert not out_path.exists()


@pytest.mark.parametrize("reg", ["nan", "inf"])
def test_gen_rejects_non_finite_regularization(reg, tmp_path, capsys):
    out_path = tmp_path / "x.json"
    code, _ = _run(
        capsys, ["gen", "--n", "3", "--m", "4", "--gamma", "0.5", "--seed", "1",
                 "--reg", reg, "-o", str(out_path)]
    )
    assert code == EXIT_PARSE
    assert not out_path.exists()


def test_gen_assumption_exit(tmp_path, capsys):
    code, _ = _run(
        capsys, ["gen", "--n", "3", "--m", "6", "--gamma", "1", "--seed", "1",
                 "-o", str(tmp_path / "x.json")]
    )
    assert code == EXIT_ASSUMPTION


# ---------------------------------------------------------------------------
# bench


def test_bench_single_solver(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, _ = _run(
        capsys, ["bench", "--sizes", "5", "--instances", "3",
                 "--solvers", "dr-daqp", "-o", str(out_csv)]
    )
    assert code == EXIT_OK
    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == BENCH_COLUMNS
    assert len(rows) == 4
    assert all(r[5] == "Exact" for r in rows[1:])
    assert all(r[1] == "50" for r in rows[1:])  # m defaults to 10 n


def test_bench_row_count_multi_solver(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, _ = _run(
        capsys, ["bench", "--sizes", "5", "--instances", "3",
                 "--solvers", "dr-daqp,dr,pg", "-o", str(out_csv)]
    )
    assert code == EXIT_OK
    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert len(rows) == 9
    statuses = {r[5] for r in rows}
    assert statuses <= {"Exact", "Tolerance", "MaxIter", "Error"}


def test_bench_deterministic_except_walltime(tmp_path, capsys):
    args = ["bench", "--sizes", "4,5", "--instances", "2", "--solvers", "dr-daqp,dr"]
    f1, f2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert _run(capsys, args + ["-o", str(f1)])[0] == EXIT_OK
    assert _run(capsys, args + ["-o", str(f2)])[0] == EXIT_OK
    wall = BENCH_COLUMNS.index("wall_time_s")
    with open(f1, newline="") as handle:
        rows1 = [r[:wall] for r in csv.reader(handle)]
    with open(f2, newline="") as handle:
        rows2 = [r[:wall] for r in csv.reader(handle)]
    assert rows1 == rows2


def test_bench_rejects_unknown_solver(tmp_path, capsys):
    code, _ = _run(
        capsys, ["bench", "--sizes", "5", "--instances", "1",
                 "--solvers", "newton", "-o", str(tmp_path / "b.csv")]
    )
    assert code == EXIT_PARSE


def test_bench_rejects_bad_gamma(tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    code, _ = _run(
        capsys, ["bench", "--sizes", "2", "--instances", "1", "--gamma", "2",
                 "-o", str(out_csv)]
    )
    assert code == EXIT_PARSE
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "option",
    [
        ("--sizes", "1,x"),
        ("--sizes", ","),
        ("--sizes", "0"),
        ("--instances", "0"),
        ("--solvers", ","),
    ],
)
def test_bench_rejects_bad_sizes_counts_and_lists(option, tmp_path, capsys):
    out_csv = tmp_path / "b.csv"
    args = {"--sizes": "2", "--instances": "1", "--solvers": "dr-daqp", **dict([option])}
    code, out = _run(capsys, ["bench", *sum(args.items(), ()), "-o", str(out_csv)])
    assert code == EXIT_PARSE
    assert out == ""
    assert not out_csv.exists()


def test_bench_writes_error_rows_when_the_generator_refuses(tmp_path, capsys):
    # gamma = 1 asks for a purely skew H, which the generator refuses
    out_csv = tmp_path / "b.csv"
    code, _ = _run(
        capsys, ["bench", "--sizes", "3", "--instances", "2", "--gamma", "1",
                 "--solvers", "dr-daqp,pg", "-o", str(out_csv)]
    )
    assert code == EXIT_OK
    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [(r[3], r[4], r[5]) for r in rows] == [
        ("1", "dr-daqp", "Error"),
        ("1", "pg", "Error"),
        ("2", "dr-daqp", "Error"),
        ("2", "pg", "Error"),
    ]


def test_unwritable_output_paths_fail_before_any_work(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    problem = str(_scalar_file(tmp_path))
    for argv in (
        ["solve", problem, "--trace", str(missing / "t.csv")],
        ["gen", "--n", "2", "--m", "4", "--gamma", "0.5", "--seed", "1",
         "-o", str(missing / "x.json")],
        ["bench", "--sizes", "2", "--instances", "1", "-o", str(missing / "b.csv")],
    ):
        code, out = _run(capsys, argv)
        assert code == EXIT_PARSE
        assert out == ""  # no solution printed, no "wrote" line
    assert not (tmp_path / "no").exists()


def test_output_path_check_leaves_no_file_behind(tmp_path, capsys):
    # a failed solve after the check must not leave an empty trace file
    path = tmp_path / "skew.json"
    write_problem(
        path,
        AviProblem(H=np.array([[0.0, 1.0], [-1.0, 0.0]]), f=np.zeros(2),
                   A=np.zeros((0, 2)), b=np.zeros(0)),
    )
    trace = tmp_path / "t.csv"
    code, _ = _run(capsys, ["solve", str(path), "--trace", str(trace)])
    assert code == EXIT_ASSUMPTION
    assert not trace.exists()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_scalar(tmp_path, capsys):
    code, out = _run(capsys, ["oracle", str(_scalar_file(tmp_path))])
    assert code == EXIT_OK
    doc = json.loads(out)
    np.testing.assert_allclose(doc["x"], [1.0])
    assert doc["active_set"] == []


def test_oracle_scalar_bound(tmp_path, capsys):
    code, out = _run(capsys, ["oracle", str(_scalar_file(tmp_path, bound=0.25))])
    assert code == EXIT_OK
    doc = json.loads(out)
    np.testing.assert_allclose(doc["x"], [0.25], atol=1e-12)
    np.testing.assert_allclose(doc["lambda"], [1.5], atol=1e-12)


def test_oracle_too_large(tmp_path, capsys):
    rng = np.random.default_rng(1)
    p = AviProblem(
        H=np.eye(2), f=np.zeros(2),
        A=rng.standard_normal((17, 2)), b=np.ones(17),
    )
    path = tmp_path / "big.json"
    write_problem(path, p)
    code, _ = _run(capsys, ["oracle", str(path)])
    assert code == EXIT_TOO_LARGE


# ---------------------------------------------------------------------------
# console script


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as handle:
        return tomllib.load(handle)


def _child_env():
    """Environment in which a child imports the same avisolve as this test,
    from any working directory."""
    src = str(Path(avisolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script(tmp_path):
    # The `avi-solve` script exists only after an install, so the configured
    # entry point is run the way the script setuptools generates would run it;
    # an installed script on PATH is run as well.
    pyproject = _load_toml(Path(__file__).resolve().parents[1] / "pyproject.toml")
    target = pyproject["project"]["scripts"]["avi-solve"]
    assert target == "avisolve.cli:entry_point"
    module, func = target.split(":")
    path = _scalar_file(tmp_path)

    env = _child_env()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("avi-solve")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["solve", str(path)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert json.loads(proc.stdout)["status"] == "Exact"


def test_python_dash_m(tmp_path):
    # `python -m avisolve` runs the same command line as `avi-solve`
    proc = subprocess.run(
        [sys.executable, "-m", "avisolve", "solve", str(_scalar_file(tmp_path))],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "Exact"
