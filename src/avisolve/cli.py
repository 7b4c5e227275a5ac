"""Command-line surface: problem file I/O, solving, generation, benchmarks.

Subcommands
-----------
solve   run a solver on a problem file, print the solution as JSON
gen     write a random problem file for a generator spec
bench   sweep (size, seed, solver) combinations into a benchmark CSV
oracle  print the brute-force reference solution of a small problem file

Problem files are JSON documents with integer fields ``n`` and ``m`` and
nested arrays ``H`` (n x n), ``f`` (n), ``A`` (m x n), ``b`` (m), plus an
optional ``metadata`` object.  Floats are serialized by Python's shortest
round-trip repr, so write -> read reproduces values bit for bit.

Exit codes: 0 success, 2 parse/format error, 4 iteration cap reached,
3 assumption violation, 5 oracle size limit, 1 other solver errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .avi import (
    STATUS_EXACT,
    STATUS_TOLERANCE,
    AviProblem,
    SolverSettings,
    solve_dr,
    solve_dr_daqp,
    solve_projected_gradient,
)
from .errors import (
    AviSolveError,
    DimensionMismatch,
    NotPositiveDefinite,
    ParseError,
    TooLarge,
)
from .gen import GENERATOR_VERSION, GenSpec, random_avi
from .oracle import brute_force_solve

__all__ = [
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_PARSE",
    "EXIT_ASSUMPTION",
    "EXIT_MAXITER",
    "EXIT_TOO_LARGE",
    "TRACE_COLUMNS",
    "BENCH_COLUMNS",
    "read_problem",
    "write_problem",
    "read_reference",
    "write_trace",
    "build_parser",
    "main",
    "entry_point",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_MAXITER = 4
EXIT_TOO_LARGE = 5

# first match wins; NotPositiveDefinite covers AssumptionViolated too
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (TooLarge, EXIT_TOO_LARGE),
    (NotPositiveDefinite, EXIT_ASSUMPTION),
    (AviSolveError, EXIT_ERROR),
)

TRACE_COLUMNS = [
    "k",
    "merit",
    "active_set_size",
    "newton_attempted",
    "newton_accepted",
    "inner_qp_iters",
    "dist_to_ref",
    "chain_steps",
]

BENCH_COLUMNS = [
    "n",
    "m",
    "gamma",
    "seed",
    "solver",
    "status",
    "iterations",
    "inner_qp_iters",
    "newton_attempts",
    "newton_acceptances",
    "wall_time_s",
]

_SOLVERS = {
    "dr-daqp": solve_dr_daqp,
    "dr": solve_dr,
    "pg": solve_projected_gradient,
}


# ---------------------------------------------------------------------------
# file I/O


def read_problem(path) -> tuple[AviProblem, dict]:
    """Parse a problem file; returns (problem, metadata dict)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"problem file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"problem file {path} must hold a JSON object")
    for key in ("n", "m", "H", "f", "A", "b"):
        if key not in doc:
            raise ParseError(f"problem file {path} is missing field '{key}'")
    for key in ("n", "m"):
        size = doc[key]
        if isinstance(size, bool) or not (
            isinstance(size, int) or isinstance(size, float) and size.is_integer()
        ):
            raise ParseError(f"problem file {path} has a non-integer '{key}': {size!r}")
    n, m = int(doc["n"]), int(doc["m"])
    try:
        H = np.asarray(doc["H"], dtype=float)
        f = np.asarray(doc["f"], dtype=float)
        A = np.asarray(doc["A"], dtype=float)
        b = np.asarray(doc["b"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"problem file {path} has malformed arrays: {exc}") from exc
    if m == 0 and not A.size and not b.size:  # an empty A may be written [] whatever n is
        A, b = np.zeros((0, max(n, 0))), np.zeros(0)
    if H.shape != (n, n) or f.shape != (n,) or A.shape != (m, n) or b.shape != (m,):
        raise ParseError(
            f"problem file {path} has inconsistent dimensions for n={n}, m={m}"
        )
    try:
        problem = AviProblem(H=H, f=f, A=A, b=b)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(f"problem file {path} rejected: {exc}") from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"problem file {path} has a non-object metadata field")
    return problem, metadata


def write_problem(path, problem: AviProblem, metadata: dict | None = None) -> None:
    doc = {
        "n": problem.n,
        "m": problem.m,
        "H": problem.H.tolist(),
        "f": problem.f.tolist(),
        "A": problem.A.tolist(),
        "b": problem.b.tolist(),
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_reference(path) -> np.ndarray:
    """Load a reference solution: a JSON object with an ``x`` array.

    The JSON printed by ``avi-solve solve`` qualifies, so a converged run's
    output can be redirected to a file and reused as the reference.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read reference file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "x" not in doc:
        raise ParseError(f"reference file {path} must be a JSON object with an 'x' array")
    try:
        x = np.asarray(doc["x"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"reference file {path} has a malformed 'x' array: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ParseError(f"reference file {path} has non-finite entries in 'x'")
    return x


def _check_writable(path, what: str) -> None:
    """Raise ParseError unless an output file can be opened at ``path``.

    Called before any work, so that a bad path costs no solve; a file the
    check itself creates is removed again.
    """
    path = Path(path)
    existed = path.exists()
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ParseError(f"cannot write {what} {path}: {exc}") from exc
    if not existed:
        path.unlink()


def write_trace(path, trace) -> None:
    """One row per TraceRecord: flags as 0/1, a missing distance as ''."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for r in trace:
            row = (getattr(r, name) for name in TRACE_COLUMNS)
            writer.writerow("" if v is None else int(v) if isinstance(v, bool) else v for v in row)


# ---------------------------------------------------------------------------
# subcommands


def _settings_from_args(args) -> SolverSettings:
    names = ("rho", "eta", "max_iter", "stab_count")
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    try:
        return SolverSettings(**overrides)
    except ValueError as exc:
        raise ParseError(f"invalid solver settings: {exc}") from exc


def cmd_solve(args) -> int:
    problem, _ = read_problem(args.problem)
    reference = read_reference(args.reference) if args.reference else None
    if reference is not None and reference.shape != (problem.n,):
        raise ParseError(f"reference 'x' has shape {reference.shape}, expected ({problem.n},)")
    if args.trace:
        _check_writable(args.trace, "trace file")
    settings = _settings_from_args(args)
    solver = _SOLVERS[args.solver]
    solution, trace = solver(problem, settings, reference=reference)
    print(
        json.dumps(
            {
                "x": solution.x.tolist(),
                "lambda": solution.multipliers.tolist(),
                "active_set": list(solution.active_set),
                "status": solution.status,
                "iterations": solution.iterations,
                "kkt_residual": solution.kkt_residual,
            },
            indent=1,
        )
    )
    if args.trace:
        write_trace(args.trace, trace)
    if solution.status in (STATUS_EXACT, STATUS_TOLERANCE):
        return EXIT_OK
    return EXIT_MAXITER


def _gen_spec(**fields) -> GenSpec:
    try:
        return GenSpec(**fields)
    except ValueError as exc:
        raise ParseError(f"invalid generator spec: {exc}") from exc


def cmd_gen(args) -> int:
    spec = _gen_spec(
        n=args.n, m=args.m, gamma_asym=args.gamma, seed=args.seed, regularization=args.reg
    )
    _check_writable(args.output, "problem file")
    problem = random_avi(spec)
    metadata = {
        "seed": spec.seed,
        "gamma_asym": spec.gamma_asym,
        "regularization": spec.regularization,
        "generator_version": GENERATOR_VERSION,
    }
    write_problem(args.output, problem, metadata)
    print(f"wrote {args.output} (n={problem.n}, m={problem.m}, seed={spec.seed})")
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"invalid {what} list '{text}'") from exc
    if not values:
        raise ParseError(f"empty {what} list")
    return values


def cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "size")
    if any(n < 1 for n in sizes):
        raise ParseError("sizes must be at least 1")
    if args.instances < 1:
        raise ParseError("instances must be at least 1")
    solver_names = [tok.strip() for tok in args.solvers.split(",") if tok.strip()]
    if not solver_names:
        raise ParseError("empty solver list")
    for name in solver_names:
        if name not in _SOLVERS:
            raise ParseError(f"unknown solver '{name}' (choose from {sorted(_SOLVERS)})")
    _check_writable(args.output, "benchmark CSV")

    rows = []
    for n in sizes:
        m = 10 * n
        for seed in range(1, args.instances + 1):
            spec = _gen_spec(n=n, m=m, gamma_asym=args.gamma, seed=seed)
            try:
                problem = random_avi(spec)
            except AviSolveError:
                for name in solver_names:
                    rows.append([n, m, args.gamma, seed, name, "Error", 0, 0, 0, 0, 0.0])
                continue
            for name in solver_names:
                start = time.perf_counter()
                try:
                    solution, trace = _SOLVERS[name](problem)
                    wall = time.perf_counter() - start
                    result = [
                        solution.status,
                        solution.iterations,
                        sum(r.inner_qp_iters for r in trace),
                        sum(r.newton_attempted for r in trace),
                        sum(r.newton_accepted for r in trace),
                    ]
                except AviSolveError:
                    wall = time.perf_counter() - start
                    result = ["Error", 0, 0, 0, 0]
                rows.append([n, m, args.gamma, seed, name, *result, wall])
    rows.sort(key=lambda row: (row[0], row[3], row[4]))
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCH_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {args.output} ({len(rows)} rows)")
    return EXIT_OK


def cmd_oracle(args) -> int:
    problem, _ = read_problem(args.problem)
    result = brute_force_solve(problem)
    print(
        json.dumps(
            {
                "x": result.x.tolist(),
                "lambda": result.multipliers.tolist(),
                "active_set": list(result.active_set),
                "strictly_complementary": result.strictly_complementary,
                "certified": result.certified,
            },
            indent=1,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avi-solve",
        description="Solve affine variational inequalities over polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a problem file")
    p_solve.add_argument(
        "--solver", choices=sorted(_SOLVERS), default="dr-daqp", help="solver to run"
    )
    p_solve.add_argument("--rho", type=float, default=None, help="splitting parameter")
    p_solve.add_argument("--eta", type=float, default=None, help="stopping tolerance")
    p_solve.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    p_solve.add_argument(
        "--stab-count",
        type=int,
        default=None,
        help=(
            f"streak length before a KKT attempt (default {SolverSettings.stab_count}); "
            "solve_dr_daqp's docstring states every correction rule"
        ),
    )
    p_solve.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p_solve.add_argument(
        "--reference", default=None, help="JSON file with an 'x' array for distance traces"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random problem file")
    p_gen.add_argument("--n", type=int, required=True, help="number of variables")
    p_gen.add_argument("--m", type=int, required=True, help="number of constraints")
    p_gen.add_argument("--gamma", type=float, required=True, help="asymmetry in [0, 1]")
    p_gen.add_argument("--seed", type=int, required=True, help="generator seed")
    p_gen.add_argument("--reg", type=float, default=0.0, help="identity shift added to H")
    p_gen.add_argument("-o", "--output", required=True, help="output problem file")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark sweep to CSV")
    p_bench.add_argument("--sizes", required=True, help="comma-separated n values")
    p_bench.add_argument("--instances", type=int, required=True, help="seeds per size")
    p_bench.add_argument("--gamma", type=float, default=0.5, help="asymmetry in [0, 1]")
    p_bench.add_argument(
        "--solvers", default="dr-daqp", help="comma-separated subset of dr-daqp,dr,pg"
    )
    p_bench.add_argument("-o", "--output", required=True, help="output CSV")
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="brute-force reference solution")
    p_oracle.add_argument("problem", help="path to a problem file (m <= 16)")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AviSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
