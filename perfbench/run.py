"""Solve benchmark for avisolve.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {vertex,game,small} --seed N \
        --seconds S --trace {0,1}

Builds the workload's instance pool from the seed, solves the pool with
``solve_dr_daqp`` one instance at a time (closed loop) until ``--seconds``
have passed and every instance was solved at least once, and checks every
solution with a row-normalised KKT test of its own.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates an untraced
and a traced solve of each instance and reports the per-layer metrics, the
tracing overhead, and writes every span to perfbench/out/.

BLAS is pinned to one thread before numpy loads.  The package is imported
from ``src/`` of the checkout, never from an installed copy; without it the
script exits with an error and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed this many times in fresh processes, besides the run's own.
SETUP_PROBES = 4


def _import_package():
    if not (SRC / "avisolve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no avisolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import avisolve

    if Path(avisolve.__file__).resolve().parent != SRC / "avisolve":
        sys.exit(f"perfbench: imported avisolve from {avisolve.__file__}, not {SRC}")
    return avisolve


def parse_args():
    parser = argparse.ArgumentParser(description="avisolve solve benchmark")
    parser.add_argument("--workload", required=True, choices=("vertex", "game", "small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true", help="build the pool, print set-up seconds, exit"
    )
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(args, np, scipy) -> dict:
    """What a result depends on besides the code: machine, versions, seed."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "avisolve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # a plain source checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except OSError:
            pass
    return {
        "commit": commit or "unknown",
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(args) -> float:
    """Set-up seconds of a fresh process doing only import and generation."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main() -> int:
    args = parse_args()
    avisolve = _import_package()
    import numpy as np
    import scipy
    from layers import (
        PER_LAYER,
        SolveRecord,
        Tracer,
        consistency_failures,
        layer_metrics,
        per_solve_counts,
    )
    from verify import VERIFY_TOL, kkt_violation, verified
    from workloads import WORKLOADS

    defaults = avisolve.SolverSettings()  # the defaults every timed solve uses
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is None:
        pool = workload.instances(args.seed)
    else:
        with tracer.installed():
            pool = workload.instances(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    env = environment(args, np, scipy)
    OUT.mkdir(exist_ok=True)
    setups = [setup_s]
    if tracer is None:
        setups += [setup_probe(args) for _ in range(SETUP_PROBES)]

    failures: dict[str, str] = {}  # attempt -> reason
    first_result: dict[int, tuple] = {}  # instance -> (iterations, active set)

    def attempt(label, index, solve):
        """Time one solve of pool[index] and check it."""
        problem = pool[index]
        start = time.perf_counter()
        try:
            sol, trace = solve(problem)
        except Exception:
            seconds = time.perf_counter() - start
            failures[label] = f"instance {index} raised\n{traceback.format_exc()}"
            return seconds, None, None
        seconds = time.perf_counter() - start
        key = (sol.iterations, sol.active_set)
        if not verified(problem, sol):
            own = avisolve.check_solution(
                problem, sol.x, sol.multipliers, defaults.eps_primal, defaults.eps_dual
            )
            failures[label] = (
                f"instance {index}: status {sol.status}, failed the KKT check with "
                f"row-normalised violation {kkt_violation(problem, sol.x, sol.multipliers):.3g} "
                f"(limit {VERIFY_TOL:g}); the solver's own check_solution "
                f"{'accepts' if own else 'rejects'} it"
            )
        elif first_result.setdefault(index, key) != key:
            failures[label] = f"instance {index}: a repeat solve returned another result"
        return seconds, sol, trace

    def traced_solve(solve_id):
        return lambda problem: tracer.solve_dr_daqp(solve_id, problem)

    avisolve.solve_dr_daqp(pool[0])  # warm-up, untimed
    times, traced_times, records = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while k < len(pool) or time.perf_counter() < deadline:
        index = k % len(pool)
        seconds, _, _ = attempt(f"solve {k}", index, avisolve.solve_dr_daqp)
        times.append(seconds)
        if tracer is not None:
            solve_id = len(records)
            seconds, sol, trace = attempt(f"traced {solve_id}", index, traced_solve(solve_id))
            traced_times.append(seconds)
            records.append(SolveRecord.of(index, sol, trace))
        k += 1
    wall = time.perf_counter() - start

    if tracer is None:
        metrics = {
            "solve_ms_p50": (float(np.median(times)) * 1e3, "ms"),
            "solve_ms_p90": (float(np.percentile(times, 90)) * 1e3, "ms"),
            "solves_per_s": ((len(times) - len(failures)) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        counts = per_solve_counts(tracer, records)
        for solve_id, reason in consistency_failures(counts, records).items():
            failures.setdefault(f"traced {solve_id}", reason)
        layers = layer_metrics(tracer, records, counts)
        untraced_ms = float(np.median(times)) * 1e3
        layers["trace.overhead_ms"] = float(np.median(traced_times)) * 1e3 - untraced_ms
        layers["trace.overhead_frac"] = layers["trace.overhead_ms"] / untraced_ms
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    result = {
        "correct": not failures,
        "attempted": len(times) + len(traced_times),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for label, reason in failures.items():
        print(f"perfbench: FAILED {label}: {reason}", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "failures": failures, **result}, indent=1)
    )
    print("perfbench-env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
