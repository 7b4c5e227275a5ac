"""Per-layer tracing of a solve, from outside the package.

The solver's layers call each other through module-level names
(``avisolve.avi.qp_solve``, ``avisolve.avi.dr_update``, ...).  A
:class:`Tracer` swaps those names for timing wrappers while a traced solve
runs and swaps the originals back afterwards, so no source file changes and
untraced solves pay nothing.

Each wrapped call records a span: layer, start, end, parent span and solve
id (-1 during set-up).  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the durations of its direct
children; self times of all spans in a solve add up to the solve's wall
time.

Where each per-layer metric should show up (layer -> end-to-end metric on
workload) is listed in README.md next to this file.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import avisolve.avi as avi
import avisolve.gen as gen
import avisolve.linalg as linalg
import avisolve.qp as qp
from avisolve import STATUS_EXACT

SOLVE = "avi.solve"
BUILD = "avi.build"
QP = "qp.solve"
DR_UPDATE = "avi.dr_update"
CORRECTION = "avi.correction"
CHECK = "avi.check"
FACTOR_SPD = "linalg.factor_spd"
FACTOR_GENERAL = "linalg.factor_general"
SPD_SOLVE = "linalg.spd_solve"
GEN = "gen"

# Reported per-layer metrics: (name, unit, better).  Times and counts are per
# solve unless the unit says otherwise; counts come from the first traced
# solve of each pool instance, so they repeat exactly for a given seed.
PER_LAYER = [
    ("avi.solve.s", "s/solve", "lower"),
    ("avi.driver_self.s", "s/solve", "lower"),
    ("avi.build.s", "s/solve", "lower"),
    ("avi.dr_update.s", "s/solve", "lower"),
    ("avi.dr_update.calls", "count/solve", "lower"),
    ("avi.correction.s", "s/solve", "lower"),
    ("avi.correction.attempts", "count/solve", "lower"),
    ("avi.correction.accepted", "count/solve", "higher"),
    ("avi.correction.singular", "count/solve", "lower"),
    ("avi.correction.accept_frac", "fraction", "higher"),
    ("avi.check.s", "s/solve", "lower"),
    ("avi.outer_iters", "count/solve", "lower"),
    ("qp.solve.s", "s/solve", "lower"),
    ("qp.calls", "count/solve", "lower"),
    ("qp.adds", "count/solve", "lower"),
    ("qp.drops", "count/solve", "lower"),
    ("qp.us_per_change", "us", "lower"),
    ("qp.us_per_call", "us", "lower"),
    ("qp.noop_frac", "fraction", "higher"),
    ("qp.ledger_mismatch", "count/solve", "lower"),
    ("linalg.factor_spd.s", "s/solve", "lower"),
    ("linalg.factor_spd.calls", "count/solve", "lower"),
    ("linalg.factor_general.s", "s/solve", "lower"),
    ("linalg.factor_general.calls", "count/solve", "lower"),
    ("linalg.spd_solve.s", "s/solve", "lower"),
    ("linalg.spd_solve.calls", "count/solve", "lower"),
    ("gen.s", "s", "lower"),
    ("gen.calls", "count", "lower"),
    ("gen.factor_spd.s", "s", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Per-solve counts that must repeat exactly for every solve of an instance.
COUNTS = (
    "avi.outer_iters",
    "qp.calls",
    "qp.adds",
    "qp.drops",
    "qp.noop",
    "qp.ledger_mismatch",
    "avi.dr_update.calls",
    "avi.correction.attempts",
    "avi.correction.accepted",
    "avi.correction.singular",
    "linalg.factor_spd.calls",
    "linalg.factor_general.calls",
    "linalg.spd_solve.calls",
)


@dataclass(frozen=True)
class SolveRecord:
    """What the benchmark saw of one traced solve, from the public API."""

    instance: int
    iterations: int
    kept_corrections: int  # candidates accepted as iterate or returned Exact
    trace_qp_iters: int  # sum of TraceRecord.inner_qp_iters

    @classmethod
    def of(cls, instance: int, sol, trace) -> SolveRecord:
        """Record of one solve; ``sol`` and ``trace`` are None if it raised."""
        if sol is None:
            return cls(instance, iterations=0, kept_corrections=0, trace_qp_iters=0)
        return cls(
            instance,
            iterations=sol.iterations,
            kept_corrections=sum(r.newton_accepted for r in trace)
            + (sol.status == STATUS_EXACT),
            trace_qp_iters=sum(r.inner_qp_iters for r in trace),
        )


class Tracer:
    """Spans of traced solves, kept in memory until the run ends."""

    def __init__(self):
        self.layers: list[str] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.solve = array("l")
        self.raised: set[int] = set()
        # one row per qp_solve call: solve id, working-set size on entry,
        # working-set changes, active-set size on exit
        self.qp_calls: list[tuple[int, int, int, int]] = []
        self.solve_id = -1
        self._stack = [-1]
        self._solve = self.wrap(SOLVE, avi.solve_dr_daqp)
        spd = self.wrap(FACTOR_SPD, linalg.factor_spd)
        self._patches = [
            (avi, "build_dr_workspace", self.wrap(BUILD, avi.build_dr_workspace)),
            (avi, "qp_solve", self._wrap_qp(avi.qp_solve)),
            (avi, "dr_update", self.wrap(DR_UPDATE, avi.dr_update)),
            (avi, "kkt_active_solve", self.wrap(CORRECTION, avi.kkt_active_solve)),
            (avi, "check_solution", self.wrap(CHECK, avi.check_solution)),
            (avi, "kkt_residual", self.wrap(CHECK, avi.kkt_residual)),
            (avi, "factor_spd", spd),
            (qp, "factor_spd", spd),
            (gen, "factor_spd", spd),
            (avi, "factor_general", self.wrap(FACTOR_GENERAL, linalg.factor_general)),
            (linalg.SpdFactor, "solve", self.wrap(SPD_SOLVE, linalg.SpdFactor.solve)),
            (gen, "random_avi", self.wrap(GEN, gen.random_avi)),
            (gen, "quadratic_game_to_avi", self.wrap(GEN, gen.quadratic_game_to_avi)),
        ]

    def layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn):
        """Return fn recording one span per call under ``layer``."""
        nid = self.layer_id(layer)
        name, start, end, parent, solve = self.name, self.start, self.end, self.parent, self.solve
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            solve.append(self.solve_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_qp(self, qp_solve):
        timed = self.wrap(QP, qp_solve)
        calls = self.qp_calls

        @functools.wraps(qp_solve)
        def traced(ws, linear_term, warm_start=True):
            before = len(ws.working_set) if warm_start else 0
            res = timed(ws, linear_term, warm_start=warm_start)
            calls.append((self.solve_id, before, res.inner_iterations, len(res.active_set)))
            return res

        return traced

    @contextmanager
    def installed(self):
        """Route the package's layer calls through the wrappers."""
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in self._patches]
        for obj, attr, wrapper in self._patches:
            setattr(obj, attr, wrapper)
        try:
            yield
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def solve_dr_daqp(self, solve_id: int, problem):
        """Traced ``solve_dr_daqp``; spans are tagged with ``solve_id``."""
        self.solve_id = solve_id
        try:
            with self.installed():
                return self._solve(problem)
        finally:
            self.solve_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        raised = np.zeros(len(self.start), dtype=bool)
        raised[list(self.raised)] = True
        return {
            "layers": np.array(self.layers),
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "solve": np.asarray(self.solve, dtype=np.int64),
            "raised": raised,
            "qp_calls": np.array(self.qp_calls, dtype=np.int64).reshape(-1, 4),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))


def per_solve_counts(tracer: Tracer, records: list[SolveRecord]) -> dict[str, np.ndarray]:
    """Count vectors indexed by solve id, one entry per traced solve."""
    sp = tracer.arrays()
    n = len(records)
    in_solve = sp["solve"] >= 0

    def spans(layer, extra=True):
        mask = in_solve & (sp["name"] == tracer.layer_id(layer)) & extra
        return np.bincount(sp["solve"][mask], minlength=n)

    sid, before, changes, after = sp["qp_calls"].T
    sid = sid.astype(np.int64)
    net = after - before
    adds = (changes + net) // 2

    def by_solve(values):
        return np.bincount(sid, weights=values, minlength=n).astype(np.int64)

    return {
        "avi.outer_iters": np.array([r.iterations for r in records], dtype=np.int64),
        "qp.calls": by_solve(np.ones_like(changes)),
        "qp.adds": by_solve(adds),
        "qp.drops": by_solve(changes - adds),
        "qp.changes": by_solve(changes),
        "qp.noop": by_solve(changes == 0),
        "qp.ledger_mismatch": by_solve((changes + net) % 2),
        "avi.dr_update.calls": spans(DR_UPDATE),
        "avi.correction.attempts": spans(CORRECTION),
        "avi.correction.accepted": np.array(
            [r.kept_corrections for r in records], dtype=np.int64
        ),
        "avi.correction.singular": spans(CORRECTION, sp["raised"]),
        "linalg.factor_spd.calls": spans(FACTOR_SPD),
        "linalg.factor_general.calls": spans(FACTOR_GENERAL),
        "linalg.spd_solve.calls": spans(SPD_SOLVE),
    }


def consistency_failures(counts: dict[str, np.ndarray], records: list[SolveRecord]) -> dict[int, str]:
    """Solves whose counts break the ledger or differ from an earlier repeat.

    adds + drops, summed over a solve's QP calls, must equal the sum of the
    solver's own ``inner_qp_iters``; and every solve of one instance must
    produce identical counts.  Returns a reason per failing solve id.
    """
    problems = {}
    first: dict[int, tuple[int, ...]] = {}
    for k, rec in enumerate(records):
        reasons = []
        if counts["qp.changes"][k] != rec.trace_qp_iters:
            reasons.append(
                f"qp adds+drops {counts['qp.changes'][k]} != "
                f"trace inner_qp_iters {rec.trace_qp_iters}"
            )
        row = tuple(int(counts[c][k]) for c in COUNTS)
        if first.setdefault(rec.instance, row) != row:
            reasons.append(f"counts of instance {rec.instance} did not repeat")
        if reasons:
            problems[k] = "; ".join(reasons)
    return problems


def layer_metrics(tracer: Tracer, records: list[SolveRecord], counts) -> dict[str, float]:
    """Per-layer metrics of a traced run, except the tracing overhead."""
    sp = tracer.arrays()
    n = len(records)
    self_t = self_times(sp["parent"], sp["start"], sp["end"])
    dur = sp["end"] - sp["start"]
    in_solve = sp["solve"] >= 0

    def layer(name):
        return sp["name"] == tracer.layer_id(name)

    def per_solve(name, times=self_t):
        return float(times[in_solve & layer(name)].sum()) / n

    # counts: mean over pool instances, taking each instance's first solve
    first_of: dict[int, int] = {}
    for k, rec in enumerate(records):
        first_of.setdefault(rec.instance, k)
    first = sorted(first_of.values())

    def mean_count(key):
        return float(counts[key][first].mean())

    qp_total = float(dur[in_solve & layer(QP)].sum())
    attempts = int(counts["avi.correction.attempts"][first].sum())
    setup = ~in_solve
    return {
        "avi.solve.s": per_solve(SOLVE, dur),
        "avi.driver_self.s": per_solve(SOLVE),
        "avi.build.s": per_solve(BUILD),
        "avi.dr_update.s": per_solve(DR_UPDATE),
        "avi.dr_update.calls": mean_count("avi.dr_update.calls"),
        "avi.correction.s": per_solve(CORRECTION),
        "avi.correction.attempts": mean_count("avi.correction.attempts"),
        "avi.correction.accepted": mean_count("avi.correction.accepted"),
        "avi.correction.singular": mean_count("avi.correction.singular"),
        "avi.correction.accept_frac": (
            int(counts["avi.correction.accepted"][first].sum()) / attempts if attempts else 0.0
        ),
        "avi.check.s": per_solve(CHECK),
        "avi.outer_iters": mean_count("avi.outer_iters"),
        "qp.solve.s": per_solve(QP),
        "qp.calls": mean_count("qp.calls"),
        "qp.adds": mean_count("qp.adds"),
        "qp.drops": mean_count("qp.drops"),
        "qp.us_per_change": 1e6 * qp_total / int(counts["qp.changes"].sum()),
        "qp.us_per_call": 1e6 * qp_total / int(counts["qp.calls"].sum()),
        "qp.noop_frac": float(counts["qp.noop"][first].sum() / counts["qp.calls"][first].sum()),
        "qp.ledger_mismatch": mean_count("qp.ledger_mismatch"),
        "linalg.factor_spd.s": per_solve(FACTOR_SPD),
        "linalg.factor_spd.calls": mean_count("linalg.factor_spd.calls"),
        "linalg.factor_general.s": per_solve(FACTOR_GENERAL),
        "linalg.factor_general.calls": mean_count("linalg.factor_general.calls"),
        "linalg.spd_solve.s": per_solve(SPD_SOLVE),
        "linalg.spd_solve.calls": mean_count("linalg.spd_solve.calls"),
        "gen.s": float(dur[setup & layer(GEN)].sum()),
        "gen.calls": float(np.count_nonzero(setup & layer(GEN))),
        "gen.factor_spd.s": float(self_t[setup & layer(FACTOR_SPD)].sum()),
    }
