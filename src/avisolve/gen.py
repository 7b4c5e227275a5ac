"""Random problem generation and structured example sources.

The random family mixes a normalized Gram matrix with a normalized skew
matrix:

    H = (1 - gamma) * Ms'Ms / ||Ms'Ms||_F
        + gamma * (Ma' - Ma) / ||Ma' - Ma||_F
        + regularization * I

with all raw entries standard normal.  gamma in [0, 1] controls asymmetry:
gamma = 0 gives a symmetric positive semidefinite H (an ordinary QP), while
gamma = 1 gives a purely skew H, which violates the positive definiteness
assumption unless ``regularization`` lifts it (use regularization = 1 to get
the "skew plus identity" regime).

Feasibility is built in: b = A x0 + u with u uniform on [0.1, 1.1], so the
drawn point x0 satisfies A x0 <= b - 0.1 elementwise.

Determinism: each GenSpec maps to exactly one problem.  The stream is a
PCG64 generator seeded with ``seed`` and consumed in a fixed order (Ms, Ma,
A, f, x0, u); changing that order would silently change every benchmark
instance, so it is pinned here and recorded as GENERATOR_VERSION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .avi import AviProblem
from .errors import AssumptionViolated, DimensionMismatch, NotPositiveDefinite
from .linalg import factor_spd

__all__ = [
    "GENERATOR_VERSION",
    "GenSpec",
    "QuadraticGame",
    "generator_draws",
    "random_avi",
    "quadratic_game_to_avi",
    "nondegenerate_instances",
]

GENERATOR_VERSION = "1"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance; fully determines the problem."""

    n: int
    m: int
    gamma_asym: float
    seed: int
    regularization: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not 0.0 <= self.gamma_asym <= 1.0:
            raise ValueError("gamma_asym must lie in [0, 1]")
        if not 0.0 <= self.regularization < np.inf:
            raise ValueError("regularization must be finite and nonnegative")


def generator_draws(spec: GenSpec) -> dict[str, np.ndarray]:
    """Raw pseudo-random streams for a spec, in the pinned draw order.

    Exposed so tests can re-check derived quantities (e.g. the strict
    feasibility margin of x0) against the generator's own draws.
    """
    rng = np.random.default_rng(spec.seed)
    return {
        "ms": rng.standard_normal((spec.n, spec.n)),
        "ma": rng.standard_normal((spec.n, spec.n)),
        "a": rng.standard_normal((spec.m, spec.n)),
        "f": rng.standard_normal(spec.n),
        "x0": rng.standard_normal(spec.n),
        "u": rng.uniform(0.1, 1.1, spec.m),
    }


def _normalized(mat: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(mat, "fro")
    if norm == 0.0:
        return np.zeros_like(mat)  # n = 1 skew case
    return mat / norm


def random_avi(spec: GenSpec) -> AviProblem:
    """Generate one instance; deterministic per spec.

    Raises AssumptionViolated when H + H' fails the positive definite
    factorization, which happens exactly when the symmetric content
    (1 - gamma) term plus regularization is too weak (e.g. gamma = 1 with
    regularization 0).
    """
    draws = generator_draws(spec)
    gram = draws["ms"].T @ draws["ms"]
    gram = 0.5 * (gram + gram.T)  # enforce exact symmetry of the Gram part
    skew = draws["ma"].T - draws["ma"]
    H = (1.0 - spec.gamma_asym) * _normalized(gram) + spec.gamma_asym * _normalized(skew)
    if spec.regularization:
        H = H + spec.regularization * np.eye(spec.n)
    try:
        factor_spd(H + H.T)
    except NotPositiveDefinite as exc:
        raise AssumptionViolated(
            f"generated H + H' is not positive definite (gamma={spec.gamma_asym}, "
            f"regularization={spec.regularization})"
        ) from exc
    b = draws["a"] @ draws["x0"] + draws["u"]
    return AviProblem(H=H, f=draws["f"], A=draws["a"], b=b)


@dataclass
class QuadraticGame:
    """N-player game with quadratic costs and shared polyhedral constraints.

    blocks[i][j] is player i's cost coupling with player j's decision
    (shape n_i x n_j); linear[i] is player i's linear cost term.  The
    constraints A x <= b act on the stacked decision vector.  Pass A = None
    for an unconstrained game.
    """

    blocks: list
    linear: list
    A: np.ndarray | None = None
    b: np.ndarray | None = None

    @property
    def player_count(self) -> int:
        return len(self.linear)

    @property
    def dims(self) -> list[int]:
        return [np.asarray(q).shape[0] for q in self.linear]


def quadratic_game_to_avi(game: QuadraticGame) -> AviProblem:
    """Stack the per-player first-order conditions into one AVI.

    Block row i of H is [Q_i1 ... Q_iN] with the diagonal block symmetrized
    (only its symmetric part enters player i's gradient).  The game has a
    unique variational equilibrium exactly when H + H' is positive
    definite; violations raise AssumptionViolated.
    """
    count = game.player_count
    if len(game.blocks) != count or any(len(row) != count for row in game.blocks):
        raise DimensionMismatch("blocks must form an N x N grid matching linear terms")
    dims = game.dims
    total = sum(dims)
    H = np.zeros((total, total))
    offsets = np.concatenate([[0], np.cumsum(dims)])
    for i in range(count):
        for j in range(count):
            block = np.asarray(game.blocks[i][j], dtype=float)
            if block.shape != (dims[i], dims[j]):
                raise DimensionMismatch(
                    f"block ({i},{j}) has shape {block.shape}, expected {(dims[i], dims[j])}"
                )
            if i == j:
                block = 0.5 * (block + block.T)
            H[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = block
    f = np.concatenate([np.asarray(q, dtype=float) for q in game.linear])
    if game.A is None:
        A = np.zeros((0, total))
        b = np.zeros(0)
    else:
        A = np.asarray(game.A, dtype=float)
        b = np.asarray(game.b, dtype=float)
    try:
        factor_spd(H + H.T)
    except NotPositiveDefinite as exc:
        raise AssumptionViolated("game pseudo-gradient matrix fails positive definiteness") from exc
    return AviProblem(H=H, f=f, A=A, b=b)


def nondegenerate_instances(
    n: int,
    m: int,
    gamma_asym: float,
    count: int,
    start_seed: int = 1,
    regularization: float = 0.0,
):
    """Oracle-verified, strictly complementary instances for test suites.

    Walks seeds upward from start_seed, keeping instances whose brute-force
    solution is certified and strictly complementary (min active multiplier
    and min inactive slack both above 1e-6); degenerate draws are replaced
    by the next seed.  Returns a list of (GenSpec, AviProblem, OracleResult)
    triples of length ``count``.  Requires m <= 16 (oracle limit).
    """
    from .errors import NoCertificate
    from .oracle import brute_force_solve  # local import; oracle depends on avi

    out = []
    seed = start_seed
    while len(out) < count:
        spec = GenSpec(n=n, m=m, gamma_asym=gamma_asym, seed=seed, regularization=regularization)
        seed += 1
        try:
            problem = random_avi(spec)
            result = brute_force_solve(problem)
        except (AssumptionViolated, NoCertificate):
            continue
        if not (result.certified and result.strictly_complementary):
            continue
        out.append((spec, problem, result))
    return out
