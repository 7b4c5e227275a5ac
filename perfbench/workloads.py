"""Benchmark workloads: seeded pools of AVI instances.

Each workload is a pool of instances drawn from the run's ``--seed``.  The
same seed always yields byte-identical instances, so per-layer counts repeat
exactly between runs.  Instances are built through the public generator
functions, looked up on ``avisolve.gen`` at call time so that a traced run
can time them.

Why these three (see README.md for the layer each one isolates):

* ``vertex`` - every solution is a full vertex, so the inner QP does about
  a thousand working-set changes per solve and dominates solve time.
* ``game``   - a quadratic game with badly scaled rows; many outer
  iterations of warm no-op QP calls, with the workspace build, the KKT
  corrections and the splitting update all visible.
* ``small``  - tiny instances where per-call Python overhead dominates, so a
  change that helps large n at the expense of small n shows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import avisolve.gen as avgen
from avisolve import AviProblem, GenSpec, QuadraticGame

# Game shape: players, variables per player, private rows per player,
# shared rows, and the log10 range of the per-row unit scales.
GAME_PLAYERS = 4
GAME_DIM = 50
GAME_PRIVATE_ROWS = 15
GAME_SHARED_ROWS = 40
GAME_LOG_SCALE = 2.0


def instance_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for instance ``index`` of run seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _random(n: int, m: int, gamma: float) -> Callable[[int, int], AviProblem]:
    def build(seed: int, index: int) -> AviProblem:
        return avgen.random_avi(
            GenSpec(n=n, m=m, gamma_asym=gamma, seed=instance_seed(seed, index))
        )

    return build


def quadratic_game(seed: int, index: int) -> AviProblem:
    """One quadratic game, reduced to an AVI by ``quadratic_game_to_avi``.

    Player i's own block is SPD (``M'M / d + 0.1 I``); the coupling between
    players i < j is ``C`` in block (i, j) and ``-C'`` in block (j, i), so
    the coupling is skew and H + H' is block-diagonal positive definite by
    construction.  Each player has private rows on its own variables; the
    shared rows touch every variable.  The right-hand side leaves a drawn
    point 0.1 to 1.1 inside every row, and each row (with its bound) is then
    multiplied by 10**U(-2, 2), which leaves the feasible set unchanged.
    """
    rng = np.random.default_rng(instance_seed(seed, index))
    d, count = GAME_DIM, GAME_PLAYERS
    n = d * count
    blocks = [[None] * count for _ in range(count)]
    for i in range(count):
        M = rng.standard_normal((d, d))
        blocks[i][i] = M.T @ M / d + 0.1 * np.eye(d)
    for i in range(count):
        for j in range(i + 1, count):
            C = rng.standard_normal((d, d)) / np.sqrt(d)
            blocks[i][j] = C
            blocks[j][i] = -C.T
    linear = [rng.standard_normal(d) for _ in range(count)]
    rows = []
    for i in range(count):
        private = np.zeros((GAME_PRIVATE_ROWS, n))
        private[:, i * d : (i + 1) * d] = rng.standard_normal((GAME_PRIVATE_ROWS, d))
        rows.append(private)
    rows.append(rng.standard_normal((GAME_SHARED_ROWS, n)))
    A = np.vstack(rows)
    x0 = rng.standard_normal(n)
    b = A @ x0 + rng.uniform(0.1, 1.1, A.shape[0])
    scale = 10.0 ** rng.uniform(-GAME_LOG_SCALE, GAME_LOG_SCALE, A.shape[0])
    game = QuadraticGame(blocks=blocks, linear=linear, A=A * scale[:, None], b=b * scale)
    return avgen.quadratic_game_to_avi(game)


@dataclass(frozen=True)
class Workload:
    """A named instance family and how many instances one run draws."""

    name: str
    pool: int
    build: Callable[[int, int], AviProblem]

    def instances(self, seed: int) -> list[AviProblem]:
        return [self.build(seed, index) for index in range(self.pool)]


# Pool sizes: enough distinct instances that the run's median does not hinge
# on a few draws, few enough that one pass fits in a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("vertex", pool=24, build=_random(200, 2000, 0.5)),
        Workload("game", pool=64, build=quadratic_game),
        Workload("small", pool=128, build=_random(10, 100, 0.5)),
    )
}
