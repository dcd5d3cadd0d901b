"""Particle swarm step over fixed-shape real tensors.

One velocity rule serves both search spaces: adjacency matrices and expert
parameter vectors. Each particle blends four pulls (inertia, personal best,
global best, repulsion from the global worst) with per-particle scalar
randomness, normalized so the weights sum to one, then takes a step of
length ``step_length`` along the blended velocity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hyperparameter presets searched in the reference experiments.
GRID = {
    "inertia": (0.1, 0.2, 0.3),
    "cognitive": (0.1, 0.2, 0.3, 0.4, 0.5),
    "social": (0.2, 0.3, 0.4, 0.5, 0.6),
    "repel": (0.01, 0.05, 0.1),
    "step_length": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
}

_REDRAW_LIMIT = 8


@dataclass(frozen=True)
class PsoHyperparams:
    step_length: float = 0.8
    inertia: float = 0.2
    cognitive: float = 0.3
    social: float = 0.5
    repel: float = 0.05

    def __post_init__(self):
        coeffs = (self.inertia, self.cognitive, self.social, self.repel)
        if any(c < 0 for c in coeffs):
            raise ValueError("pso coefficients must be >= 0")
        if not any(c > 0 for c in coeffs):
            raise ValueError("at least one pso coefficient must be > 0")
        if self.step_length <= 0:
            raise ValueError("step_length must be > 0")


def sample_grid_hyperparams(rng: np.random.Generator) -> PsoHyperparams:
    """Uniform draw from the preset grid."""
    pick = {name: values[rng.integers(len(values))] for name, values in GRID.items()}
    return PsoHyperparams(**pick)


@dataclass
class Swarm:
    """N particles as stacked arrays: row i of every array belongs to particle i.

    ``positions``, ``velocities`` and ``personal_best`` have shape
    ``(N, *shape)`` and ``personal_best_scores`` has shape ``(N,)``. The
    global best and worst stay ``None`` until a score first sets them.
    """

    positions: np.ndarray
    velocities: np.ndarray
    personal_best: np.ndarray
    personal_best_scores: np.ndarray
    global_best: np.ndarray | None = None
    global_best_score: float = -np.inf
    global_worst: np.ndarray | None = None
    global_worst_score: float = np.inf

    @classmethod
    def from_positions(cls, positions) -> "Swarm":
        """Particles at rest at ``positions``; a ragged list raises ``ValueError``."""
        pos = np.array(positions, dtype=float)
        return cls(pos, np.zeros_like(pos), pos.copy(), np.full(len(pos), -np.inf))

    def __len__(self) -> int:
        return len(self.positions)


def _draw_coefficients(hp: PsoHyperparams, rng) -> tuple[float, float, float, float, float]:
    # C > 0 required by the normalization; all-zero draws are retried.
    for _ in range(_REDRAW_LIMIT):
        r_v, r_p, r_g, r_w = (float(x) for x in rng.random(4))
        a_v = r_v * hp.inertia
        a_p = r_p * hp.cognitive
        a_g = r_g * hp.social
        a_w = r_w * hp.repel
        c = a_v + a_p + a_g + a_w
        if c > 0.0:
            return a_v, a_p, a_g, a_w, c
    raise ArithmeticError("pso coefficient draw degenerate: C == 0 after retries")


def _coefficients(hp: PsoHyperparams, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle pull weights ``(n, 4)`` and their sums ``(n,)``.

    One draw call serves the whole swarm. If any row sums to zero, the
    generator is rewound and the rows are drawn one at a time with retries,
    so the draws match a particle-by-particle loop in every case.
    """
    state = rng.bit_generator.state
    a = rng.random((n, 4)) * np.array([hp.inertia, hp.cognitive, hp.social, hp.repel])
    c = a[:, 0] + a[:, 1] + a[:, 2] + a[:, 3]
    if np.all(c > 0.0):
        return a, c
    rng.bit_generator.state = state
    rows = np.array([_draw_coefficients(hp, rng) for _ in range(n)])
    return rows[:, :4], rows[:, 4]


def pso_step(swarm: Swarm, scores, hp: PsoHyperparams, rng: np.random.Generator) -> Swarm:
    """Advance every particle once; the input swarm is left unchanged.

    ``scores[i]`` is the utility of ``swarm.positions[i]``. Personal and
    global records are updated from those scored positions first (strictly
    better only, NaN never wins, ties go to the lowest index); all particles
    then move in parallel from the updated global best and worst.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(swarm),):
        raise ValueError("scores and particles length mismatch")
    if not len(swarm):
        raise ValueError("empty swarm")
    x = swarm.positions

    improved = scores > swarm.personal_best_scores
    personal_best = swarm.personal_best.copy()
    personal_best[improved] = x[improved]
    personal_best_scores = np.where(improved, scores, swarm.personal_best_scores)

    best, best_score = swarm.global_best, swarm.global_best_score
    worst, worst_score = swarm.global_worst, swarm.global_worst_score
    nan = np.isnan(scores)
    top = int(np.argmax(np.where(nan, -np.inf, scores)))
    if scores[top] > best_score:
        best, best_score = x[top].copy(), float(scores[top])
    bottom = int(np.argmin(np.where(nan, np.inf, scores)))
    if scores[bottom] < worst_score:
        worst, worst_score = x[bottom].copy(), float(scores[bottom])
    if best is None or worst is None:
        raise ValueError("no finite score to set the global best and worst")

    a, c = _coefficients(hp, len(swarm), rng)
    a_v, a_p, a_g, a_w, c = (col.reshape((-1,) + (1,) * (x.ndim - 1)) for col in (*a.T, c))
    velocities = (
        a_v * swarm.velocities
        + a_p * (personal_best - x)
        + a_g * (best - x)
        - a_w * (worst - x)
    ) / c
    positions = x + hp.step_length * velocities
    return Swarm(
        positions, velocities, personal_best, personal_best_scores,
        best, best_score, worst, worst_score,
    )
