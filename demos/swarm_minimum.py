"""Minimize a 2-d quadratic bowl with the swarm step.

Shows the bare optimizer loop: score the particles, hand the scores to
``pso_step``, repeat. The record (global best) never regresses because
records update from the scores as given, before any particle moves.
"""
from __future__ import annotations

import numpy as np

from dagswarm import PsoHyperparams, RngFactory, Swarm, pso_step

CENTER = np.array([0.62, 0.31])


def bowl(x: np.ndarray) -> float:
    return -float(np.sum((x - CENTER) ** 2))


def main() -> None:
    rng = RngFactory(seed=1)
    swarm = Swarm.from_positions(rng.stream("init_matrices").uniform(0, 1, (8, 2)))

    print(f"target {CENTER.tolist()}, 8 particles, 60 steps")
    for t in range(60):
        scores = [bowl(x) for x in swarm.positions]
        swarm = pso_step(swarm, scores, PsoHyperparams(), rng.stream("role_pso", t))
        if t % 10 == 0:
            print(
                f"step {t:2d}  best particle {int(np.argmax(scores))}  "
                f"record {swarm.global_best_score:+.6f}  worst {swarm.global_worst_score:+.6f}"
            )

    print(f"final record {swarm.global_best_score:+.6f} at {swarm.global_best.round(4).tolist()}")
    print("the record only tightens; the worst-seen score anchors the repulsion term")


if __name__ == "__main__":
    main()
