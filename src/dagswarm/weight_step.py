"""One parameter-search round over the expert pool.

Experts are scored by contribution: sample M random assignments into the
best-found DAG, execute and score each, then credit every expert with the
frequency-weighted mean utility of the assignments it appeared in. Those
contribution scores drive a PSO step over the expert parameter vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .executor import Assignment
from .graph import DagStructure
from .pso import PsoHyperparams, Swarm, pso_step
from .rng import RngFactory
from .utilities import UtilityFunction, evaluate_candidates

_REPAIR_PASSES = 8


def sample_assignments(
    dag: DagStructure, pool_size: int, M: int, rng: np.random.Generator
) -> list[Assignment]:
    """M assignments with uniform slots, repaired so every expert appears.

    Repair replaces a random slot of a random assignment for each absent
    expert; a bounded number of passes resolves evictions. Repair only
    applies when M * n can cover the pool.
    """
    if pool_size < 1 or M < 1:
        raise ValueError("pool_size and M must be >= 1")
    slots = rng.integers(pool_size, size=(M, dag.n))
    if M * dag.n >= pool_size:
        for _ in range(_REPAIR_PASSES):
            absent = np.flatnonzero(np.bincount(slots.ravel(), minlength=pool_size) == 0)
            if absent.size == 0:
                break
            for expert in absent:
                slots[rng.integers(M), rng.integers(dag.n)] = expert
    return [Assignment(tuple(row)) for row in slots.tolist()]


def assignment_counts(assignments: list[Assignment], pool_size: int) -> np.ndarray:
    """counts[i, j] = occurrences of expert i in assignment j."""
    counts = np.zeros((pool_size, len(assignments)), dtype=int)
    experts = [expert for assignment in assignments for expert in assignment.slots]
    columns = np.repeat(np.arange(len(assignments)), [len(assignment) for assignment in assignments])
    np.add.at(counts, (np.array(experts, dtype=np.intp), columns), 1)
    return counts


def contribution_scores(
    assignments: list[Assignment], utilities, pool_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-weighted mean utility per expert.

    Experts absent from every assignment get the plain mean of all
    utilities, a neutral value for the subsequent ranking.
    """
    if not assignments or len(assignments) != len(utilities):
        raise ValueError("assignments and utilities must be non-empty and equal length")
    utilities = np.asarray(utilities, dtype=float)
    counts = assignment_counts(assignments, pool_size)
    totals = counts.sum(axis=1)
    weighted = counts @ utilities
    scores = np.where(totals > 0, weighted / np.maximum(totals, 1), utilities.mean())
    return scores, counts


@dataclass
class ContributionReport:
    """Everything the contribution scoring saw in one weight round."""

    assignments: list[Assignment]
    utilities: list[float]
    counts: np.ndarray
    scores: np.ndarray


def weight_step(
    experts: Swarm,
    dag_best: DagStructure,
    utility: UtilityFunction,
    hp: PsoHyperparams,
    M: int,
    rng: RngFactory,
    iteration: int = 0,
) -> tuple[Swarm, ContributionReport]:
    """Score experts by contribution on the best DAG, then advance them."""
    pool = experts.positions
    assignments = sample_assignments(dag_best, len(pool), M, rng.stream("assignments", iteration))
    utilities = evaluate_candidates(utility, [(dag_best, assignment, pool) for assignment in assignments], "assignment")
    scores, counts = contribution_scores(assignments, utilities, len(pool))
    experts = pso_step(experts, scores, hp, rng.stream("weight_pso", iteration))
    return experts, ContributionReport(assignments, utilities, counts, scores)
