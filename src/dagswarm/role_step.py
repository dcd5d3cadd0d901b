"""One structure-search round over a swarm of adjacency matrices.

Each matrix is decoded once, executed with the identity assignment and
scored; optional sparsity shaping (threshold pruning before decoding, or an
L1 penalty on the score) steers the search toward fewer edges. The swarm
then advances by one PSO step and positions are clamped back to [0, 1] to
keep the likelihood reading of the entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .executor import Assignment
from .graph import DagStructure, decode_dag, prune_threshold
from .pso import PsoHyperparams, Swarm, pso_step
from .rng import RngFactory
from .utilities import UtilityFunction, evaluate_candidates

SPARSITY_MODES = ("none", "threshold", "l1")


@dataclass(frozen=True)
class SparsityConfig:
    mode: str = "none"
    tau: float = 0.0
    l1_coeff: float = 0.0

    def __post_init__(self):
        if self.mode not in SPARSITY_MODES:
            raise ValueError(f"sparsity mode must be one of {SPARSITY_MODES}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if not 0.0 <= self.l1_coeff < math.inf:
            raise ValueError(f"l1_coeff must be finite and >= 0, got {self.l1_coeff!r}")


def shaped_utility(raw: float, A: np.ndarray, cfg: SparsityConfig) -> float:
    """L1 mode subtracts a sparsity penalty from the raw utility."""
    if cfg.mode == "l1":
        return raw - cfg.l1_coeff * float(np.sum(np.abs(A)))
    return raw


@dataclass
class RoleRecord:
    """Best structure seen so far: the exact DAG its score used and the raw utility."""

    dag: DagStructure
    utility: float


def role_step(
    swarm: Swarm,
    pool,
    assignment: Assignment,
    utility: UtilityFunction,
    sparsity: SparsityConfig,
    hp: PsoHyperparams,
    top_p: float,
    rng: RngFactory,
    iteration: int = 0,
    record: RoleRecord | None = None,
) -> tuple[Swarm, RoleRecord]:
    """Decode the whole swarm, score it, advance it; track the best raw utility.

    The record keeps the decoded DAG that produced its score (never
    re-decoded) so downstream consumers see exactly the structure that was
    evaluated. Threshold pruning applies to a decode-time view only; stored
    matrices are never mutated by it.
    """
    dags = []
    for matrix, stream in zip(swarm.positions, rng.streams("decode", iteration, count=len(swarm))):
        view = prune_threshold(matrix, sparsity.tau) if sparsity.mode == "threshold" else matrix
        dags.append(decode_dag(view, top_p, stream))
    raws = evaluate_candidates(utility, [(dag, assignment, pool) for dag in dags], "particle")
    shaped_scores = []
    for matrix, dag, raw in zip(swarm.positions, dags, raws):
        shaped_scores.append(shaped_utility(raw, matrix, sparsity))
        # A NaN score never beats a record, and a NaN record gives way to any later score.
        if record is None or raw > record.utility or math.isnan(record.utility):
            record = RoleRecord(dag, raw)

    swarm = pso_step(swarm, shaped_scores, hp, rng.stream("role_pso", iteration))
    np.clip(swarm.positions, 0.0, 1.0, out=swarm.positions)
    return swarm, record
