"""Benchmark workloads: fixed configs whose inputs derive from a seed.

Each workload is a closed loop with one caller: ``optimize`` is called,
and the next call starts only after the previous one returned. Every call
gets a freshly built utility (and, remotely, a fresh evaluator), so no state
a later version might cache survives from one call to the next; a
researcher pays for one cold ``optimize`` per batch job.

``patience`` equals ``max_iterations`` in every config, so no run stops
early and every call does the same amount of work. perfbench/README.md
says why each workload was chosen.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from dagswarm import DatasetUtility, RemoteEvaluator, RngFactory, build_utility, config_from_dict


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    checkpoint: bool = False
    remote: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "affine_full",
            {
                "mode": "full",
                "n_experts": 10,
                "matrix_swarm_size": 10,
                "assignments_per_step": 10,
                "max_iterations": 20,
                "patience": 20,
                "utility_spec": {"name": "affine_target", "target": "chain", "n": 10, "dim": 2, "points": 16},
            },
            checkpoint=True,
        ),
        Workload(
            "decode_role",
            {
                "mode": "role_only",
                "n_experts": 4,
                "matrix_swarm_size": 64,
                "max_iterations": 50,
                "patience": 50,
                "utility_spec": {"name": "hidden_dag", "target": "star", "n": 4},
            },
        ),
        Workload(
            "remote_echo",
            {
                "mode": "role_only",
                "n_experts": 4,
                "matrix_swarm_size": 4,
                "max_iterations": 3,
                "patience": 3,
                # Documentation only: the dataset utility is built from generated items below.
                "utility_spec": {"name": "dataset"},
            },
            remote=True,
        ),
    )
}

DATASET_ITEMS = 8


def dataset_items(seed: int) -> list[dict]:
    """Arithmetic questions drawn from the seed; the echo endpoint never answers them right."""
    draw = random.Random(seed)
    items = []
    for _ in range(DATASET_ITEMS):
        a, b = draw.randint(10, 99), draw.randint(10, 99)
        items.append({"input": f"What is {a} + {b}?", "answer": str(a + b)})
    return items


def build(workload: Workload, seed: int, endpoint: str | None = None):
    """Return (RunConfig, utility) for one ``optimize`` call on ``seed``."""
    cfg = config_from_dict({**workload.config, "seed": seed})
    if workload.remote:
        if endpoint is None:
            raise ValueError(f"{workload.name} needs an endpoint")
        utility = DatasetUtility(dataset_items(seed), RemoteEvaluator(endpoint))
    else:
        utility = build_utility(cfg.utility_spec, RngFactory(seed).stream("task"))
    return cfg, utility


def expected_calls(cfg, utility, ran_role: bool, ran_weight: bool) -> tuple[int, int]:
    """(utility evaluations, evaluator node calls) one iteration must make.

    The role step scores each of the N matrices once and the weight step
    each of the M assignments once; every evaluation of an executing utility
    runs n nodes on each of the |f| dataset items, so a full iteration costs
    n * (N + M) * |f| node calls. The edit-distance utility executes nothing.
    """
    evals = cfg.matrix_swarm_size * ran_role + cfg.assignments_per_step * ran_weight
    per_eval = cfg.n_experts * utility.dataset_size if utility.evaluator is not None else 0
    return evals, evals * per_eval
