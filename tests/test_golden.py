"""Pinned output bytes for five small runs.

c11 checks that two runs of the same code agree; these digests check that
the bytes of ``trace.jsonl``, ``best_system.json`` and the final checkpoint
do not move between versions of the code. A change that alters output bytes
on purpose updates the digests here and says why.
"""
from __future__ import annotations

import hashlib

import pytest

from dagswarm import DatasetUtility, NodeEvaluator, RngFactory, build_utility, config_from_dict, optimize

GOLDEN = {
    "role_only_hidden_dag_threshold": (
        {
            "mode": "role_only",
            "n_experts": 6,
            "matrix_swarm_size": 8,
            "max_iterations": 8,
            "patience": 8,
            "sparsity": {"mode": "threshold", "tau": 0.5},
            "seed": 3,
            "utility_spec": {"name": "hidden_dag", "target": "chain", "n": 6},
        },
        "4b90df40a659f6add0a84f80fc5b9a3397b173832ba9d40253fdd150ee28eeaa",
    ),
    "full_affine_chain_n10": (
        {
            "mode": "full",
            "n_experts": 10,
            "matrix_swarm_size": 6,
            "assignments_per_step": 6,
            "max_iterations": 5,
            "patience": 5,
            "seed": 5,
            "utility_spec": {"name": "affine_target", "target": "chain", "n": 10, "dim": 2, "points": 4},
        },
        "aee43a87b76c2b471fd8585aafc6442302507f017179c064c233ace79f4b70b0",
    ),
    "weight_only_affine_dim3": (
        {
            "mode": "weight_only",
            "n_experts": 4,
            "matrix_swarm_size": 6,
            "assignments_per_step": 6,
            "max_iterations": 6,
            "patience": 6,
            "seed": 7,
            "utility_spec": {"name": "affine_target", "target": "chain", "n": 4, "dim": 3, "points": 4},
        },
        "8d7a67abbd3731040b303a98777fbffad8264be2c89ed37c79fc89f2b76b8599",
    ),
    # A seed above 2**32 spreads the run entropy over several SeedSequence words.
    "role_only_star_l1_large_seed": (
        {
            "mode": "role_only",
            "n_experts": 5,
            "matrix_swarm_size": 7,
            "max_iterations": 6,
            "patience": 6,
            "sparsity": {"mode": "l1", "l1_coeff": 0.01},
            "top_p": 0.3,
            "seed": 2**40 + 3,
            "utility_spec": {"name": "hidden_dag", "target": "star", "n": 5},
        },
        "aa02a707d4edcfc07a1b40f044c3cabc382040b7985563f022e93dbc517ddedf",
    ),
    # Text payloads: TEXT_ITEMS on SumEvaluator, a local stand-in for an endpoint.
    "role_only_text_dataset": (
        {
            "mode": "role_only",
            "n_experts": 4,
            "matrix_swarm_size": 6,
            "max_iterations": 6,
            "patience": 6,
            "top_p": 0.5,
            "seed": 11,
            "utility_spec": {"name": "dataset"},
        },
        "23481e54a0c1892737d1a239e1d88e54f978d601a9249de3c9430b5d0061081b",
    ),
}


# SHA-256 of the checkpoint file each GOLDEN run leaves after its last iteration.
CHECKPOINT_DIGESTS = {
    "role_only_hidden_dag_threshold": "90df7446b29f65b6d2202f810c32b3f5bab44fb160cb5632a331d5ea43ba339a",
    "full_affine_chain_n10": "f54d94994f375fd628226cdf0eca75a57559a51fe41a728c2878399cd68ab2f8",
    "weight_only_affine_dim3": "ff016cd5014b766f1c0e9dfe74cc164af2beebc5a4727a28ceb779b2538577aa",
    "role_only_star_l1_large_seed": "b4a3afd51baf9d2cd285cf8fc7d7bdc122f4236a9e539ad06e2a7fd39a3b7633",
    "role_only_text_dataset": "cd9bf86f7aab13b9c300dd83df4217c3a618ae5b605c6c0e75d1e720d45691ac",
}


class SumEvaluator(NodeEvaluator):
    """Each node answers the task's number plus its predecessors' answers, so the end node's is that number times a
    count that depends on the DAG."""

    def evaluate(self, role, params, inputs, task_input, node):
        return str(int(task_input) + sum(int(text) for text in inputs.values()))


# Item x answers x * k: DAGs with different counts k match different items, and k = 8, which only the 4-node
# tournament reaches, matches the most.
TEXT_ITEMS = [{"input": str(x), "answer": str(x * k)} for x, k in enumerate([8, 8, 8, 4, 4, 5, 6, 2], 1)]


def run_golden(config: dict, checkpoint_path=None):
    cfg = config_from_dict(config)
    if cfg.utility_spec["name"] == "dataset":
        utility = DatasetUtility(TEXT_ITEMS, SumEvaluator())
    else:
        utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
    return optimize(cfg, None, utility, checkpoint_path=checkpoint_path)


def run_digest(config: dict) -> str:
    system, trace = run_golden(config)
    return hashlib.sha256((trace.to_jsonl() + system.to_json()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(name):
    config, digest = GOLDEN[name]
    assert run_digest(config) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_final_checkpoint_bytes_match_golden_digest(name, tmp_path):
    ck = tmp_path / "checkpoint.json"
    run_golden(GOLDEN[name][0], checkpoint_path=ck)
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == CHECKPOINT_DIGESTS[name]
