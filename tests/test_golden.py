"""Pinned output bytes for four small runs.

c11 checks that two runs of the same code agree; these digests check that
the bytes of ``trace.jsonl``, ``best_system.json`` and the final checkpoint
do not move between versions of the code. A change that alters output bytes
on purpose updates the digests here and says why.
"""
from __future__ import annotations

import hashlib

import pytest

from dagswarm import RngFactory, build_utility, config_from_dict, optimize

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
        "99078325b30af2dbc75eed9a0af390eafd1b4a65798117187d48da1f3c531d61",
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
            "expert_dim": 12,
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
        "a26ef8c9e2c921d1aca09665d1ebda47fbeffb9dbf7a1d14d0a09ee20f14aec5",
    ),
}


# SHA-256 of the checkpoint file each GOLDEN run leaves after its last iteration.
CHECKPOINT_DIGESTS = {
    "role_only_hidden_dag_threshold": "dc734afc9ec7a9ac0879d753c1c73ff64b19768480996f7925f6cb4d05878c18",
    "full_affine_chain_n10": "62bd793540052a6e10c028374ea5e9b1e8ba3a9b92d623bf7c7394742c7b71f0",
    "weight_only_affine_dim3": "adce15dcaa170587ff1fbba2f8ae26dfe0cd648174846418b6db6c6d0caa613c",
    "role_only_star_l1_large_seed": "1d1776f845c818745c55dbd2accb4633332f7502e403ec9c3fa2a8d9c9241239",
}


def run_golden(config: dict, checkpoint_path=None):
    cfg = config_from_dict(config)
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
