"""Joint structure and parameter search for multi-expert systems.

A swarm over continuous adjacency matrices is decoded into executable
DAGs (role step) while a second swarm tunes the expert parameter vectors
behind the best structure found so far, scored by frequency-weighted
contribution estimates (weight step). Synthetic evaluators keep
everything desk-scale; a remote HTTP evaluator plugs real models in.
"""
from __future__ import annotations

from .executor import (
    AffineEvaluator,
    Assignment,
    ExecutionError,
    NodeEvaluator,
    execute,
    node_role,
)
from .graph import DagStructure, decode_dag, init_adjacency_swarm, prune_threshold, top_p_sample
from .metrics import (
    BucketTable,
    ablation_consistent,
    analysis_report,
    bucketize,
    collaborative_gain,
)
from .orchestrate import (
    OptimizedSystem,
    RunConfig,
    RunTrace,
    TraceRow,
    config_from_dict,
    dropout_gate,
    optimize,
)
from .pool import build_pool, load_pool, save_pool
from .pso import GRID, PsoHyperparams, Swarm, pso_step, sample_grid_hyperparams
from .remote import PROMPT_PREAMBLES, RemoteEvaluator, build_prompt
from .rng import RngFactory
from .role_step import RoleRecord, SparsityConfig, role_step, shaped_utility
from .utilities import (
    AffineTargetUtility,
    ConstantUtility,
    DagRecoveryUtility,
    DatasetUtility,
    UtilityFunction,
    build_utility,
    chain_dag,
    edit_distance,
    load_dataset,
    make_affine_task,
    normalized_edit_distance,
    star_dag,
)
from .weight_step import (
    ContributionReport,
    assignment_counts,
    contribution_scores,
    sample_assignments,
    weight_step,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """``StubServer``, loaded from ``dagswarm.stub`` on first use so that importing dagswarm loads no HTTP server."""
    if name == "StubServer":
        from .stub import StubServer

        return StubServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
