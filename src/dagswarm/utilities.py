"""Utility functions scoring instantiated systems, plus a small registry.

A utility maps (dag, assignment, pool) to a scalar, higher is better, and
declares its dataset size so optimization budgets can be audited. Built-in
families: constant (termination tests), hidden-DAG recovery (structure
search benchmarks), affine target (joint structure and weight benchmarks)
and text datasets scored by exact match (remote mode).
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .executor import AffineEvaluator, Assignment, Message, NodeEvaluator, execute
from .graph import DagStructure


class UtilityFunction:
    """Interface: ``evaluate`` is pure given the instance's dataset."""

    dataset_size: int = 1
    evaluator: NodeEvaluator | None = None
    expert_dim: int | None = None  # the expert vector length the evaluator reads; None if it reads none

    def evaluate(self, dag: DagStructure, assignment: Assignment, pool) -> float:
        raise NotImplementedError

    @property
    def evaluator_calls(self) -> int:
        return self.evaluator.calls if self.evaluator is not None else 0


class ConstantUtility(UtilityFunction):
    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def evaluate(self, dag, assignment, pool) -> float:
        return self.value


def edit_distance(a: DagStructure, b: DagStructure) -> int:
    """Symmetric difference of edge sets plus an end-node mismatch penalty."""
    if a.n != b.n:
        raise ValueError("graphs must have the same node count")
    return len(a.edges ^ b.edges) + (1 if a.end_node != b.end_node else 0)


def normalized_edit_distance(a: DagStructure, b: DagStructure) -> float:
    return edit_distance(a, b) / (a.n * (a.n - 1) + 1)


def chain_dag(n: int) -> DagStructure:
    edges = frozenset((k, k + 1) for k in range(n - 1))
    return DagStructure(n, n - 1, edges, tuple(range(n)))


def star_dag(n: int) -> DagStructure:
    """All nodes feed the end node directly."""
    end = n - 1
    edges = frozenset((k, end) for k in range(n - 1))
    return DagStructure(n, end, edges, tuple(range(n)))


class DagRecoveryUtility(UtilityFunction):
    """1 - normalized edit distance to a hidden target DAG."""

    def __init__(self, target: DagStructure):
        target.validate()
        self.target = target

    def evaluate(self, dag, assignment, pool) -> float:
        return 1.0 - normalized_edit_distance(dag, self.target)


class AffineTargetUtility(UtilityFunction):
    """Negative mean squared error against target vectors; one execution runs all (k, d) stacked items."""

    def __init__(self, inputs, targets):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.inputs.ndim != 2 or self.inputs.shape != self.targets.shape or not len(self.inputs):
            raise ValueError("inputs and targets must be non-empty (k, d) arrays of equal shape")
        self.dataset_size = len(self.inputs)
        self.evaluator = AffineEvaluator()
        self.expert_dim = self.inputs.shape[1] * (self.inputs.shape[1] + 1)  # a d x d matrix and a length-d bias

    def evaluate(self, dag, assignment, pool) -> float:
        out = execute(dag, assignment, pool, Message(self.inputs), self.evaluator)
        # Per-item errors added in item order: a single np.sum would pair
        # them up differently and change the last bits of the score.
        error = 0.0
        for item_error in np.sum((out.payload - self.targets) ** 2, axis=1).tolist():
            error += item_error
        return -error / self.dataset_size


def make_affine_task(
    rng: np.random.Generator,
    n: int = 4,
    dim: int = 2,
    points: int = 4,
    scale: float = 0.9,
    structure: DagStructure | None = None,
) -> AffineTargetUtility:
    """Affine-target task whose answers come from a hidden system.

    The hidden system runs one shared expert (uniform(-scale, scale)
    parameters) at every position of ``structure`` (default: a chain), so
    both the right structure and the right weights are needed to reach zero
    error.
    """
    if structure is None:
        structure = chain_dag(n)
    shared = rng.uniform(-scale, scale, dim * dim + dim)
    hidden_pool = [shared] * structure.n
    inputs = rng.uniform(-1, 1, (points, dim))  # the same draws as one row at a time
    hidden = execute(structure, Assignment.identity(structure.n), hidden_pool, Message(inputs), AffineEvaluator())
    return AffineTargetUtility(inputs, hidden.payload)


def run_text_items(dag: DagStructure, assignment: Assignment, pool, inputs: list, evaluator: NodeEvaluator) -> list:
    """End-node payloads of ``inputs``, each run as one text task; up to ``evaluator.jobs`` run at once.

    Payloads are gathered in item order, the first failing item in that
    order raises, and after a failure items not yet started never run.
    """
    workers = ThreadPoolExecutor(min(evaluator.jobs, len(inputs)))
    try:
        futures = [workers.submit(execute, dag, assignment, pool, Message(str(x)), evaluator) for x in inputs]
        return [future.result().payload for future in futures]
    finally:
        workers.shutdown(cancel_futures=True)


class DatasetUtility(UtilityFunction):
    """Exact-match accuracy over text items (remote mode), run through ``run_text_items``."""

    def __init__(self, items: list[dict], evaluator: NodeEvaluator):
        if not items:
            raise ValueError("dataset is empty")
        for item in items:
            if "input" not in item or "answer" not in item:
                raise ValueError("dataset items need 'input' and 'answer' fields")
        self.items = items
        self.dataset_size = len(items)
        self.evaluator = evaluator

    def evaluate(self, dag, assignment, pool) -> float:
        outputs = run_text_items(dag, assignment, pool, [item["input"] for item in self.items], self.evaluator)
        return sum(exact_match(out, item["answer"]) for out, item in zip(outputs, self.items)) / self.dataset_size


def exact_match(output, answer) -> bool:
    """Text answers match when equal after stripping surrounding whitespace."""
    return str(output).strip() == str(answer).strip()


def load_dataset(path: str | Path) -> list[dict]:
    """One JSON object per non-blank line; any other value raises ``ValueError`` naming the path and line."""
    with open(path, encoding="utf-8") as handle:
        items = [(number, json.loads(line)) for number, line in enumerate(handle, 1) if line.strip()]
    for number, item in items:
        if not isinstance(item, dict):
            raise ValueError(f"{path} line {number}: a dataset item must be a JSON object")
    return [item for _, item in items]


_TARGET_BUILDERS = {"chain": chain_dag, "star": star_dag}
_DEFAULT_TARGETS = {"hidden_dag": "star", "affine_target": "chain"}


def build_utility(spec: dict, rng: np.random.Generator, evaluator: NodeEvaluator | None = None) -> UtilityFunction:
    """Construct a registry utility from a config dictionary."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name in _DEFAULT_TARGETS:
        n = int(spec.pop("n", 4))
        shape = spec.pop("target", _DEFAULT_TARGETS[name])
        if shape not in _TARGET_BUILDERS:
            raise ValueError(f"unknown {name} target: {shape!r}")
        target = _TARGET_BUILDERS[shape](n)
    if name == "constant":
        utility = ConstantUtility(spec.pop("value", 0.0))
    elif name == "hidden_dag":
        utility = DagRecoveryUtility(target)
    elif name == "affine_target":
        utility = make_affine_task(
            rng,
            dim=int(spec.pop("dim", 2)),
            points=int(spec.pop("points", 4)),
            scale=float(spec.pop("scale", 0.9)),
            structure=target,
        )
    elif name == "dataset":
        if evaluator is None:
            raise ValueError("dataset utility needs a node evaluator (remote endpoint)")
        utility = DatasetUtility(load_dataset(spec.pop("path")), evaluator)
    else:
        raise ValueError(f"unknown utility: {name!r}")
    if spec:
        raise ValueError(f"unknown utility option: {sorted(spec)[0]!r}")
    return utility
