"""Utility functions scoring instantiated systems, plus a small registry.

A utility maps (dag, assignment, pool) to a scalar, higher is better, and
declares its dataset size so optimization budgets can be audited. Built-in
families: constant (termination tests), hidden-DAG recovery (structure
search benchmarks), affine target (joint structure and weight benchmarks)
and text datasets scored by exact match (remote mode).
"""
from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np

from .executor import AffineEvaluator, Assignment, NodeEvaluator, execute
from .graph import DagStructure


class UtilityFunction:
    """Interface: ``evaluate`` is pure given the instance's dataset.

    A utility over items defines ``item_results``, and ``evaluate`` is the ``mean`` of
    their scores, the number ``dagswarm evaluate`` reports; one over no items defines ``evaluate``.
    """

    dataset_size: int = 1
    evaluator: NodeEvaluator | None = None
    expert_dim: int = 0  # the expert vector length the evaluator reads; 0 if it reads none
    node_count: int | None = None  # the node count every scored DAG must have; None if any will do

    def item_results(self, dag: DagStructure, assignment: Assignment, pool) -> tuple[list, list[float]]:
        """End-node outputs and scores, one of each per item, in item order."""
        raise ValueError(f"{type(self).__name__} scores no items")

    def mean(self, scores: list[float]) -> float:
        # In item order from -0.0, the identity of float addition: a single
        # np.sum would pair the scores differently and change the last bits.
        total = -0.0
        for score in scores:
            total += score
        return total / self.dataset_size

    def evaluate(self, dag: DagStructure, assignment: Assignment, pool) -> float:
        return self.mean(self.item_results(dag, assignment, pool)[1])

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
        self.node_count = target.n

    def evaluate(self, dag, assignment, pool) -> float:
        return 1.0 - normalized_edit_distance(dag, self.target)


class AffineTargetUtility(UtilityFunction):
    """Negative mean squared error over (k, d) stacked items, run as one execution; an item scores -(its squared error)."""

    def __init__(self, inputs, targets):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.inputs.ndim != 2 or self.inputs.shape != self.targets.shape or not len(self.inputs):
            raise ValueError("inputs and targets must be non-empty (k, d) arrays of equal shape")
        self.dataset_size = len(self.inputs)
        self.evaluator = AffineEvaluator()
        self.expert_dim = self.inputs.shape[1] * (self.inputs.shape[1] + 1)  # a d x d matrix and a length-d bias

    def item_results(self, dag, assignment, pool) -> tuple[list, list[float]]:
        out = execute(dag, assignment, pool, self.inputs, self.evaluator)
        return out.tolist(), (-np.sum((out - self.targets) ** 2, axis=1)).tolist()


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
    hidden = execute(structure, Assignment.identity(structure.n), hidden_pool, inputs, AffineEvaluator())
    return AffineTargetUtility(inputs, hidden)


class DatasetUtility(UtilityFunction):
    """Accuracy over text items run as one execution: 1.0 per output equal to its answer once both are stripped."""

    def __init__(self, items: list[dict], evaluator: NodeEvaluator):
        if not items:
            raise ValueError("dataset is empty")
        for item in items:
            if "input" not in item or "answer" not in item:
                raise ValueError("dataset items need 'input' and 'answer' fields")
        self.inputs = [str(item["input"]) for item in items]
        self.answers = [str(item["answer"]).strip() for item in items]
        self.dataset_size = len(items)
        self.evaluator = evaluator

    def item_results(self, dag, assignment, pool) -> tuple[list, list[float]]:
        outputs = execute(dag, assignment, pool, self.inputs, self.evaluator)
        return outputs, [float(str(out).strip() == answer) for out, answer in zip(outputs, self.answers)]


def evaluate_candidates(utility: UtilityFunction, candidates: list[tuple], what: str) -> list[float]:
    """``float(utility.evaluate(dag, assignment, pool))`` for each candidate triple, in candidate order.

    With an evaluator whose ``jobs`` is above 1, up to ``min(jobs, N)`` threads run the candidates at
    once, so the next one's items queue on the evaluator's pool instead of waiting for the current one's
    slowest item; otherwise they run in turn. The first failing candidate in order raises
    ``RuntimeError("utility evaluation failed for <what> <i>: ...")`` once the started ones have
    returned, and those not yet started never run.
    """
    callers = min(getattr(utility.evaluator, "jobs", 1), len(candidates))
    if callers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only overlapping candidates pay for loading it

        threads = ThreadPoolExecutor(callers)
        results = [threads.submit(utility.evaluate, *candidate).result for candidate in candidates]
    else:
        threads, results = None, [partial(utility.evaluate, *candidate) for candidate in candidates]
    try:
        scores = []
        for i, result in enumerate(results):
            try:
                scores.append(float(result()))
            except Exception as exc:  # noqa: BLE001 - annotate with the candidate
                raise RuntimeError(f"utility evaluation failed for {what} {i}: {exc}") from exc
        return scores
    finally:
        if threads is not None:
            threads.shutdown(cancel_futures=True)


def json_lines(lines, where, what: str):
    """``(number, object)`` for each non-blank line; anything but a JSON object raises ``ValueError("<where> line <n>: ...")``."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where} line {number}: {exc.msg} at column {exc.colno}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{where} line {number}: {what} must be a JSON object")
        yield number, record


def read_json(path: str | Path, text: str | None = None):
    """The JSON value in the file at ``path``, or in ``text`` already read from it; bad JSON raises ``ValueError("<path> line <n>: ...")``."""
    try:
        return json.loads(Path(path).read_text() if text is None else text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} line {exc.lineno}: {exc.msg} at column {exc.colno}") from exc


def json_object(data, name: str, *keys: str, version=None) -> dict:
    """``data`` if it is a JSON object with, given ``version``, that ``format_version`` and, given ``keys``, no key but those;
    else ``ValueError``. ``keys`` are every key the object may hold; ``json_field`` checks each is present where it is read."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} root must be a JSON object")
    if version is not None and json_field(data, name, "format_version") != version:
        raise ValueError(f"unsupported {name} version: {data['format_version']}")
    if keys and (unknown := sorted(set(data) - set(keys))):
        raise ValueError(f"{name} has an unknown field {unknown[0]!r}")
    return data


def json_field(data: dict, name: str, key: str, parse=lambda value: value, kinds: tuple | None = None):
    """``parse(data[key])``; a missing key, a type not in ``kinds`` (exact, so a boolean is no ``int``) or a parse error raises ``ValueError``."""
    if key not in data:
        raise ValueError(f"{name} has no {key!r} field")
    value = data[key]
    if kinds is not None and type(value) not in kinds:
        raise ValueError(f"{name} field {key!r} cannot be read: {value!r} is a {type(value).__name__}")
    try:
        return parse(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{name} field {key!r} cannot be read: {exc!r}") from exc


def json_array(value, name: str, ndim: int, kinds: tuple = (int, float)) -> np.ndarray:
    """Lists nested ``ndim`` deep, of one length at each depth and non-empty but for the rows of an ``ndim`` >= 2 array, around
    values of exactly a type in ``kinds`` (a boolean is no number), as a float or, for ``(bool,)``, boolean array; else
    ``ValueError`` naming the element."""
    shape: list[int] = []  # the list length at each depth, set by its first list

    def walk(value, path: str, depth: int) -> None:
        where = f"{name} element {path}" if path else name
        if depth == ndim:
            if type(value) not in kinds:
                raise ValueError(f"{where} is {value!r}, a {type(value).__name__}, not {' or '.join(k.__name__ for k in kinds)}")
            return
        if type(value) is not list or not value and not 0 < depth == ndim - 1:
            raise ValueError(f"{where} must be a non-empty list, not {'[]' if value == [] else 'a ' + type(value).__name__}")
        if depth == len(shape):
            shape.append(len(value))
        elif len(value) != shape[depth]:
            raise ValueError(f"{where} has {len(value)} entries, not {shape[depth]} as the rows before it")
        for i, item in enumerate(value):
            walk(item, f"{path}[{i}]", depth + 1)

    walk(value, "", 0)
    return np.array(value, dtype=bool if kinds == (bool,) else float)


def load_dataset(path: str | Path) -> list[dict]:
    """One JSON object per non-blank line; bad JSON or another value raises ``ValueError`` naming the path and line."""
    with open(path, encoding="utf-8") as handle:
        return [item for _, item in json_lines(handle, path, "a dataset item")]


_TARGET_BUILDERS = {"chain": chain_dag, "star": star_dag}
_DEFAULT_TARGETS = {"hidden_dag": "star", "affine_target": "chain"}
# The JSON type of each option, exactly: a boolean is no integer and a string is no number.
_SPEC_KINDS = {"name": (str,), "target": (str,), "path": (str,), "n": (int,), "dim": (int,), "points": (int,),
               "scale": (int, float), "value": (int, float)}


def build_utility(spec: dict, rng: np.random.Generator, evaluator: NodeEvaluator | None = None) -> UtilityFunction:
    """Construct a registry utility from a config dictionary; an option of the wrong JSON type, a count below 1 or a
    number that is not finite raises ``ValueError`` naming it."""
    spec = {key: json_field(spec, "utility_spec", key, kinds=_SPEC_KINDS.get(key)) for key in json_object(spec, "utility_spec")}
    for key in ("n", "dim", "points"):
        if spec.get(key, 1) < 1:
            raise ValueError(f"utility_spec field {key!r} must be >= 1, got {spec[key]}")
    for key in ("scale", "value"):
        if not math.isfinite(spec.get(key, 0.0)):
            raise ValueError(f"utility_spec field {key!r} must be finite, got {spec[key]}")
    name = spec.pop("name", None)
    if name in _DEFAULT_TARGETS:
        n = spec.pop("n", 4)
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
            dim=spec.pop("dim", 2),
            points=spec.pop("points", 4),
            scale=float(spec.pop("scale", 0.9)),
            structure=target,
        )
    elif name == "dataset":
        if evaluator is None:
            raise ValueError("dataset utility needs a node evaluator (remote endpoint)")
        json_field(spec, "utility_spec", "path")  # present; its type is checked above
        utility = DatasetUtility(load_dataset(spec.pop("path")), evaluator)
    else:
        raise ValueError(f"unknown utility: {name!r}")
    if spec:
        raise ValueError(f"unknown utility option: {sorted(spec)[0]!r}")
    return utility
