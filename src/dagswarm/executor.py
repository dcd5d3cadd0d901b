"""Execution of an instantiated system: DAG plus expert assignment.

Nodes run in topological order; each node sees the task input plus the
outputs of its predecessors and produces one output. The end node's
output is the system output. Payloads are real vectors in synthetic mode
and text in remote mode; a (k, d) array or a list of k texts carries k
dataset items. ``execute`` alone counts evaluator calls, n per item, and
rejects a payload of no items before any node runs.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .graph import DagStructure

ROLE_ENTRY = "entry"
ROLE_MIDDLE = "middle"
ROLE_END = "end"


@dataclass(frozen=True)
class Assignment:
    """Slot k holds the pool index of the expert occupying graph position k."""

    slots: tuple[int, ...]

    def __post_init__(self):
        if any(s < 0 for s in self.slots):
            raise ValueError("expert indices must be >= 0")

    @classmethod
    def identity(cls, n: int) -> "Assignment":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.slots)


class NodeEvaluator:
    """Maps (role, expert parameters or handle, inputs, task input, node) to the node's output.

    An evaluator defines either ``evaluate``, which the base ``run`` calls per
    node with ``inputs`` as ``{predecessor: output}`` in topological order,
    or ``run``, one whole execution. ``execute`` counts n ``calls`` per
    dataset item once a run returns, so budgets can be audited; the count is
    exact when threads share the evaluator. Whether the experts' vectors are
    read is the task's to say (``UtilityFunction.expert_dim``). The base
    ``run`` executes each item of a list payload alone on the evaluator's one
    pool of ``jobs`` worker threads, built on the first list payload and shut
    down by ``close``: at most ``jobs`` items are in flight however many
    threads call ``execute`` at once. Outputs come in item order, the first
    failing item in that order raises once the execution's started items have
    returned, and its items not yet started then never run.
    """

    jobs = 1

    def __init__(self):
        self.calls = 0
        self._calls_lock = threading.Lock()
        self._workers = None
        self._workers_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the worker pool once its items have run; a later list payload builds a new one."""
        with self._workers_lock:
            workers, self._workers = self._workers, None
        if workers is not None:
            workers.shutdown()

    def evaluate(self, role, params, inputs: dict, task_input, node):
        raise NotImplementedError

    def run(self, dag: DagStructure, assignment: Assignment, pool, task_input):
        """One execution, checked and counted by ``execute``: each node's ``evaluate`` in topological order."""
        if isinstance(task_input, list):
            from concurrent.futures import ThreadPoolExecutor, wait  # only list payloads pay for loading it

            with self._workers_lock:
                if self._workers is None:
                    self._workers = ThreadPoolExecutor(self.jobs)
                runs = [self._workers.submit(self.run, dag, assignment, pool, x) for x in task_input]
            try:
                return [run.result() for run in runs]
            finally:
                for run in runs:
                    run.cancel()
                wait(runs)
        predecessors = dag.predecessor_lists
        outputs = {}
        for v in dag.topo_order:
            inputs = {u: outputs[u] for u in predecessors[v]}
            role = node_role(dag, v, len(inputs))
            try:
                outputs[v] = self.evaluate(role, pool[assignment.slots[v]], inputs, task_input, v)
            except Exception as exc:  # noqa: BLE001 - annotate with the failing node
                raise ExecutionError(v, exc) from exc
        return outputs[dag.end_node]


class AffineEvaluator(NodeEvaluator):
    """Synthetic expert: output = W @ mean(task and inputs) + b, as one pass over the DAG.

    Expert parameters pack a d x d matrix row-major followed by a length-d
    bias; the pool is read once as a C-ordered float (P, d*d + d) array, so
    outputs depend only on its values. Payloads have shape (d,) for one item
    or (k, d) for k items. Each node adds the task input, then its
    predecessors' outputs in topological order, and divides once, so every
    row of a batch has the bits of that item run alone. The role is ignored.
    """

    def run(self, dag, assignment, pool, task_input) -> np.ndarray:
        order, predecessors, slots = dag.topo_order, dag.predecessor_lists, assignment.slots
        v = order[0]  # the node an error names: the first, until the walk reaches another
        try:
            x = np.asarray(task_input, dtype=float)
            d = x.shape[-1]
            array = np.ascontiguousarray(pool, dtype=float)
            if array.shape[1:] != (d * d + d,):
                raise ValueError(f"expected {d * d + d} parameters for dimension {d}, got {array.shape[1:]}")
            W, b = array[:, : d * d].reshape(len(array), d, d), array[:, d * d :]
            outputs: dict[int, np.ndarray] = {}
            for v in order:
                total = x
                for u in predecessors[v]:
                    total = total + outputs[u]
                mean = total / (len(predecessors[v]) + 1)
                # matmul per item, not mean @ W.T, gives each row the bits of W @ mean alone.
                outputs[v] = np.matmul(W[slots[v]], mean[..., None])[..., 0] + b[slots[v]]
        except Exception as exc:  # noqa: BLE001 - annotate with the failing node
            raise ExecutionError(v, exc) from exc
        return outputs[dag.end_node]


class ExecutionError(RuntimeError):
    def __init__(self, node: int, cause: Exception):
        super().__init__(f"evaluator failed at node {node}: {cause}")
        self.node = node


def node_role(dag: DagStructure, node: int, in_degree: int) -> str:
    # A single-node graph is both entry and end; the end role wins because
    # its prompt asks for the final answer.
    if node == dag.end_node:
        return ROLE_END
    return ROLE_ENTRY if in_degree == 0 else ROLE_MIDDLE


def execute(dag: DagStructure, assignment: Assignment, pool, task_input, evaluator: NodeEvaluator):
    """Run every node once in topological order; return the end node's output, for a list payload the k outputs in item order."""
    if len(assignment) != dag.n:
        raise ValueError("assignment length must equal node count")
    if len(pool) == 0:
        raise ValueError("expert pool is empty")
    if any(s >= len(pool) for s in assignment.slots):
        raise ValueError("assignment references an expert outside the pool")
    items = len(task_input) if isinstance(task_input, list) or isinstance(task_input, np.ndarray) and task_input.ndim == 2 else 1
    if not items:
        raise ValueError("task input payload holds no items")
    output = evaluator.run(dag, assignment, pool, task_input)
    with evaluator._calls_lock:
        evaluator.calls += dag.n * items
    return output
