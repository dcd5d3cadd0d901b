"""Execution of an instantiated system: DAG plus expert assignment.

Nodes run in topological order; each node sees the task input plus the
outputs of its predecessors and produces one message. The end node's
message is the system output. Payloads are real vectors in synthetic mode
and text in remote mode, homogeneous within one execution; a (k, d) array
carries k dataset items, and each node counts k evaluator calls for it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .graph import DagStructure

ROLE_ENTRY = "entry"
ROLE_MIDDLE = "middle"
ROLE_END = "end"


@dataclass
class Message:
    payload: np.ndarray | str
    origin: int = -1


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
    """Maps (role, expert parameters or handle, inputs, task input, node) to a message.

    Invocations are counted in ``calls``, one per dataset item, so budgets
    can be audited; the count is exact when threads share the evaluator.
    Evaluators whose experts never see the parameter vectors set
    ``uses_expert_params`` to False. ``jobs`` is how many dataset items a
    utility may run through the evaluator at once.
    """

    uses_expert_params = True
    jobs = 1

    def __init__(self):
        self.calls = 0
        self._calls_lock = threading.Lock()

    def __call__(self, role, params, inputs, task_input, node) -> Message:
        payload = task_input.payload
        with self._calls_lock:
            self.calls += len(payload) if isinstance(payload, np.ndarray) and payload.ndim == 2 else 1
        return self.evaluate(role, params, inputs, task_input, node)

    def evaluate(self, role, params, inputs, task_input, node) -> Message:
        raise NotImplementedError


class AffineEvaluator(NodeEvaluator):
    """Synthetic expert: output = W @ mean(task and inputs) + b.

    Expert parameters pack a d x d matrix row-major followed by a length-d
    bias. Payloads have shape (d,) for one item or (k, d) for k items.
    The mean sums the task input and then each input in predecessor order,
    and divides once, so a (k, d) batch gives every row the bits of that
    item run alone. Deterministic; the role is ignored.
    """

    def evaluate(self, role, params, inputs, task_input, node) -> Message:
        x = np.asarray(task_input.payload, dtype=float)
        d = x.shape[-1]
        params = np.asarray(params, dtype=float)
        if params.shape != (d * d + d,):
            raise ValueError(f"expected {d * d + d} parameters for dimension {d}, got {params.shape}")
        total = x
        for m in inputs:
            payload = np.asarray(m.payload, dtype=float)
            if payload.shape != x.shape:
                raise ValueError(f"input from node {m.origin} has shape {payload.shape}, expected {x.shape}")
            total = total + payload
        mean = total / (len(inputs) + 1)
        W = params[: d * d].reshape(d, d)
        b = params[d * d :]
        # One matrix-vector product per item: unlike mean @ W.T, this keeps
        # every row bit-identical to W @ mean on that item alone.
        return Message(np.matmul(W, mean[..., None])[..., 0] + b, origin=node)


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


def execute(
    dag: DagStructure,
    assignment: Assignment,
    pool,
    task_input: Message,
    evaluator: NodeEvaluator,
) -> Message:
    """Run every node once in topological order; return the end node's message."""
    if len(assignment) != dag.n:
        raise ValueError("assignment length must equal node count")
    if len(pool) == 0:
        raise ValueError("expert pool is empty")
    if any(s >= len(pool) for s in assignment.slots):
        raise ValueError("assignment references an expert outside the pool")

    predecessors = dag.predecessor_lists
    outputs: dict[int, Message] = {}
    for v in dag.topo_order:
        preds = predecessors[v]
        inputs = [outputs[u] for u in preds]
        role = node_role(dag, v, len(preds))
        try:
            outputs[v] = evaluator(role, pool[assignment.slots[v]], inputs, task_input, v)
        except Exception as exc:  # noqa: BLE001 - annotate with the failing node
            raise ExecutionError(v, exc) from exc
    return outputs[dag.end_node]
