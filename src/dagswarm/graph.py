"""Continuous adjacency matrices and their decoding into executable DAGs.

A candidate structure is an n x n real matrix whose entry (i, j) scores the
likelihood of a directed edge i -> j. Decoding picks an end node biased
toward small out-degree, orders the remaining nodes by out-degree mass, and
wires each newly placed node to already placed ones by softmax-weighted
coin flips, so every decode is a valid DAG with a single sink.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

# Floor added to out-degree sums before inversion; keeps all-zero rows finite.
DEGREE_EPS = 1e-6


def init_adjacency_swarm(n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` matrices with i.i.d. uniform(0, 1) entries."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return [rng.random((n, n)) for _ in range(count)]


def _np_sum(xs: list[float]) -> float:
    """``float(np.sum(xs))`` bit for bit: numpy's pairwise order for contiguous float64.

    Below 8 items numpy adds in order; up to 128 it keeps 8 running lanes,
    combines them pairwise and adds the tail in order; above 128 it splits
    in halves rounded down to a multiple of 8.
    """
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _np_sum(xs[:half]) + _np_sum(xs[half:])
    total = 0.0
    tail = 0
    if n >= 8:
        tail = n - n % 8
        lanes = xs[:8]
        for i in range(8, tail, 8):
            lanes = [a + b for a, b in zip(lanes, xs[i : i + 8])]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for x in xs[tail:]:
        total += x
    return total


def top_p_sample(scores, p: float, rng: np.random.Generator) -> int:
    """Nucleus sampling over non-negative scores.

    Scores are normalized into a distribution, sorted descending (ties keep
    ascending index order), truncated to the smallest prefix with cumulative
    mass >= p, renormalized and sampled. All-zero scores fall back to a
    uniform draw over all indices.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    return _top_p(s.tolist(), p, rng, iter(rng.random, None))


def _top_p(scores: list[float], p: float, rng: np.random.Generator, uniforms) -> int:
    """``top_p_sample`` on a non-empty float list, drawing from ``uniforms`` (``rng``'s stream); callers check ``p``."""
    if any(x < 0.0 for x in scores):
        raise ValueError("scores must be non-negative")
    total = _np_sum(scores)
    if total <= 0.0:
        return int(rng.integers(len(scores)))
    uniform = next(uniforms)
    if len(scores) == 1:
        return 0
    probs = [x / total for x in scores]
    order = sorted(range(len(probs)), key=lambda i: -probs[i])
    cdf = list(accumulate(probs[i] for i in order))
    # An unreached p keeps every index, as numpy's searchsorted past the end does.
    cutoff = bisect_left(cdf, p) + 1
    kept = min(cutoff, len(cdf))
    draw = uniform * cdf[kept - 1]
    return order[min(bisect_right(cdf, draw, 0, kept), cutoff - 1)]


@dataclass(frozen=True)
class DagStructure:
    """Decoded graph: edge (u, v) feeds u's output into v.

    ``topo_order`` is an execution order (every edge points forward in it);
    the end node is always last.
    """

    n: int
    end_node: int
    edges: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]

    @cached_property
    def predecessor_lists(self) -> dict[int, tuple[int, ...]]:
        """Each node's predecessors in topological order, built once per DAG."""
        pos = {node: k for k, node in enumerate(self.topo_order)}
        preds: dict[int, list[int]] = {v: [] for v in self.topo_order}
        for u, v in sorted(self.edges, key=lambda edge: pos[edge[0]]):
            preds[v].append(u)
        return {v: tuple(us) for v, us in preds.items()}

    def validate(self) -> None:
        if sorted(self.topo_order) != list(range(self.n)):
            raise ValueError("topo_order is not a permutation of nodes")
        pos = {node: k for k, node in enumerate(self.topo_order)}
        for u, v in self.edges:
            if pos[u] >= pos[v]:
                raise ValueError(f"edge {u}->{v} violates topo_order")
        out_degree = [0] * self.n
        for u, _ in self.edges:
            out_degree[u] += 1
        if out_degree[self.end_node] != 0:
            raise ValueError("end node has outgoing edges")
        if self.topo_order[-1] != self.end_node:
            raise ValueError("end node is not last in topo_order")
        for node in range(self.n):
            if node != self.end_node and out_degree[node] == 0:
                raise ValueError(f"non-end node {node} has out-degree 0")
        # Every node must reach the end node along directed edges.
        seen = {self.end_node}
        frontier = [self.end_node]
        while frontier:
            v = frontier.pop()
            for u in self.predecessor_lists[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != self.n:
            raise ValueError("some nodes cannot reach the end node")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "end_node": self.end_node,
            "edges": sorted(list(e) for e in self.edges),
            "topo_order": list(self.topo_order),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DagStructure":
        dag = cls(
            n=int(data["n"]),
            end_node=int(data["end_node"]),
            edges=frozenset((int(u), int(v)) for u, v in data["edges"]),
            topo_order=tuple(int(x) for x in data["topo_order"]),
        )
        dag.validate()
        return dag


def decode_dag(A: np.ndarray, p: float, rng: np.random.Generator) -> DagStructure:
    """Decode one DAG from a continuous adjacency matrix.

    The end node is drawn by top-p over inverse out-degree sums. Remaining
    nodes are placed one at a time by top-p over their out-degree sums; a
    newly placed node u gains edge u -> v to each already placed v
    independently with probability exp(a_uv) / sum over placed i of
    exp(a_ui). Exact-zero entries are ineligible as edges (they still count
    in the denominator), which lets threshold pruning suppress edges. A node
    that drew no edge is wired to its argmax-entry placed node, so every
    non-end node keeps a path to the end.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency matrix must be square")
    n = A.shape[0]
    if n == 1:
        return DagStructure(1, 0, frozenset(), (0,))

    # Python floats from here on; numpy only for exp, the row sums and the draws.
    rows = A.tolist()
    exp_rows = np.exp(A).tolist()
    out_sums = [total - row[i] for i, (total, row) in enumerate(zip(A.sum(axis=1).tolist(), rows))]
    if -DEGREE_EPS in out_sums:  # the end's score 1 / 0; any other sum under -DEGREE_EPS fails _top_p's check
        raise ValueError("scores must be non-negative")
    # One call draws every double before placement n - z (z = zero sums), the first whose top-p may
    # fall back to rng.integers; none if the least sum is negative, NaN or inf. Later ones: one call each.
    covered = n - 1 - out_sums.count(0.0) if 0.0 <= min(out_sums) < np.inf else -1
    uniforms = chain(rng.random(1 + covered * (covered + 3) // 2).tolist(), iter(rng.random, None))
    end = _top_p([1.0 / (s + DEGREE_EPS) for s in out_sums], p, rng, uniforms)

    placed = [end]
    remaining = [v for v in range(n) if v != end]
    edges: list[tuple[int, int]] = []
    while remaining:
        u = remaining.pop(_top_p([out_sums[v] for v in remaining], p, rng, uniforms))
        row, exp_row = rows[u], exp_rows[u]
        weights = [exp_row[v] for v in placed]
        total = _np_sum(weights)
        # zip stops at ``placed``, so it takes exactly one coin per placed node.
        hits = [(u, v) for v, w, d in zip(placed, weights, uniforms) if d < w / total and row[v] > 0.0]
        # No hit: the first largest entry in index order, or the first NaN, as np.argmax picks it.
        edges.extend(hits or [(u, min(sorted(placed), key=lambda v: (row[v] == row[v], -row[v])))])
        placed.append(u)

    return DagStructure(n, end, frozenset(edges), tuple(reversed(placed)))


def prune_threshold(A: np.ndarray, tau: float) -> np.ndarray:
    """Zero out entries <= tau; kept entries are unchanged."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    A = np.asarray(A, dtype=float)
    return np.where(A > tau, A, 0.0)
