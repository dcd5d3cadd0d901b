"""Continuous adjacency matrices and their decoding into executable DAGs.

A candidate structure is an n x n real matrix whose entry (i, j) scores the
likelihood of a directed edge i -> j. Decoding picks an end node biased
toward small out-degree, orders the remaining nodes by out-degree mass, and
wires each newly placed node to already placed ones by softmax-weighted
coin flips, so every decode is a valid DAG with a single sink.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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


def top_p_sample(scores, p: float, rng: np.random.Generator) -> int:
    """Nucleus sampling over non-negative scores.

    Scores are normalized into a distribution, sorted descending (ties keep
    ascending index order), truncated to the smallest prefix with cumulative
    mass >= p, renormalized and sampled. Scores must be finite and non-negative.
    All-zero scores fall back to a uniform draw over all indices; scores whose
    sum overflows to inf raise ``ValueError`` before any draw.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    scores = s.tolist()
    if not all(map(math.isfinite, scores)):
        raise ValueError("scores must be finite")
    if any(x < 0.0 for x in scores):
        raise ValueError("scores must be non-negative")
    total = float(np.add.reduce(s))
    if total <= 0.0:
        return int(rng.integers(len(scores)))
    if total == math.inf:
        raise ValueError("scores overflow: their sum is inf")
    return _top_p([x / total for x in scores], p, rng.random())


def _top_p(probs: list[float], p: float, uniform: float) -> int:
    """The index ``top_p_sample`` draws with ``uniform`` from ``probs``, the scores over their finite positive sum."""
    # reverse=True keeps equal probabilities in ascending index order, as a stable sort on -probs does.
    order = sorted(range(len(probs)), key=probs.__getitem__, reverse=True)
    cdf = list(accumulate(map(probs.__getitem__, order)))
    # An unreached p keeps every index, as numpy's searchsorted past the end does.
    cutoff = bisect_left(cdf, p) + 1
    kept = min(cutoff, len(cdf))
    return order[min(bisect_right(cdf, uniform * cdf[kept - 1], 0, kept), cutoff - 1)]


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
        sources = {u for u, _ in self.edges}
        if self.end_node in sources:
            raise ValueError("end node has outgoing edges")
        if self.topo_order[-1] != self.end_node:
            raise ValueError("end node is not last in topo_order")
        # With every edge forward and an out-edge on every non-end node, every path ends at the end node.
        for node in range(self.n):
            if node != self.end_node and node not in sources:
                raise ValueError(f"non-end node {node} has out-degree 0")

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
    that drew no edge is wired to its argmax-entry placed node, so every non-end
    node keeps a path to the end. Out-degree sums that are not finite raise ``ValueError``
    before any draw, and sums whose top-p total overflows to inf raise it before that draw.

    One loop places the end and then every other node in Python floats, reading its
    doubles by index from a block drawn in one call, with the same DAGs, errors and
    final generator state as the numpy reference.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency matrix must be square")
    n = A.shape[0]
    if n == 1:
        return DagStructure(1, 0, frozenset(), (0,))

    # Python floats from here on; numpy only for exp, the row sums, totals of 8 or more terms and the draws.
    rows = A.tolist()
    exp_rows = np.exp(A).tolist()
    out_sums = [total - rows[i][i] for i, total in enumerate(np.add.reduce(A, 1).tolist())]
    if not all(map(math.isfinite, out_sums)):
        raise ValueError("out-degree sums must be finite")
    # Every top-p score is a sum s or the end's 1 / (s + DEGREE_EPS); s <= -DEGREE_EPS fails the end's.
    least = min(out_sums)
    if least <= -DEGREE_EPS:
        raise ValueError("scores must be non-negative")
    # The block holds every double before placement n - z (z = zero sums), the first whose top-p may fall back
    # to rng.integers, and ends after a placement's coins. It is empty if a sum is negative, and holds only the
    # end's draw if the sums reach 1e308, since a later top-p total may then overflow and raise before its draw.
    covered = -1 if least < 0.0 else n - 1 - out_sums.count(0.0) if sum(out_sums) < 1e308 else 0
    block = rng.random(1 + covered * (covered + 3) // 2).tolist()
    drawn, size = 0, len(block)

    scores = [1.0 / (s + DEGREE_EPS) for s in out_sums]  # the end's; the out-degree sums after it
    remaining, placed, edges = list(range(n)), [], []
    while remaining:
        m = len(remaining)
        total = 0.0 if m < 8 else float(np.add.reduce([scores[v] for v in remaining]))
        for v in remaining if m < 8 else ():  # numpy's sum adds fewer than 8 terms in order
            total += scores[v]
        if total <= 0.0:
            u = remaining.pop(int(rng.integers(m)))
        elif total == math.inf:
            raise ValueError("scores overflow: their sum is inf")
        else:
            uniform = block[drawn] if drawn < size else rng.random()
            drawn += 1
            u = remaining.pop(_top_p([scores[v] / total for v in remaining], p, uniform) if m > 1 else 0)
        if placed:
            row, exp_row, k = rows[u], exp_rows[u], len(placed)
            total = 0.0 if k < 8 else float(np.add.reduce([exp_row[v] for v in placed]))
            for v in placed if k < 8 else ():
                total += exp_row[v]
            coins = block[drawn : drawn + k] if drawn < size else iter(rng.random, None)  # zip stops at ``placed``
            drawn += k
            total = total or math.nan  # every exp underflowed: 0 / 0 draws no edge, as in numpy
            hits = [(u, v) for v, d in zip(placed, coins) if d < exp_row[v] / total and row[v] > 0.0]
            # No hit: the first largest entry in index order, as np.argmax picks it.
            edges.extend(hits or [(u, max(sorted(placed), key=row.__getitem__))])
        elif least < 0.0 and any(out_sums[v] < 0.0 for v in remaining):  # other negative sums fail here
            raise ValueError("scores must be non-negative")
        placed.append(u)
        scores = out_sums

    return DagStructure(n, placed[0], frozenset(edges), tuple(placed[::-1]))


def prune_threshold(A: np.ndarray, tau: float) -> np.ndarray:
    """Zero out entries <= tau; kept entries are unchanged."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    A = np.asarray(A, dtype=float)
    return np.where(A > tau, A, 0.0)
