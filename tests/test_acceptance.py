"""Acceptance suite: one test per shipping criterion.

Each test is self-contained and pins its own tolerances. Where a criterion
needs an expected value that the package itself could get wrong, the
reference computation is reimplemented here straight-line (pure python, no
numpy) so the two sides cannot share a bug.
"""
from __future__ import annotations

import functools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    BucketTable,
    Message,
    PsoHyperparams,
    RemoteEvaluator,
    RngFactory,
    RunConfig,
    Swarm,
    bucketize,
    build_utility,
    collaborative_gain,
    contribution_scores,
    decode_dag,
    execute,
    init_adjacency_swarm,
    optimize,
    prune_threshold,
    pso_step,
)
from dagswarm.cli import ENDPOINT_ENV, run_cli


# --- criterion 1: every decode is a valid single-end DAG, and decoding is fast


def test_c01_decode_validity_fuzz():
    gen = RngFactory(7).stream("decode", 0, 0)
    sizes = list(range(2, 13))
    started = time.monotonic()
    for i in range(10_000):
        n = sizes[i % len(sizes)]
        A = gen.uniform(0.0, 1.0, (n, n))
        p = 0.3 + 0.7 * gen.random()
        dag = decode_dag(A, p, gen)
        dag.validate()
        pos = {v: k for k, v in enumerate(dag.topo_order)}
        assert sorted(dag.topo_order) == list(range(n))
        assert dag.topo_order[-1] == dag.end_node
        out_degree = Counter(u for u, _ in dag.edges)
        assert out_degree[dag.end_node] == 0
        assert all(pos[u] < pos[v] for u, v in dag.edges)
        assert all(out_degree[v] > 0 for v in range(n) if v != dag.end_node)
        # reverse reachability: every node must sit on a path to the end
        reach = {dag.end_node}
        for v in reversed(dag.topo_order):
            if any(u == v and w in reach for u, w in dag.edges):
                reach.add(v)
        assert reach == set(range(n))
    assert time.monotonic() - started < 10.0


# --- criterion 2: decode distribution matches a straight-line reference


def _reference_cut(weights, p):
    """The indices top-p keeps from ``weights``, their running probabilities and their mass."""
    total = sum(weights)
    probs = [w / total for w in weights]
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    kept, cum = [], 0.0
    for i in order:
        kept.append(i)
        cum += probs[i]
        if cum >= p:
            break
    running, acc = [], 0.0
    for i in kept:
        acc += probs[i]
        running.append(acc)
    return kept, running, sum(probs[i] for i in kept)


def _reference_top_p(cut, rng):
    kept, running, mass = cut
    draw = rng.random() * mass
    for i, acc in zip(kept, running):
        if draw < acc:
            return i
    return kept[-1]


def _reference_decoder(A, p):
    """A decode of ``A`` taking ``rng``; the cuts and coin thresholds, fixed by the matrix, are computed once."""
    n = len(A)
    out_sums = [sum(A[i][j] for j in range(n) if j != i) for i in range(n)]
    end_cut = _reference_cut([1.0 / (s + 1e-6) for s in out_sums], p)

    @functools.cache
    def cut(remaining):
        return _reference_cut([out_sums[v] for v in remaining], p)

    @functools.cache
    def coins(u, placed):
        denominator = sum(math.exp(A[u][v]) for v in placed)
        thresholds = [(v, math.exp(A[u][v]) / denominator, A[u][v] > 0.0) for v in placed]
        return thresholds, max(sorted(placed), key=lambda v: A[u][v])

    def decode(rng):
        end = _reference_top_p(end_cut, rng)
        placed = [end]
        remaining = [v for v in range(n) if v != end]
        edges = set()
        while remaining:
            u = remaining.pop(_reference_top_p(cut(tuple(remaining)), rng))
            thresholds, fallback = coins(u, tuple(placed))
            hit = False
            for v, threshold, eligible in thresholds:
                if rng.random() < threshold and eligible:
                    edges.add((u, v))
                    hit = True
            if not hit:
                edges.add((u, fallback))
            placed.append(u)
        return end, frozenset(edges)

    return decode


def test_c02_decode_distribution_matches_reference():
    matrices = [
        [[0.0, 2.0, 0.4], [0.7, 0.0, 1.3], [0.2, 2.1, 0.0]],
        [[0.0, 0.3, 2.6], [1.9, 0.0, 0.8], [0.5, 1.1, 0.0]],
    ]
    samples = 100_000
    for index, M in enumerate(matrices):
        gen = RngFactory(2024).stream("decode", 0, index)
        package = Counter()
        for _ in range(samples):
            dag = decode_dag(M, 0.8, gen)
            package[(dag.end_node, tuple(sorted(dag.edges)))] += 1
        reference = Counter()
        ref_rng = random.Random(99 + index)
        decode = _reference_decoder(M, 0.8)
        for _ in range(samples):
            end, edges = decode(ref_rng)
            reference[(end, tuple(sorted(edges)))] += 1
        keys = set(package) | set(reference)
        tv = 0.5 * sum(abs(package[k] - reference[k]) / samples for k in keys)
        assert tv <= 0.02, f"matrix {index}: total variation {tv:.4f} > 0.02"


# --- criterion 3: swarm minimizes the sphere function to -1e-3


def test_c03_pso_sphere_benchmark():
    started = time.monotonic()
    best_per_seed = []
    for seed in range(10):
        rng = RngFactory(seed)
        center = rng.stream("task").uniform(0.0, 1.0, 10)
        swarm = Swarm.from_positions(rng.stream("init_matrices").uniform(0.0, 1.0, (10, 10)))
        for t in range(200):
            scores = [-float(np.sum((x - center) ** 2)) for x in swarm.positions]
            swarm = pso_step(swarm, scores, PsoHyperparams(), rng.stream("role_pso", t))
        best_per_seed.append(swarm.global_best_score)
    assert time.monotonic() - started < 5.0
    wins = sum(best >= -1e-3 for best in best_per_seed)
    assert wins >= 9, (
        f"best sphere score >= -1e-3 in {wins}/10 seeds (need 9); "
        f"closest approach {max(best_per_seed):.6f}"
    )


# --- criterion 4: contribution scores match the brute-force formula


def _reference_contributions(assignment_slots, utilities, pool_size):
    scores = []
    for expert in range(pool_size):
        weighted, occurrences = 0.0, 0
        for slots, utility in zip(assignment_slots, utilities):
            count = sum(1 for s in slots if s == expert)
            weighted += count * utility
            occurrences += count
        if occurrences:
            scores.append(weighted / occurrences)
        else:
            scores.append(sum(utilities) / len(utilities))
    return scores


def test_c04_contribution_scores_match_bruteforce():
    # hand case: counts [[2, 1], [1, 2]] with utilities (0.9, 0.3)
    scores, counts = contribution_scores(
        [Assignment((0, 0, 1)), Assignment((0, 1, 1))], [0.9, 0.3], 2
    )
    assert counts.tolist() == [[2, 1], [1, 2]]
    assert tuple(scores) == ((2 * 0.9 + 1 * 0.3) / 3, (1 * 0.9 + 2 * 0.3) / 3)
    assert scores == pytest.approx([0.7, 0.5], abs=1e-12)

    gen = np.random.default_rng(1234)
    for _ in range(1000):
        pool_size = int(gen.integers(1, 9))
        width = int(gen.integers(1, 7))
        rounds = int(gen.integers(1, 13))
        slot_lists = [
            tuple(int(s) for s in gen.integers(0, pool_size, width)) for _ in range(rounds)
        ]
        utilities = [float(u) for u in gen.uniform(-1.0, 1.0, rounds)]
        scores, counts = contribution_scores(
            [Assignment(slots) for slots in slot_lists], utilities, pool_size
        )
        expected = _reference_contributions(slot_lists, utilities, pool_size)
        assert np.max(np.abs(scores - np.asarray(expected))) <= 1e-12
        for expert in range(pool_size):
            for j, slots in enumerate(slot_lists):
                assert counts[expert, j] == sum(1 for s in slots if s == expert)


# --- criterion 5: role-only search recovers a hidden 4-node structure


def test_c05_hidden_dag_recovery():
    started = time.monotonic()
    wins = 0
    for seed in range(10):
        cfg = RunConfig(
            n_experts=4,
            mode="role_only",
            max_iterations=20,
            patience=20,
            seed=seed,
            utility_spec={"name": "hidden_dag", "n": 4, "target": "star"},
        )
        utility = build_utility(cfg.utility_spec, RngFactory(seed).stream("task"))
        _, trace = optimize(cfg, None, utility)
        wins += max(row.best_role_utility for row in trace.rows) >= 0.9
    assert time.monotonic() - started < 30.0
    assert wins >= 8, f"recovery utility >= 0.9 in {wins}/10 seeds (need 8)"


# --- criterion 6: joint optimization at least matches both ablations


def test_c06_full_mode_dominates_ablations():
    started = time.monotonic()
    outcomes = []
    for seed in range(10):
        finals = {}
        for mode in ("full", "role_only", "weight_only"):
            cfg = RunConfig(
                n_experts=4,
                mode=mode,
                max_iterations=20,
                patience=6,
                seed=seed,
                utility_spec={"name": "affine_target"},
            )
            utility = build_utility(cfg.utility_spec, RngFactory(seed).stream("task"))
            _, trace = optimize(cfg, None, utility)
            finals[mode] = trace.rows[-1].best_utility
        outcomes.append(
            finals["full"] >= finals["role_only"] and finals["full"] >= finals["weight_only"]
        )
    assert time.monotonic() - started < 60.0
    wins = sum(outcomes)
    assert wins >= 8, f"full mode matched both ablations in {wins}/10 seeds (need 8)"


# --- criterion 7: per-iteration evaluator calls stay within n(N+M)|f|


def test_c07_evaluator_calls_within_budget():
    gen = np.random.default_rng(42)
    for case in range(100):
        n = int(gen.integers(2, 6))
        cfg = RunConfig(
            n_experts=n,
            matrix_swarm_size=int(gen.integers(1, 7)),
            assignments_per_step=int(gen.integers(1, 7)),
            max_iterations=int(gen.integers(1, 4)),
            patience=int(gen.integers(1, 4)),
            mode=("full", "role_only", "weight_only")[case % 3],
            dropout_role=float(gen.uniform(0.0, 0.8)),
            dropout_weight=float(gen.uniform(0.0, 0.8)),
            seed=case,
            utility_spec={"name": "affine_target", "n": n, "points": int(gen.integers(1, 5))},
        )
        utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
        _, trace = optimize(cfg, None, utility)
        cap = n * (cfg.matrix_swarm_size + cfg.assignments_per_step) * utility.dataset_size
        for row in trace.rows:
            assert 0 < row.evaluator_calls <= cap, (
                f"case {case}: {row.evaluator_calls} calls in iteration "
                f"{row.iteration} vs n(N+M)|f| = {cap}"
            )
        assert trace.total_evaluator_calls <= utility.evaluator_calls


# --- criterion 8: best-utility traces never regress, dropout included


def test_c08_best_utility_monotone_under_dropout():
    for d_role in (0.2, 0.5, 0.8):
        for d_weight in (0.2, 0.5, 0.8):
            cfg = RunConfig(
                n_experts=4,
                mode="full",
                max_iterations=12,
                patience=12,
                dropout_role=d_role,
                dropout_weight=d_weight,
                seed=0,
                utility_spec={"name": "affine_target"},
            )
            utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
            _, trace = optimize(cfg, None, utility)
            best = [row.best_utility for row in trace.rows]
            role_best = [row.best_role_utility for row in trace.rows]
            assert all(b >= a for a, b in zip(best, best[1:])), (d_role, d_weight, best)
            assert all(b >= a for a, b in zip(role_best, role_best[1:]))


# --- criterion 9: stronger pruning strictly lowers mean decoded edge count


def test_c09_pruning_orders_mean_edge_count():
    factory = RngFactory(0)
    matrices = init_adjacency_swarm(8, 1000, factory.stream("init_matrices"))
    means = []
    for tau in (0.0, 0.05, 0.1, 0.2):
        total = 0
        for i, A in enumerate(matrices):
            dag = decode_dag(prune_threshold(A, tau), 0.8, factory.stream("decode", 0, i))
            total += len(dag.edges)
        means.append(total / len(matrices))
    assert all(b < a for a, b in zip(means, means[1:])), (
        f"mean edge counts not strictly decreasing across tau: {means}"
    )


# --- criterion 10: collaborative gain hand cases and range


def test_c10_collaborative_gain_correctness():
    # hand case: N=2, |D|=4, buckets (1, acc 1.0), (2, acc 0.5), (1, acc 1.0)
    table = BucketTable(2, (1, 2, 1), (1, 1, 1))
    assert collaborative_gain(table) == 0.0
    assert table.accuracy(0) == 1.0

    # hand bucketing: per-expert correct counts {0, 1, 1, 2} over 4 problems
    table = bucketize(
        [[False, False], [True, False], [False, True], [True, True]],
        [True, True, False, True],
    )
    assert table.counts == (1, 2, 1)

    # accuracy exactly n/N in every bucket cancels regardless of sizes
    for counts, correct in (((0, 2, 4), (0, 1, 4)), ((3, 4, 2), (0, 2, 2))):
        assert collaborative_gain(BucketTable(2, counts, correct)) == pytest.approx(0.0)

    gen = np.random.default_rng(5)
    for _ in range(500):
        n_experts = int(gen.integers(1, 7))
        counts = tuple(int(c) for c in gen.integers(0, 30, n_experts + 1))
        if sum(counts) == 0:
            counts = (1,) + counts[1:]
        correct = tuple(int(gen.integers(0, c + 1)) for c in counts)
        gain = collaborative_gain(BucketTable(n_experts, counts, correct))
        assert -1.0 <= gain <= 1.0


# --- criterion 11: identical config and seed reproduce outputs byte for byte


def test_c11_identical_runs_byte_identical_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "n_experts": 4,
                "matrix_swarm_size": 4,
                "assignments_per_step": 4,
                "max_iterations": 4,
                "patience": 3,
                "seed": 11,
                "utility_spec": {"name": "affine_target"},
            }
        )
    )
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert run_cli(["optimize", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append(
            (
                (out / "best_system.json").read_bytes(),
                (out / "trace.jsonl").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


# --- criterion 12: wire requests match the prompt contract verbatim


REFERENCE_PREAMBLES = {
    "entry": "Please answer the following question.",
    "middle": (
        "Please answer the following question with the help of previous "
        "responses, feel free to ignore wrong or unhelpful responses."
    ),
    "end": (
        "Please answer the following question with the help of previous "
        "responses, feel free to ignore wrong or unhelpful responses. "
        "Make sure to provide a final and definitive answer."
    ),
}


def _expected_requests(dag, task):
    predecessors = {v: [] for v in dag.topo_order}
    for u, v in dag.edges:
        predecessors[v].append(u)
    position = {v: k for k, v in enumerate(dag.topo_order)}
    texts, expected = {}, []
    for v in dag.topo_order:
        preds = sorted(predecessors[v], key=position.get)
        if v == dag.end_node:
            role = "end"
        else:
            role = "entry" if not preds else "middle"
        prior = [{"node": u, "text": texts[u]} for u in preds]
        parts = [REFERENCE_PREAMBLES[role], f"Question: {task}"]
        parts.extend(f"Response from node {p['node']}: {p['text']}" for p in prior)
        prompt = "\n\n".join(parts)
        expected.append(
            {"node": v, "role": role, "task_input": task, "prior": prior, "prompt": prompt}
        )
        texts[v] = prompt  # the stub echoes the prompt back
    return expected, texts


def test_c12_remote_protocol_conformance(clean_stub):
    gen = RngFactory(3).stream("decode", 0, 0)
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    for i in range(100):
        n = 2 + i % 4
        dag = decode_dag(gen.uniform(0.0, 1.0, (n, n)), 0.8, gen)
        task = f"probe {i}"
        seen_before = len(clean_stub.requests)
        out = execute(dag, Assignment.identity(n), [None] * n, Message(task), evaluator)
        expected, texts = _expected_requests(dag, task)
        assert clean_stub.requests[seen_before:] == expected
        assert out.payload == texts[dag.end_node]
