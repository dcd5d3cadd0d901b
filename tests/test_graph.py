from __future__ import annotations

import numpy as np
import pytest

from dagswarm import (
    DagStructure,
    RngFactory,
    decode_dag,
    init_adjacency_swarm,
    prune_threshold,
    top_p_sample,
)
from dagswarm.graph import DEGREE_EPS


def test_init_swarm_degenerate_and_errors():
    matrices = init_adjacency_swarm(1, 3, RngFactory(0).stream("init_matrices"))
    assert len(matrices) == 3
    for m in matrices:
        assert m.shape == (1, 1)
        assert 0.0 <= m[0, 0] < 1.0
    with pytest.raises(ValueError):
        init_adjacency_swarm(0, 3, RngFactory(0).stream("init_matrices"))
    with pytest.raises(ValueError):
        init_adjacency_swarm(3, 0, RngFactory(0).stream("init_matrices"))


@pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (4, 5), (10, 64)])
def test_init_swarm_is_one_array_of_per_matrix_draws(n, count):
    """One (count, n, n) draw gives the same bits and generator state as one (n, n) draw per matrix."""
    for seed in range(5):
        rng, reference_rng = RngFactory(seed).stream("init_matrices"), RngFactory(seed).stream("init_matrices")
        reference = [reference_rng.random((n, n)) for _ in range(count)]
        swarm = init_adjacency_swarm(n, count, rng)
        assert isinstance(swarm, np.ndarray)
        assert (swarm.dtype, swarm.shape) == (np.float64, (count, n, n))
        assert swarm.tobytes() == np.stack(reference).tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_init_swarm_uniform_mean():
    # 10^5 entries: empirical mean of U(0,1) within 0.5 +- 0.01
    matrices = init_adjacency_swarm(10, 1000, RngFactory(1).stream("init_matrices"))
    mean = np.mean([m.mean() for m in matrices])
    assert abs(mean - 0.5) < 0.01


def test_top_p_single_candidate():
    rng = RngFactory(0).stream("decode", 0, 0)
    for p in (0.01, 0.5, 1.0):
        assert top_p_sample([1.0], p, rng) == 0


def test_top_p_nucleus_cutoff():
    # prefix {0} already holds mass 0.9 >= 0.8, so index 1 is never drawn
    rng = RngFactory(2).stream("decode", 0, 0)
    draws = {top_p_sample([0.9, 0.1], 0.8, rng) for _ in range(1000)}
    assert draws == {0}


def test_top_p_even_split_frequency():
    rng = RngFactory(3).stream("decode", 0, 0)
    draws = [top_p_sample([0.5, 0.5], 0.8, rng) for _ in range(10_000)]
    freq = np.mean(draws)
    assert abs(freq - 0.5) < 0.02


def test_top_p_small_p_is_argmax_lowest_tie():
    rng = RngFactory(4).stream("decode", 0, 0)
    assert all(top_p_sample([0.2, 0.5, 0.3], 1e-9, rng) == 1 for _ in range(100))
    assert all(top_p_sample([0.4, 0.4, 0.2], 1e-9, rng) == 0 for _ in range(100))


def test_top_p_all_zero_uniform_fallback():
    rng = RngFactory(5).stream("decode", 0, 0)
    draws = [top_p_sample([0.0, 0.0, 0.0], 0.3, rng) for _ in range(3000)]
    counts = np.bincount(draws, minlength=3) / 3000
    assert np.all(np.abs(counts - 1 / 3) < 0.05)


def test_top_p_validation():
    rng = RngFactory(6).stream("decode", 0, 0)
    with pytest.raises(ValueError):
        top_p_sample([], 0.5, rng)
    with pytest.raises(ValueError):
        top_p_sample([0.2, -0.1], 0.5, rng)
    with pytest.raises(ValueError):
        top_p_sample([0.2], 0.0, rng)
    with pytest.raises(ValueError):
        top_p_sample([0.2], 1.5, rng)
    with pytest.raises(ValueError):
        top_p_sample([[0.1, 0.2]], 0.5, rng)


def test_top_p_array_and_list_draw_alike():
    scores = [0.3, 0.1, 0.4, 0.2]
    for seed in range(20):
        from_list = top_p_sample(scores, 0.9, RngFactory(seed).stream("decode", 0, 0))
        from_array = top_p_sample(np.array(scores), 0.9, RngFactory(seed).stream("decode", 0, 0))
        assert from_array == from_list


def test_decode_single_node():
    dag = decode_dag(np.array([[0.4]]), 0.8, RngFactory(0).stream("decode", 0, 0))
    assert dag.n == 1 and dag.end_node == 0 and dag.edges == frozenset() and dag.topo_order == (0,)
    dag.validate()


def test_decode_two_node_near_deterministic():
    # row sums: node 0 -> 0.99, node 1 -> 0.01; at p=0.05 node 1 wins the
    # inverse-degree draw and the single edge 0 -> 1 follows
    A = np.array([[0.0, 0.99], [0.01, 0.0]])
    expected = DagStructure(2, 1, frozenset({(0, 1)}), (0, 1))
    rng = RngFactory(7).stream("decode", 0, 0)
    hits = sum(decode_dag(A, 0.05, rng) == expected for _ in range(10_000))
    assert hits >= 9500


def test_decode_validity_small_fuzz():
    rng = RngFactory(8)
    init = rng.stream("init_matrices")
    for i in range(500):
        n = int(init.integers(2, 7))
        A = init.uniform(0, 1, (n, n))
        dag = decode_dag(A, 0.8, rng.stream("decode", 0, i))
        dag.validate()
        # selection order is reversed topo order: edges go forward in topo
        position = {v: k for k, v in enumerate(dag.topo_order)}
        for u, v in dag.edges:
            assert position[u] < position[v]
        assert dag.topo_order[-1] == dag.end_node


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, 5.0, float("nan")])
def test_decode_rejects_p_out_of_range_even_for_one_node(p):
    with pytest.raises(ValueError, match="p must be in"):
        decode_dag(np.zeros((1, 1)), p, RngFactory(0).stream("decode", 0, 0))


def test_decode_rejects_a_matrix_it_cannot_decode():
    # Non-square, and an out-degree sum of exactly -DEGREE_EPS, whose end score would be 1 / 0.
    for A in (np.zeros((2, 3)), np.array([[0.0, -DEGREE_EPS], [0.5, 0.0]])):
        with pytest.raises(ValueError):
            decode_dag(A, 0.8, RngFactory(0).stream("decode", 0, 0))


def test_prune_threshold_rule():
    A = np.array([[0.05, 0.15], [0.3, 0.0]])
    pruned = prune_threshold(A, 0.1)
    assert np.array_equal(pruned, [[0.0, 0.15], [0.3, 0.0]])
    # tau=0 only removes exact zeros (keeps everything positive unchanged)
    assert np.array_equal(prune_threshold(A, 0.0), [[0.05, 0.15], [0.3, 0.0]])
    with pytest.raises(ValueError):
        prune_threshold(A, 1.5)
    with pytest.raises(ValueError):
        prune_threshold(A, -0.1)


def test_prune_nonzero_count_monotone_in_tau():
    rng = RngFactory(9).stream("init_matrices")
    A = rng.uniform(0, 1, (8, 8))
    counts = [np.count_nonzero(prune_threshold(A, tau)) for tau in (0.0, 0.05, 0.1, 0.2, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_dag_serialization_roundtrip():
    dag = decode_dag(np.full((5, 5), 0.5), 0.8, RngFactory(10).stream("decode", 0, 0))
    clone = DagStructure.from_dict(dag.to_dict())
    assert clone == dag
    assert clone.to_dict() == dag.to_dict()


def test_dag_validation_rejects_broken_structures():
    with pytest.raises(ValueError):
        # end node with outgoing edge
        DagStructure(2, 1, frozenset({(1, 0)}), (1, 0)).validate()
    with pytest.raises(ValueError):
        # non-end node without outgoing edge
        DagStructure(3, 2, frozenset({(0, 2)}), (0, 1, 2)).validate()
    with pytest.raises(ValueError):
        # edge against topo order
        DagStructure(3, 2, frozenset({(1, 0), (0, 2), (1, 2)}), (0, 1, 2)).validate()
    with pytest.raises(ValueError):
        # topo order not a permutation
        DagStructure(3, 2, frozenset({(0, 2), (1, 2)}), (0, 0, 2)).validate()


# Reference decode: the numpy implementation the list-based one replaced.
# The fast path must reproduce its DAGs and its generator state exactly.


def reference_top_p_sample(scores, p, rng):
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if np.any(s < 0):
        raise ValueError("scores must be non-negative")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    total = s.sum()
    if total <= 0.0:
        return int(rng.integers(s.size))
    probs = s / total
    if not probs.any():  # finite scores whose sum overflows to inf all divide to 0
        raise ValueError("scores overflow: their sum is inf")
    order = np.argsort(-probs, kind="stable")
    cutoff = int(np.searchsorted(np.cumsum(probs[order]), p)) + 1
    kept = order[:cutoff]
    cdf = np.cumsum(probs[kept])
    draw = rng.random() * cdf[-1]
    return int(kept[min(int(np.searchsorted(cdf, draw, side="right")), cutoff - 1)])


def reference_decode_dag(A, p, rng):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("adjacency matrix must be square")
    n = A.shape[0]
    if n == 1:
        return DagStructure(1, 0, frozenset(), (0,))

    out_sums = A.sum(axis=1) - np.diagonal(A)
    if not np.isfinite(out_sums).all():
        raise ValueError("out-degree sums must be finite")
    end = reference_top_p_sample(1.0 / (out_sums + DEGREE_EPS), p, rng)

    placed = [end]
    remaining = [v for v in range(n) if v != end]
    edges = []
    while remaining:
        u = remaining.pop(reference_top_p_sample(out_sums[remaining], p, rng))
        placed_arr = np.asarray(placed)
        row = A[u, placed_arr]
        weights = np.exp(row)
        probs = weights / weights.sum()
        hits = (rng.random(len(placed)) < probs) & (row > 0.0)
        if hits.any():
            edges.extend((u, int(v)) for v in placed_arr[hits])
        else:
            candidates = sorted(placed)
            forced = candidates[int(np.argmax(A[u, candidates]))]
            edges.append((u, forced))
        placed.append(u)

    return DagStructure(n, end, frozenset(edges), tuple(reversed(placed)))


def random_p(gen, case):
    return (0.3, 0.8, 1.0)[case % 4] if case % 4 < 3 else float(gen.uniform(0.01, 1.0))


def random_matrix(gen, n):
    """Uniform entries, thresholded zeros, rounded ties or entries above 1."""
    A = gen.random((n, n))
    kind = int(gen.integers(4))
    if kind == 1:
        A = prune_threshold(A, float(gen.random()))
    elif kind == 2:
        A = np.round(A, 1)
    elif kind == 3:
        A = A * gen.uniform(1.0, 4.0)
    return A


def test_decode_matches_numpy_reference():
    gen = np.random.default_rng(2024)
    for case in range(5000):
        A = random_matrix(gen, int(gen.integers(1, 16)))
        p = random_p(gen, case)
        fast, ref = np.random.default_rng(case), np.random.default_rng(case)
        assert decode_dag(A, p, fast).to_dict() == reference_decode_dag(A, p, ref).to_dict(), (case, p)
        assert fast.bit_generator.state == ref.bit_generator.state, case


class ScriptedRng:
    """Generator stand-in playing one scripted stream: a scalar draw takes its next value, a vector draw the next ``size``."""

    def __init__(self, stream):
        self.stream = list(stream)

    def random(self, size=None):
        if size is None:
            return self.stream.pop(0)
        taken, self.stream = self.stream[:size], self.stream[size:]
        return np.array(taken)

    def integers(self, high):
        return 0


def test_decode_edge_draws_on_the_rounding_boundary():
    # At p = 1e-12 every top-p draw is an argmax (lowest index on ties), so
    # the placement order is known in advance. The stream holds 0.5 for each
    # top-p draw (none where all scores are zero and the top-p falls back to
    # rng.integers) and then that placement's coins, each on the reference's
    # probability or one ulp below it, so a last-bit change in exp or in the
    # softmax sum flips an edge. Any split of the stream into calls reads it alike.
    gen = np.random.default_rng(11)
    for case in range(300):
        n = int(gen.integers(3, 16))
        A = random_matrix(gen, n)
        out_sums = A.sum(axis=1) - np.diagonal(A)
        placed = [int(np.argmax(1.0 / (out_sums + DEGREE_EPS)))]
        remaining = [v for v in range(n) if v != placed[0]]
        stream = [0.5]
        while remaining:
            if out_sums[remaining].any():
                stream.append(0.5)
            u = remaining.pop(int(np.argmax(out_sums[remaining])))
            weights = np.exp(A[u, placed])
            probs = weights / weights.sum()
            stream.extend(np.where(gen.random(len(placed)) < 0.5, probs, np.nextafter(probs, 0.0)).tolist())
            placed.append(u)
        fast, ref = ScriptedRng(stream), ScriptedRng(stream)
        assert decode_dag(A, 1e-12, fast).to_dict() == reference_decode_dag(A, 1e-12, ref).to_dict(), case
        assert fast.stream == ref.stream == [], case


@pytest.mark.parametrize("n", range(1, 17))
def test_decode_matches_reference_when_every_out_degree_sum_is_zero(n):
    # Every top-p falls back to rng.integers.
    for A in (np.zeros((n, n)), np.diag(np.random.default_rng(n).random(n))):
        for p in (0.3, 0.8, 1.0):
            for seed in range(3):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert decode_dag(A, p, fast).to_dict() == reference_decode_dag(A, p, ref).to_dict(), (p, seed)
                assert fast.bit_generator.state == ref.bit_generator.state, (p, seed)


def boundary_matrix(gen, n, zero_rows, kind):
    """Uniform entries with ``zero_rows`` all-zero off-diagonal rows, then one odd entry of ``kind``."""
    A = gen.random((n, n))
    for r in gen.permutation(n)[:zero_rows]:
        A[r, np.arange(n) != r] = 0.0
    i, j = (int(x) for x in gen.integers(n, size=2))
    if kind == "nan":
        A[i, j] = np.nan
    elif kind == "inf":
        A[i, j] = np.inf
    elif kind == "every_sum_inf":
        A[np.arange(n), (np.arange(n) + 1) % n] = np.inf
    elif kind == "negative":  # a negative sum, raised on by the first top-p that sees it
        A[i, j] = -float(n)
    elif kind == "slightly_negative":  # above -DEGREE_EPS: the end's top-p takes it without raising
        A[i, np.arange(n) != i] = 0.0
        A[i, (i + 1) % n] = -1e-7
    return A


def decode_or_error(decode, A, p, rng):
    try:
        return decode(A, p, rng).to_dict()
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("n", range(1, 16))
def test_decode_matches_reference_at_the_block_boundary(n):
    # With z all-zero off-diagonal rows the one-call block ends before placement
    # n - z, whose top-p may fall back to rng.integers; a negative, NaN or inf
    # least sum draws no block, so a raising decode also leaves the reference's
    # state. Each generator holds a buffered 32-bit half left by rng.integers,
    # which a double draw must not consume.
    gen = np.random.default_rng(300 + n)
    kinds = ("plain", "nan", "inf", "every_sum_inf", "negative", "slightly_negative")
    for zero_rows in range(n):
        for case, kind in enumerate(kinds):
            A = boundary_matrix(gen, n, zero_rows, kind)
            p = (0.3, 0.8, 1.0, 1e-12)[(zero_rows + case) % 4]
            fast, ref = np.random.default_rng(case), np.random.default_rng(case)
            fast.integers(10), ref.integers(10)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = decode_or_error(reference_decode_dag, A, p, ref)
            assert decode_or_error(decode_dag, A, p, fast) == expected, (zero_rows, kind, p)
            assert fast.bit_generator.state == ref.bit_generator.state, (zero_rows, kind, p)


def signed_sum_matrix(gen, n, kind):
    """Rows of -0.0 entries, rows of signed entries whose in-order sum is exactly 0.0, or a sum at -DEGREE_EPS."""
    A = gen.random((n, n))
    rows = gen.permutation(n)[: int(gen.integers(1, n + 1))]
    for r in rows:
        off = np.arange(n) != r
        if kind == "negative_zeros":
            A[r, off] = np.where(gen.random(n - 1) < 0.5, -0.0, A[r, off] * (gen.random() < 0.5))
            A[r, r] = (-0.0, 0.0, 0.7)[int(gen.integers(3))]
        elif kind == "cancelling":  # exactly 0.0 in numpy's order, which is the in-order sum below 8 terms
            A[r] = (gen.random(n) - 0.5) * 10.0 ** gen.uniform(-3, 3)
            A[r, r] = 0.0
            last = np.flatnonzero(off)[-1]
            A[r, last] = 0.0
            A[r, last] = -np.add.reduce(A[r])
        else:  # one entry at, just below or just above -DEGREE_EPS, the most negative sum the end's top-p takes
            A[r, off] = 0.0
            A[r, (r + 1) % n] = -DEGREE_EPS * (1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 0.5)[int(gen.integers(4))]
    return A


@pytest.mark.parametrize("n", range(2, 10))
def test_decode_matches_reference_on_signed_zero_cancelling_and_near_negative_sums(n):
    # Out-degree sums of fewer than 8 terms (n < 8) are added in order from 0.0, those of 8 or more by numpy.
    # A row summing to exactly 0.0 takes the zero-sum block cut and, where every score is 0.0, the rng.integers
    # fallback; a sum at or below -DEGREE_EPS raises before any draw. Half the generators hold a buffered 32-bit half.
    gen = np.random.default_rng(700 + n)
    for kind in ("negative_zeros", "cancelling", "near_negative"):
        for case in range(60):
            A = signed_sum_matrix(gen, n, kind)
            p = (0.3, 0.8, 1.0, 1e-12)[case % 4]
            fast, ref = np.random.default_rng(case), np.random.default_rng(case)
            if case % 2:
                fast.integers(10), ref.integers(10)
            with np.errstate(invalid="ignore", over="ignore"):  # a cancelling entry may overflow exp
                expected = decode_or_error(reference_decode_dag, A, p, ref)
                assert decode_or_error(decode_dag, A, p, fast) == expected, (kind, case, p)
            assert fast.bit_generator.state == ref.bit_generator.state, (kind, case, p)


def test_decode_ranks_each_top_p_by_probability_not_by_raw_sum():
    # Nodes 1 and 2 have out-degree sums x < nextafter(x) that divide by the
    # placement's total to the same probability, so the stable sort keeps
    # node 1, the lower index, first; ranking the nodes once by raw sum would
    # put node 2 first. Each row has one non-zero off-diagonal entry, so the
    # sums are exact, and node 0's small sum makes it the end at both p.
    gen = np.random.default_rng(17)
    while True:
        x, y = gen.uniform(0.3, 1.0), gen.uniform(0.05, 0.3)
        x_up = float(np.nextafter(x, 2.0))
        total = x + x_up + y
        if x / total == x_up / total:
            break
    A = np.zeros((4, 4))
    A[0, 1], A[1, 2], A[2, 3], A[3, 0] = 1e-3, x, x_up, y
    for p in (1e-12, 0.8):
        for seed in range(20):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert decode_dag(A, p, fast).to_dict() == reference_decode_dag(A, p, ref).to_dict(), (p, seed)
            assert fast.bit_generator.state == ref.bit_generator.state, (p, seed)


def test_decode_draws_no_edge_where_every_exp_underflows():
    # Node 1's only placed entry is -1000, whose exp is 0, so its softmax total
    # is 0: the reference's 0 / 0 draws no edge and the fallback edge is wired.
    A = [[0, 0.001, 0], [-1000, 0, 2000], [0.5, 0.5, 0]]
    for p in (1e-12, 0.8):
        for seed in range(20):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = reference_decode_dag(A, p, ref)
                dag = decode_dag(A, p, fast)
            assert dag.to_dict() == expected.to_dict(), (p, seed)
            assert fast.bit_generator.state == ref.bit_generator.state, (p, seed)
            assert (1, 0) in dag.edges
    with np.errstate(over="ignore"):
        assert decode_dag(A, 1e-12, np.random.default_rng(0)).edges == {(1, 0), (2, 0)}


def test_an_overflowing_sum_raises_a_value_error_naming_it():
    A = [[0, 1e308, 0], [0, 0, 1e308], [1e308, 0, 0]]
    calls = [(decode, A) for decode in (decode_dag, reference_decode_dag)]
    calls += [(sample, [1e308, 1e308]) for sample in (top_p_sample, reference_top_p_sample)]
    for function, scores in calls:
        with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
            function(scores, 0.8, np.random.default_rng(0))


# Out-degree sums that are not all finite: a row summing to inf, an infinite entry and a NaN entry.
NON_FINITE_MATRICES = (
    [[0, 1e308, 1e308], [1, 0, 1], [1, 1, 0]],
    [[0, np.inf, 0], [1, 0, 1], [1, 1, 0]],
    [[0, 0.5, 0.5], [1, 0, np.nan], [1, 1, 0]],
)


def test_non_finite_out_degree_sums_raise_before_any_draw():
    for A in NON_FINITE_MATRICES:
        for decode in (decode_dag, reference_decode_dag):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="out-degree sums must be finite"), np.errstate(over="ignore"):
                decode(A, 0.8, rng)
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    for scores in ([1.0, np.nan], [np.inf, 1.0], [0.5, -np.inf]):
        for sample in (top_p_sample, reference_top_p_sample):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="scores must be finite"):
                sample(scores, 0.8, rng)
            assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def overflow_matrix(n, big=1e308):
    """Out-degree sums of ``big`` each, finite, whose top-p total over the n - 1 nodes left after the end overflows."""
    A = np.zeros((n, n))
    A[np.arange(n), (np.arange(n) + 1) % n] = big
    return A


def test_an_overflowing_top_p_total_raises_with_the_references_generator_state():
    # n >= 9 leaves 8 or more nodes after the end, whose total numpy's reduction adds.
    gen = np.random.default_rng(21)
    matrices = [overflow_matrix(n) for n in (3, 9, 10, 12, 16)]
    for n in (9, 10, 13):  # uniform entries beside the overflowing ones, and one all-zero row
        A = gen.random((n, n)) + overflow_matrix(n, 6e307)
        A[0, 1:] = 0.0
        matrices.append(A)
    for A in matrices:
        for p in (1e-12, 0.3, 0.8, 1.0):
            for seed in range(3):
                fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for decode, rng in ((decode_dag, fast), (reference_decode_dag, ref)):
                    with pytest.raises(ValueError, match="scores overflow"), np.errstate(over="ignore"):
                        decode(A, p, rng)
                assert fast.bit_generator.state == ref.bit_generator.state, (len(A), p, seed)
    fast, ref = np.random.default_rng(0), np.random.default_rng(0)
    for sample, rng in ((top_p_sample, fast), (reference_top_p_sample, ref)):
        with pytest.raises(ValueError, match="scores overflow"), np.errstate(over="ignore"):
            sample([1e308] * 9, 0.8, rng)
    assert fast.bit_generator.state == ref.bit_generator.state == np.random.default_rng(0).bit_generator.state


class CountingRng:
    """A generator that counts its calls."""

    def __init__(self, seed):
        self.gen, self.calls = np.random.default_rng(seed), 0

    def random(self, size=None):
        self.calls += 1
        return self.gen.random(size)


def test_decode_draws_in_one_call_when_no_sum_is_zero():
    gen = np.random.default_rng(12)
    for n in range(2, 16):
        rng = CountingRng(n)
        decode_dag(gen.random((n, n)), 0.8, rng)
        assert rng.calls == 1, n


def test_top_p_matches_numpy_reference():
    gen = np.random.default_rng(99)
    for case in range(5000):
        k = int(gen.integers(1, 16))
        scores = gen.random(k)
        kind = case // 4 % 5
        if kind == 0:
            scores = np.zeros(k)
        elif kind == 1:
            scores = np.round(np.where(gen.random(k) < 0.5, 0.0, scores), 1)
        elif kind == 2:
            scores = scores * 1e-8
        elif kind == 3:
            scores = scores * 1e8
        p = random_p(gen, case)
        fast, ref = np.random.default_rng(case), np.random.default_rng(case)
        assert top_p_sample(scores, p, fast) == reference_top_p_sample(scores, p, ref), (case, p)
        assert fast.bit_generator.state == ref.bit_generator.state, case
