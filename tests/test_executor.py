from __future__ import annotations

import gc
import sys
import threading
import time

import numpy as np
import pytest

from dagswarm import (
    AffineEvaluator,
    Assignment,
    DagStructure,
    ExecutionError,
    Message,
    NodeEvaluator,
    RngFactory,
    chain_dag,
    decode_dag,
    execute,
    node_role,
    star_dag,
)


def affine_params(W, b):
    return np.concatenate([np.asarray(W, dtype=float).ravel(), np.asarray(b, dtype=float)])


IDENTITY_PLUS_ONE = affine_params(np.eye(2), [1.0, 1.0])


class RecordingEvaluator(NodeEvaluator):
    """Echoes the task input; records visit order and roles."""

    def __init__(self):
        super().__init__()
        self.visits: list[tuple[int, str, tuple[int, ...]]] = []

    def evaluate(self, role, params, inputs, task_input, node):
        self.visits.append((node, role, tuple(m.origin for m in inputs)))
        return Message(task_input.payload, origin=node)


def test_single_node_is_end_role():
    dag = DagStructure(1, 0, frozenset(), (0,))
    evaluator = RecordingEvaluator()
    out = execute(dag, Assignment.identity(1), [np.zeros(1)], Message(np.array([7.0])), evaluator)
    assert evaluator.calls == 1
    assert evaluator.visits == [(0, "end", ())]
    assert out.payload[0] == 7.0


def test_node_roles():
    dag = chain_dag(3)
    assert node_role(dag, 0, 0) == "entry"
    assert node_role(dag, 1, 1) == "middle"
    assert node_role(dag, 2, 1) == "end"


def test_chain_affine_composition():
    # chain 0 -> 1 -> 2, every node W=I, b=1, task [0,0]; the task input is
    # aggregated at every node, so the means are 0, 0.5, 0.75 and the
    # output is [1.75, 1.75]
    dag = chain_dag(3)
    pool = [IDENTITY_PLUS_ONE] * 3
    out = execute(dag, Assignment.identity(3), pool, Message(np.zeros(2)), AffineEvaluator())
    assert np.allclose(out.payload, [1.75, 1.75])


def test_affine_identity_passthrough():
    dag = DagStructure(1, 0, frozenset(), (0,))
    params = affine_params(np.eye(2), [0.0, 0.0])
    v = np.array([0.3, -0.7])
    out = execute(dag, Assignment.identity(1), [params], Message(v), AffineEvaluator())
    assert np.allclose(out.payload, v)


def test_affine_hand_case():
    # entry node alone sees only the task input: mean [1,1], W=2I, b=1 -> [3,3]
    dag = DagStructure(1, 0, frozenset(), (0,))
    params = affine_params([[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
    out = execute(dag, Assignment.identity(1), [params], Message(np.ones(2)), AffineEvaluator())
    assert np.allclose(out.payload, [3.0, 3.0])


def test_call_accounting_equals_n():
    rng = RngFactory(0)
    A = rng.stream("init_matrices").uniform(0, 1, (10, 10))
    dag = decode_dag(A, 0.8, rng.stream("decode", 0, 0))
    evaluator = AffineEvaluator()
    pool = [affine_params(np.eye(2), [0.0, 0.0])] * 10
    execute(dag, Assignment.identity(10), pool, Message(np.zeros(2)), evaluator)
    assert evaluator.calls == 10


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment((0, -1))
    dag = chain_dag(2)
    with pytest.raises(ValueError):
        execute(dag, Assignment((0,)), [np.zeros(6)], Message(np.zeros(2)), AffineEvaluator())
    with pytest.raises(ValueError):
        execute(dag, Assignment((0, 5)), [np.zeros(6)], Message(np.zeros(2)), AffineEvaluator())
    with pytest.raises(ValueError, match="^expert pool is empty$"):
        execute(dag, Assignment((0, 0)), [], Message(np.zeros(2)), AffineEvaluator())


def test_evaluator_failure_carries_node_id():
    dag = chain_dag(3)
    pool = [IDENTITY_PLUS_ONE] * 3
    with pytest.raises(ExecutionError) as err:  # the base evaluator defines neither evaluate nor run
        execute(dag, Assignment.identity(3), pool, Message(np.zeros(2)), NodeEvaluator())
    assert err.value.node == 0 and isinstance(err.value.__cause__, NotImplementedError)


def test_repeated_execution_deterministic():
    dag = chain_dag(4)
    pool = [IDENTITY_PLUS_ONE] * 4
    first = execute(dag, Assignment.identity(4), pool, Message(np.zeros(2)), AffineEvaluator())
    second = execute(dag, Assignment.identity(4), pool, Message(np.zeros(2)), AffineEvaluator())
    assert np.array_equal(first.payload, second.payload)


def test_topological_safety_fuzz():
    rng = RngFactory(12)
    init = rng.stream("init_matrices")
    for i in range(200):
        n = int(init.integers(2, 8))
        dag = decode_dag(init.uniform(0, 1, (n, n)), 0.8, rng.stream("decode", 0, i))
        evaluator = RecordingEvaluator()
        out = execute(dag, Assignment.identity(n), [np.zeros(1)] * n, Message(np.zeros(1)), evaluator)
        seen: set[int] = set()
        for node, role, origins in evaluator.visits:
            preds = set(dag.predecessor_lists[node])
            assert preds <= seen  # never before a predecessor
            assert list(origins) == sorted(origins, key=dag.topo_order.index)
            assert set(origins) == preds
            expected = "end" if node == dag.end_node else ("entry" if not preds else "middle")
            assert role == expected
            seen.add(node)
        assert evaluator.visits[-1][0] == dag.end_node
        assert out.origin == dag.end_node


def reference_execute(dag, assignment, pool, x):
    """Per-item affine execution as a straight loop: one item, one W @ mean + b per node.

    The mean adds the task input and then each predecessor's output in
    topological order, and divides once.
    """
    predecessors = {v: [] for v in dag.topo_order}
    for u, v in dag.edges:
        predecessors[v].append(u)
    position = {node: k for k, node in enumerate(dag.topo_order)}
    d = x.shape[0]
    outputs = {}
    for v in dag.topo_order:
        preds = sorted(predecessors[v], key=position.get)
        total = x
        for u in preds:
            total = total + outputs[u]
        mean = total / (len(preds) + 1)
        params = pool[assignment.slots[v]]
        outputs[v] = params[: d * d].reshape(d, d) @ mean + params[d * d :]
    return outputs[dag.end_node]


def decoded_cases():
    """Decoded DAGs with random pools, assignments and stacked inputs over n, d and k."""
    rng = RngFactory(31)
    gen = rng.stream("init_matrices")
    for n in (1, 4, 10):
        for d in (1, 2, 3):
            for k in (1, 5, 16):
                dag = decode_dag(gen.uniform(0, 1, (n, n)), 0.8, rng.stream("decode", n, d * 100 + k))
                pool = [gen.uniform(-1, 1, d * d + d) for _ in range(n)]
                assignment = Assignment(tuple(int(s) for s in gen.integers(n, size=n)))
                yield dag, assignment, pool, gen.uniform(-1, 1, (k, d))


def star_cases():
    """Ten one-element messages of mixed magnitude meet at the end node; numpy's mean would add them pairwise."""
    gen = np.random.default_rng(32)
    for k in (1, 4):
        for _ in range(10):
            pool = [gen.uniform(-1, 1, 2) * 10.0 ** gen.integers(-6, 7, 2) for _ in range(10)]
            yield star_dag(10), Assignment.identity(10), pool, gen.uniform(-1, 1, (k, 1))


def test_batched_execute_matches_per_item_loop():
    for dag, assignment, pool, inputs in [*decoded_cases(), *star_cases()]:
        reference = np.stack([reference_execute(dag, assignment, pool, x) for x in inputs])
        for pool_form in (pool, np.array(pool)):  # a list pool, then an array pool
            batched = execute(dag, assignment, pool_form, Message(inputs), AffineEvaluator()).payload
            alone = np.stack([execute(dag, assignment, pool_form, Message(x), AffineEvaluator()).payload for x in inputs])
            assert batched.shape == inputs.shape
            assert np.array_equal(batched, reference)
            assert np.array_equal(alone, reference)


def test_array_pool_runs_one_pass_and_counts_n_calls_per_item():
    for dag, assignment, pool, inputs in decoded_cases():
        evaluator = AffineEvaluator()
        evaluator.evaluate = None  # the one-pass path never dispatches per node
        evaluator.calls = 7
        out = execute(dag, assignment, np.array(pool), Message(inputs), evaluator)
        assert evaluator.calls == 7 + dag.n * len(inputs)
        assert out.origin == dag.end_node
        execute(dag, assignment, np.array(pool), Message(inputs[0]), evaluator)
        assert evaluator.calls == 7 + dag.n * (len(inputs) + 1)


def test_array_pool_of_the_wrong_width_fails_at_the_first_node():
    dag = decode_dag(np.random.default_rng(34).uniform(0, 1, (5, 5)), 0.8, np.random.default_rng(35))
    with pytest.raises(ExecutionError) as err:
        execute(dag, Assignment.identity(5), np.zeros((5, 7)), Message(np.zeros((3, 2))), AffineEvaluator())
    assert err.value.node == dag.topo_order[0]
    assert str(err.value) == f"evaluator failed at node {dag.topo_order[0]}: expected 6 parameters for dimension 2, got (7,)"


def test_pool_layout_does_not_change_the_output_bytes():
    # The pool is read as one C-ordered array, so outputs depend only on its values.
    for dag, assignment, pool, inputs in [*decoded_cases(), *star_cases()]:
        reference = np.stack([reference_execute(dag, assignment, pool, x) for x in inputs])
        wide = np.zeros((len(pool), 2 * len(pool[0])))
        wide[:, ::2] = pool
        for pool_form in (np.asfortranarray(pool), wide[:, ::2], [list(row) for row in pool]):
            out = execute(dag, assignment, pool_form, Message(inputs), AffineEvaluator()).payload
            assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "payload, message",
    [("text", "could not convert string to float: 'text'"), (3.0, "tuple index out of range")],
)
def test_unreadable_payload_fails_at_the_first_node(payload, message):
    dag = decode_dag(np.random.default_rng(36).uniform(0, 1, (5, 5)), 0.8, np.random.default_rng(37))
    with pytest.raises(ExecutionError) as err:
        execute(dag, Assignment.identity(5), [IDENTITY_PLUS_ONE] * 5, Message(payload), AffineEvaluator())
    assert err.value.node == dag.topo_order[0]
    assert str(err.value) == f"evaluator failed at node {dag.topo_order[0]}: {message}"


@pytest.mark.parametrize("pool, slots, message", [
    ([IDENTITY_PLUS_ONE, IDENTITY_PLUS_ONE, np.zeros(3), IDENTITY_PLUS_ONE], (0, 1, 3), "inhomogeneous shape"),  # a row no node uses
    ([IDENTITY_PLUS_ONE, np.zeros(3), IDENTITY_PLUS_ONE], (0, 1, 2), "inhomogeneous shape"),  # the row node 1 uses
    ([IDENTITY_PLUS_ONE, ["a"] * 6, IDENTITY_PLUS_ONE], (0, 1, 2), "could not convert string to float: 'a'"),
])
def test_pool_numpy_cannot_read_as_one_array_fails_at_the_first_node(pool, slots, message):
    dag = chain_dag(3)
    with pytest.raises(ExecutionError) as err:
        execute(dag, Assignment(slots), pool, Message(np.zeros(2)), AffineEvaluator())
    assert err.value.node == dag.topo_order[0]
    assert isinstance(err.value.__cause__, ValueError) and message in str(err.value)


def test_one_pass_failure_names_the_node_of_the_per_node_loop():
    dag = chain_dag(4)
    pool = np.array([IDENTITY_PLUS_ONE] * 4)
    pool[2] *= 1e308  # the third node overflows
    for pool_form in (pool, list(pool)):
        with np.errstate(over="raise"), pytest.raises(ExecutionError) as err:
            execute(dag, Assignment((0, 1, 2, 3)), pool_form, Message(np.ones((2, 2))), AffineEvaluator())
        assert err.value.node == 2
        assert isinstance(err.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("shape", [(2,), (3,), (1, 2), (16, 1), (16, 2), (4, 3)])
def test_affine_mean_is_numpy_mean_for_payloads_of_more_than_one_element(shape):
    # star_dag(terms)'s end node averages the task input and terms - 1 entry outputs.
    gen = np.random.default_rng(33)
    d = shape[-1]
    for terms in range(1, 13):
        x = gen.uniform(-1, 1, shape) * 10.0 ** gen.integers(-6, 7, shape)
        scales = gen.uniform(-1, 1, terms - 1) * 10.0 ** gen.integers(-6, 7, terms - 1)
        pool = [affine_params(c * np.eye(d), gen.uniform(-1, 1, d)) for c in scales]
        pool.append(gen.uniform(-1, 1, d * d + d))
        W = [params[: d * d].reshape(d, d) for params in pool]
        outs = [np.matmul(W[j], x[..., None])[..., 0] + pool[j][d * d :] for j in range(terms - 1)]
        mean = np.mean([x, *outs], axis=0)
        expected = np.matmul(W[-1], mean[..., None])[..., 0] + pool[-1][d * d :]
        out = execute(star_dag(terms), Assignment.identity(terms), np.array(pool), Message(x), AffineEvaluator())
        assert np.array_equal(out.payload, expected)


def test_batched_payload_counts_one_call_per_item_and_node():
    for dag, assignment, pool, inputs in decoded_cases():
        evaluator = AffineEvaluator()
        evaluator.calls = 7
        execute(dag, assignment, pool, Message(inputs), evaluator)
        assert evaluator.calls == 7 + dag.n * len(inputs)


class FailingAtEvaluator(RecordingEvaluator):
    """Records like ``RecordingEvaluator`` and raises at one node."""

    def __init__(self, node):
        super().__init__()
        self.node = node

    def evaluate(self, role, params, inputs, task_input, node):
        if node == self.node:
            raise RuntimeError(f"no reply at node {node}")
        return super().evaluate(role, params, inputs, task_input, node)


def test_an_execution_that_raises_counts_no_calls():
    dag = chain_dag(4)
    per_node = FailingAtEvaluator(node=2)
    pool = np.array([IDENTITY_PLUS_ONE] * 4)
    pool[2] *= 1e308  # the third node overflows
    for evaluator, payload in [
        (per_node, np.ones((2, 2))),  # the per-node loop fails at a middle node, after two nodes ran
        (AffineEvaluator(), "text"),  # unreadable payload
        (AffineEvaluator(), np.ones((2, 2))),  # the one pass overflows at node 2
    ]:
        evaluator.calls = 7
        with np.errstate(over="raise"), pytest.raises(ExecutionError) as err:
            execute(dag, Assignment.identity(4), pool, Message(payload), evaluator)
        assert evaluator.calls == 7, err.value
    assert [node for node, _, _ in per_node.visits] == [0, 1]


def test_an_empty_item_list_fails_before_the_evaluator_runs():
    dag = chain_dag(3)
    evaluator = RecordingEvaluator()
    with pytest.raises(ValueError, match="^task input payload holds no items$"):
        execute(dag, Assignment.identity(3), ["e0", "e1", "e2"], Message([]), evaluator)
    assert evaluator.visits == [] and evaluator.calls == 0
    # A (0, d) array is a batch of no items: every node runs once and counts nothing.
    out = execute(dag, Assignment.identity(3), [IDENTITY_PLUS_ONE] * 3, Message(np.zeros((0, 2))), AffineEvaluator())
    assert out.payload.shape == (0, 2)
    execute(dag, Assignment.identity(3), [None] * 3, Message(np.zeros((0, 2))), evaluator)
    assert [node for node, _, _ in evaluator.visits] == [0, 1, 2] and evaluator.calls == 0


def test_predecessors_match_rebuilt_lists():
    for dag, _, _, _ in decoded_cases():
        position = {node: k for k, node in enumerate(dag.topo_order)}
        for v in range(dag.n):
            expected = sorted((u for u, w in dag.edges if w == v), key=position.get)
            assert dag.predecessor_lists[v] == tuple(expected)


class ComposingEvaluator(NodeEvaluator):
    """Text outputs that spell out each node's role, expert and inputs, so a mixed-up item or node shows."""

    def evaluate(self, role, params, inputs, task_input, node):
        prior = ",".join(m.payload for m in inputs)
        return Message(f"{role}{node}/{params}({task_input.payload};{prior})", origin=node)


@pytest.mark.parametrize("jobs", [1, 3, 16])
def test_list_payload_equals_one_execute_per_item_in_order(jobs):
    texts = [f"q{k}" for k in range(7)]
    for dag, assignment, _, _ in decoded_cases():
        pool = [f"e{k}" for k in range(dag.n)]
        evaluator = ComposingEvaluator()
        evaluator.jobs = jobs
        batch = execute(dag, assignment, pool, Message(texts), evaluator)
        alone = [execute(dag, assignment, pool, Message(text), ComposingEvaluator()).payload for text in texts]
        assert batch.payload == alone
        assert batch.origin == dag.end_node
        assert evaluator.calls == dag.n * len(texts)


class InFlightEvaluator(ComposingEvaluator):
    """Composing replies after a short wait; records the most items it ever had in flight at once."""

    jobs = 3

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.in_flight = self.high_water = 0

    def run(self, dag, assignment, pool, task_input):
        if isinstance(task_input.payload, list):
            return super().run(dag, assignment, pool, task_input)
        with self.lock:
            self.in_flight += 1
            self.high_water = max(self.high_water, self.in_flight)
        try:
            time.sleep(0.005)
            return super().run(dag, assignment, pool, task_input)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_jobs_bounds_the_items_in_flight_across_threads_sharing_an_evaluator():
    # Four callers race to build the one pool, with frequent thread switches.
    evaluator = InFlightEvaluator()
    dag, pool, names = chain_dag(2), ["e0", "e1"], "abcd"
    outputs = {}

    def one_execution(name):
        texts = [f"{name}{k}" for k in range(12)]
        outputs[name] = execute(dag, Assignment.identity(2), pool, Message(texts), evaluator).payload

    threads = [threading.Thread(target=one_execution, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert 2 <= evaluator.high_water <= 3
    for name in names:
        alone = [execute(dag, Assignment.identity(2), pool, Message(f"{name}{k}"), ComposingEvaluator()).payload
                 for k in range(12)]
        assert outputs[name] == alone
    assert evaluator.calls == len(names) * 2 * 12
    assert len(worker_threads(evaluator)) <= 3
    evaluator.close()


def worker_threads(evaluator) -> set[threading.Thread]:
    return set(evaluator._workers._threads)


def test_close_joins_the_workers_and_a_later_list_payload_builds_a_new_pool():
    evaluator = ComposingEvaluator()
    evaluator.jobs = 3
    dag, pool, texts = chain_dag(2), ["e0", "e1"], [f"q{k}" for k in range(6)]
    first = execute(dag, Assignment.identity(2), pool, Message(texts), evaluator).payload
    workers = worker_threads(evaluator)
    assert 1 <= len(workers) <= 3
    evaluator.close()
    for thread in workers:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in workers)
    assert execute(dag, Assignment.identity(2), pool, Message(texts), evaluator).payload == first
    assert worker_threads(evaluator).isdisjoint(workers)
    evaluator.close()
    evaluator.close()  # a second close, and one before any list payload, does nothing


def test_an_evaluator_dropped_without_close_leaves_no_worker_thread():
    evaluator = ComposingEvaluator()
    evaluator.jobs = 2
    execute(chain_dag(2), Assignment.identity(2), ["e0", "e1"], Message(["q0", "q1", "q2"]), evaluator)
    workers = worker_threads(evaluator)
    assert workers
    del evaluator
    gc.collect()
    for thread in workers:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in workers)
