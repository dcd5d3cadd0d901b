from __future__ import annotations

import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from dagswarm import (
    AffineEvaluator,
    Assignment,
    DagStructure,
    DatasetUtility,
    ExecutionError,
    Message,
    NodeEvaluator,
    RngFactory,
    build_utility,
    chain_dag,
    decode_dag,
    edit_distance,
    execute,
    load_dataset,
    make_affine_task,
    normalized_edit_distance,
    star_dag,
)
from dagswarm.utilities import DagRecoveryUtility


def diamond_dag() -> DagStructure:
    return DagStructure(4, 3, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}), (0, 1, 2, 3))


def test_builtin_structures_valid():
    for dag in (chain_dag(2), chain_dag(5), star_dag(4), diamond_dag()):
        dag.validate()


def test_edit_distance_cases():
    assert edit_distance(chain_dag(4), chain_dag(4)) == 0
    # chain 0-1-2-3 vs star {0,1,2}->3: shared edge (2,3); symmetric
    # difference {(0,1),(1,2)} vs {(0,3),(1,3)} -> 4; same end node
    assert edit_distance(chain_dag(4), star_dag(4)) == 4
    # end mismatch adds one
    a = DagStructure(2, 1, frozenset({(0, 1)}), (0, 1))
    b = DagStructure(2, 0, frozenset({(1, 0)}), (1, 0))
    assert edit_distance(a, b) == 3
    with pytest.raises(ValueError):
        edit_distance(chain_dag(3), chain_dag(4))


def test_normalized_edit_distance_range():
    rng = RngFactory(0)
    init = rng.stream("init_matrices")
    from dagswarm import decode_dag

    for i in range(100):
        n = int(init.integers(2, 6))
        a = decode_dag(init.uniform(0, 1, (n, n)), 0.8, rng.stream("decode", 0, i))
        b = decode_dag(init.uniform(0, 1, (n, n)), 0.8, rng.stream("decode", 1, i))
        d = normalized_edit_distance(a, b)
        assert 0.0 <= d <= 1.0
        if a == b:
            assert d == 0.0


def test_recovery_utility_peaks_at_target():
    target = star_dag(4)
    utility = DagRecoveryUtility(target)
    assert utility.evaluate(target, Assignment.identity(4), []) == 1.0
    assert utility.evaluate(chain_dag(4), Assignment.identity(4), []) < 1.0


def test_affine_task_zero_error_at_hidden_system():
    # rebuilding the generator replays the hidden expert draw
    utility = make_affine_task(np.random.default_rng(42), n=4, dim=2, points=4, scale=0.9)
    probe = np.random.default_rng(42)
    shared = probe.uniform(-0.9, 0.9, 6)
    value = utility.evaluate(chain_dag(4), Assignment.identity(4), [shared] * 4)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert utility.dataset_size == 4
    # a perturbed system scores strictly worse
    worse = utility.evaluate(chain_dag(4), Assignment.identity(4), [shared + 0.3] * 4)
    assert worse < value


def test_affine_score_matches_per_item_loop():
    # the stacked evaluation must score exactly as one execution per item
    # with the squared errors added in item order
    rng = RngFactory(9)
    for seed, (n, dim, points) in enumerate([(1, 1, 1), (4, 2, 5), (10, 2, 16), (6, 3, 16)]):
        utility = make_affine_task(rng.stream("task", seed), n=n, dim=dim, points=points)
        gen = rng.stream("init_matrices", seed)
        dag = decode_dag(gen.uniform(0, 1, (n, n)), 0.8, rng.stream("decode", seed))
        pool = [gen.uniform(-1, 1, dim * dim + dim) for _ in range(n)]
        error = 0.0
        for x, y in zip(utility.inputs, utility.targets):
            out = execute(dag, Assignment.identity(n), pool, Message(x), AffineEvaluator())
            error += float(np.sum((out.payload - y) ** 2))
        calls = utility.evaluator_calls
        assert utility.evaluate(dag, Assignment.identity(n), pool) == -error / points
        assert utility.evaluator_calls - calls == n * points


class CannedEvaluator(NodeEvaluator):
    """Maps task text to a fixed reply at the end node."""

    def __init__(self, replies):
        super().__init__()
        self.replies = replies

    def evaluate(self, role, params, inputs, task_input, node):
        return Message(self.replies.get(str(task_input.payload), "dunno"), origin=node)


def test_dataset_utility_exact_match(tmp_path):
    path = tmp_path / "tasks.jsonl"
    items = [{"input": "2+2", "answer": "4"}, {"input": "3+3", "answer": "6"}]
    path.write_text("\n".join(json.dumps(i) for i in items) + "\n")
    loaded = load_dataset(path)
    assert loaded == items
    utility = DatasetUtility(loaded, CannedEvaluator({"2+2": "4", "3+3": "7"}))
    dag = DagStructure(1, 0, frozenset(), (0,))
    assert utility.evaluate(dag, Assignment.identity(1), [np.zeros(1)]) == 0.5
    assert utility.dataset_size == 2


class SlowEvaluator(CannedEvaluator):
    """Canned replies after a short wait, recording the threads and inputs it saw."""

    jobs = 4

    def __init__(self, replies, failures=(), delays=None):
        super().__init__(replies)
        self.failures = failures
        self.delays = delays or {}
        self.threads = set()
        self.started = []

    def evaluate(self, role, params, inputs, task_input, node):
        text = str(task_input.payload)
        self.threads.add(threading.get_ident())
        self.started.append(text)
        time.sleep(self.delays.get(text, 0.002))
        if text in self.failures:
            raise ValueError(f"no reply for {text}")
        return super().evaluate(role, params, inputs, task_input, node)


DAG1 = DagStructure(1, 0, frozenset(), (0,))


def test_dataset_items_run_on_worker_threads_with_the_same_score():
    items = [{"input": f"{k}+{k}", "answer": str(2 * k)} for k in range(12)]
    replies = {f"{k}+{k}": str(2 * k) for k in range(0, 12, 3)}
    sequential = DatasetUtility(items, CannedEvaluator(replies))
    threaded = DatasetUtility(items, SlowEvaluator(replies))
    expected = sequential.evaluate(DAG1, Assignment.identity(1), [np.zeros(1)])
    assert expected == 4 / 12
    assert threaded.evaluate(DAG1, Assignment.identity(1), [np.zeros(1)]) == expected
    assert len(threaded.evaluator.threads) > 1
    assert threading.get_ident() not in threaded.evaluator.threads
    assert threaded.evaluator_calls == sequential.evaluator_calls == 12


def test_first_failing_item_in_order_raises():
    # Item 3 fails at once; item 1 fails later but comes first, as in a sequential loop.
    items = [{"input": str(k), "answer": "x"} for k in range(8)]
    evaluator = SlowEvaluator({}, failures={"1", "3"}, delays={"1": 0.05, "3": 0.0})
    with pytest.raises(ExecutionError, match="no reply for 1"):
        DatasetUtility(items, evaluator).evaluate(DAG1, Assignment.identity(1), [np.zeros(1)])


def test_items_not_started_are_cancelled_after_a_failure():
    items = [{"input": str(k), "answer": "x"} for k in range(40)]
    evaluator = SlowEvaluator({}, failures={"0"}, delays={"0": 0.0})
    evaluator.jobs = 2
    with pytest.raises(ExecutionError, match="no reply for 0"):
        DatasetUtility(items, evaluator).evaluate(DAG1, Assignment.identity(1), [np.zeros(1)])
    assert len(evaluator.started) < len(items) // 2


class PropertyCountEvaluator(CannedEvaluator):
    """Reads and writes ``calls`` through Python code, so a thread switch can fall between the two."""

    @property
    def calls(self):
        return self._count

    @calls.setter
    def calls(self, value):
        self._count = value


@pytest.mark.parametrize("evaluator_type", [CannedEvaluator, PropertyCountEvaluator])
def test_evaluator_calls_exact_under_threads(evaluator_type):
    evaluator = evaluator_type({})
    task, rounds, threads = Message("q"), 20_000, 8

    def hammer():
        for _ in range(rounds):
            evaluator("end", None, [], task, 0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert evaluator.calls == rounds * threads


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
def test_load_dataset_names_the_path_and_line_of_a_non_object(tmp_path, line):
    path = tmp_path / "tasks.jsonl"
    path.write_text(json.dumps({"input": "2+2", "answer": "4"}) + "\n\n" + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: "):
        load_dataset(path)
    # a dataset utility reads its items through load_dataset
    with pytest.raises(ValueError, match=" line 3: "):
        build_utility({"name": "dataset", "path": str(path)}, RngFactory(0).stream("task"), CannedEvaluator({}))


def test_dataset_utility_validation():
    with pytest.raises(ValueError):
        DatasetUtility([], CannedEvaluator({}))
    with pytest.raises(ValueError):
        DatasetUtility([{"input": "x"}], CannedEvaluator({}))


def test_build_utility_registry():
    rng = RngFactory(0).stream("task")
    assert build_utility({"name": "constant", "value": 2.5}, rng).evaluate(None, None, None) == 2.5
    recovery = build_utility({"name": "hidden_dag", "n": 5, "target": "chain"}, rng)
    assert recovery.evaluate(chain_dag(5), Assignment.identity(5), []) == 1.0
    affine = build_utility({"name": "affine_target", "n": 3, "points": 2}, rng)
    assert affine.dataset_size == 2
    with pytest.raises(ValueError):
        build_utility({"name": "nope"}, rng)
    with pytest.raises(ValueError):
        build_utility({"name": "constant", "bogus": 1}, rng)
    with pytest.raises(ValueError):
        build_utility({"name": "hidden_dag", "target": "ring"}, rng)
    with pytest.raises(ValueError):
        build_utility({"name": "dataset", "path": "x.jsonl"}, rng)  # no evaluator
