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
from dagswarm.utilities import AffineTargetUtility, ConstantUtility, DagRecoveryUtility, json_array


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


def test_dataset_item_results_are_exact_matches_in_item_order():
    items = [{"input": "2+2", "answer": " 4\n"}, {"input": "3+3", "answer": "6"}, {"input": "1+1", "answer": "2"}]
    utility = DatasetUtility(items, CannedEvaluator({"2+2": "4 ", "3+3": "7", "1+1": "2"}))
    dag = DagStructure(1, 0, frozenset(), (0,))
    outputs, scores = utility.item_results(dag, Assignment.identity(1), [np.zeros(1)])
    assert outputs == ["4 ", "7", "2"] and scores == [1.0, 0.0, 1.0]
    assert utility.evaluate(dag, Assignment.identity(1), [np.zeros(1)]) == utility.mean(scores) == 2 / 3


def test_affine_item_results_are_per_item_outputs_and_negated_errors():
    utility = make_affine_task(np.random.default_rng(4), n=4, points=5)
    pool = np.random.default_rng(5).uniform(-0.9, 0.9, (4, 6))
    outputs, scores = utility.item_results(diamond_dag(), Assignment.identity(4), pool)
    error = 0.0
    for output, score, x, y in zip(outputs, scores, utility.inputs, utility.targets, strict=True):
        alone = execute(diamond_dag(), Assignment.identity(4), pool, Message(x), AffineEvaluator()).payload
        assert output == alone.tolist()
        assert score == -float(np.sum((alone - y) ** 2))
        error += -score
    assert utility.evaluate(diamond_dag(), Assignment.identity(4), pool) == -error / 5


def test_mean_of_negated_errors_keeps_the_bits_of_the_negated_mean_error():
    utility = make_affine_task(np.random.default_rng(0), points=4)
    rng = np.random.default_rng(6)
    for errors in [[0.0] * 4, *rng.exponential(size=(2000, 4)) ** rng.integers(-3, 4, size=(2000, 1))]:
        total = 0.0
        for item_error in np.asarray(errors).tolist():
            total += item_error
        assert utility.mean([-e for e in np.asarray(errors).tolist()]).hex() == (-total / 4).hex()


def test_affine_task_at_zero_error_scores_negative_zero():
    inputs = np.random.default_rng(1).uniform(-1, 1, (4, 2))
    pool = np.random.default_rng(2).uniform(-0.9, 0.9, (3, 6))
    targets = execute(chain_dag(3), Assignment.identity(3), pool, Message(inputs), AffineEvaluator()).payload
    exact = AffineTargetUtility(inputs, targets)
    assert exact.evaluate(chain_dag(3), Assignment.identity(3), pool).hex() == (-0.0).hex()


@pytest.mark.parametrize("inputs,targets", [
    (np.zeros((3, 2)), np.zeros((3, 3))),  # mismatched
    (np.zeros((0, 2)), np.zeros((0, 2))),  # empty
    (np.zeros(2), np.zeros(2)),  # 1-d
])
def test_affine_target_needs_non_empty_k_by_d_arrays_of_equal_shape(inputs, targets):
    with pytest.raises(ValueError, match="^inputs and targets must be non-empty"):
        AffineTargetUtility(inputs, targets)


@pytest.mark.parametrize("utility", [ConstantUtility(1.0), DagRecoveryUtility(chain_dag(2))], ids=lambda u: type(u).__name__)
def test_a_utility_over_no_items_has_no_item_results(utility):
    with pytest.raises(ValueError, match=f"^{type(utility).__name__} scores no items$"):
        utility.item_results(chain_dag(2), Assignment.identity(2), np.zeros((2, 6)))


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


class InstantEvaluator(NodeEvaluator):
    """Returns the task input at once, so a test of ``execute``'s count spends its time in ``execute``."""

    def run(self, dag, assignment, pool, task_input):
        return task_input


class PropertyCountEvaluator(InstantEvaluator):
    """Reads and writes ``calls`` through Python code, so a thread switch can fall between the two."""

    @property
    def calls(self):
        return self._count

    @calls.setter
    def calls(self, value):
        self._count = value


@pytest.mark.parametrize("evaluator_type", [InstantEvaluator, PropertyCountEvaluator])
def test_evaluator_calls_exact_under_threads(evaluator_type):
    evaluator = evaluator_type()
    task, rounds, threads = Message("q"), 20_000, 8
    assignment, pool = Assignment.identity(1), [np.zeros(1)]

    def hammer():
        for _ in range(rounds):
            execute(DAG1, assignment, pool, task, evaluator)

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


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null", '{"input": "a" "answer": "b"}'])
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


@pytest.mark.parametrize("spec,key", [
    ({"name": "affine_target", "n": 2.7}, "n"),
    ({"name": "affine_target", "points": "5"}, "points"),
    ({"name": "affine_target", "dim": True}, "dim"),
    ({"name": "affine_target", "scale": "0.5"}, "scale"),
    ({"name": "hidden_dag", "n": 4.0}, "n"),
    ({"name": "hidden_dag", "target": ["chain"]}, "target"),
    ({"name": ["constant"]}, "name"),
    ({"name": "constant", "value": True}, "value"),
    ({"name": "dataset", "path": 5}, "path"),
])
def test_build_utility_rejects_an_option_of_the_wrong_json_type_by_name(spec, key):
    # open() takes an integer path as a file descriptor, so `path` is checked before the dataset is read.
    with pytest.raises(ValueError) as caught:
        build_utility(spec, RngFactory(0).stream("task"), CannedEvaluator({}))
    value = spec[key]
    assert str(caught.value) == f"utility_spec field {key!r} cannot be read: {value!r} is a {type(value).__name__}"


@pytest.mark.parametrize("spec,key,rule", [
    ({"name": "hidden_dag", "n": 0}, "n", ">= 1"),
    ({"name": "hidden_dag", "n": -3}, "n", ">= 1"),
    ({"name": "affine_target", "dim": 0}, "dim", ">= 1"),
    ({"name": "affine_target", "n": 0}, "n", ">= 1"),
    ({"name": "affine_target", "points": 0}, "points", ">= 1"),
    (json.loads('{"name": "affine_target", "scale": NaN}'), "scale", "finite"),
    (json.loads('{"name": "affine_target", "scale": Infinity}'), "scale", "finite"),
    (json.loads('{"name": "constant", "value": NaN}'), "value", "finite"),
    (json.loads('{"name": "constant", "value": -Infinity}'), "value", "finite"),
])
def test_build_utility_rejects_an_out_of_range_option_by_name(spec, key, rule):
    rng = RngFactory(0).stream("task")
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as caught:
        build_utility(spec, rng)
    assert str(caught.value) == f"utility_spec field {key!r} must be {rule}, got {spec[key]}"
    assert rng.bit_generator.state == state  # rejected before any task was drawn


def test_hidden_dag_declares_its_node_count():
    rng = RngFactory(0).stream("task")
    assert build_utility({"name": "hidden_dag", "n": 5}, rng).node_count == 5
    for spec in ({"name": "constant"}, {"name": "affine_target", "n": 5}):
        assert build_utility(spec, rng).node_count is None


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


def test_json_array_reads_numbers_as_floats_and_flags_as_booleans():
    numbers = json_array([[1, 2.5], [-3, 0.0]], "m", 2)
    assert numbers.dtype == float and numbers.tolist() == [[1.0, 2.5], [-3.0, 0.0]]
    flags = json_array([[True], [False]], "f", 2, kinds=(bool,))
    assert flags.dtype == bool and flags.tolist() == [[True], [False]]


@pytest.mark.parametrize("value,ndim,kinds,message", [
    (["0.5", True, 2], 1, (int, float), "m element [0] is '0.5', a str, not int or float"),
    ([0.5, True], 1, (int, float), "m element [1] is True, a bool, not int or float"),
    ([0.5, None], 1, (int, float), "m element [1] is None, a NoneType, not int or float"),
    ([[0.5, 1], [0.1, "x"]], 2, (int, float), "m element [1][1] is 'x', a str, not int or float"),
    ([[True], ["no"]], 2, (bool,), "m element [1][0] is 'no', a str, not bool"),
    ([True, 1], 1, (bool,), "m element [1] is 1, a int, not bool"),
    ([[0.1, 0.2], [0.3]], 2, (int, float), "m element [1] has 1 entries, not 2 as the rows before it"),
    ([[0.1], [0.2, 0.3]], 2, (int, float), "m element [1] has 2 entries, not 1 as the rows before it"),
    ([[[0.1]]], 2, (int, float), "m element [0][0] is [0.1], a list, not int or float"),
    ([[0.1], 0.2], 2, (int, float), "m element [1] must be a non-empty list, not a float"),
    ({"matrix": [[0.1]]}, 2, (int, float), "m must be a non-empty list, not a dict"),
    ([], 1, (int, float), "m must be a non-empty list, not []"),
    ([[0.1], []], 2, (int, float), "m element [1] must be a non-empty list, not []"),
], ids=["str", "bool-in-numbers", "null", "nested-str", "str-in-flags", "int-in-flags", "short-row", "long-row",
        "too-deep", "too-shallow", "object", "empty", "empty-row"])
def test_json_array_names_a_bad_element_by_its_index_path(value, ndim, kinds, message):
    with pytest.raises(ValueError) as caught:
        json_array(value, "m", ndim, kinds)
    assert str(caught.value) == message
