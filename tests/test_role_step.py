from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    ConstantUtility,
    DatasetUtility,
    NodeEvaluator,
    PsoHyperparams,
    RngFactory,
    SparsityConfig,
    Swarm,
    RunConfig,
    UtilityFunction,
    execute,
    optimize,
    shaped_utility,
    star_dag,
)
from dagswarm.role_step import role_step
from dagswarm.utilities import DagRecoveryUtility


def test_sparsity_config_validation():
    SparsityConfig("threshold", tau=0.1)
    SparsityConfig("l1", l1_coeff=0.05)
    with pytest.raises(ValueError):
        SparsityConfig("bogus")
    with pytest.raises(ValueError):
        SparsityConfig("threshold", tau=1.5)
    with pytest.raises(ValueError):
        SparsityConfig("l1", l1_coeff=-0.1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^l1_coeff must be finite and >= 0, got {value}$"):
            SparsityConfig("l1", l1_coeff=value)


def test_shaped_utility_arithmetic():
    A = np.full((5, 5), 0.4)  # sum of |a| = 10
    assert shaped_utility(0.5, A, SparsityConfig("l1", l1_coeff=0.01)) == pytest.approx(0.4)
    assert shaped_utility(0.5, A, SparsityConfig("l1", l1_coeff=0.0)) == 0.5
    assert shaped_utility(0.5, A, SparsityConfig()) == 0.5
    assert shaped_utility(0.5, A, SparsityConfig("threshold", tau=0.2)) == 0.5


def test_single_particle_constant_utility_fixed_point():
    position = RngFactory(0).stream("init_matrices").uniform(0, 1, (4, 4))
    swarm = Swarm.from_positions([position])
    moved, record = role_step(
        swarm, [], Assignment.identity(4), ConstantUtility(0.25),
        SparsityConfig(), PsoHyperparams(), 0.8, RngFactory(0),
    )
    assert record.utility == 0.25
    assert np.array_equal(moved.positions[0], position)


def test_record_monotone_and_frozen_dag():
    rng = RngFactory(4)
    target = star_dag(4)
    utility = DagRecoveryUtility(target)
    positions = rng.stream("init_matrices").uniform(0, 1, (6, 4, 4))
    swarm = Swarm.from_positions(positions)
    record = None
    last = -np.inf
    for t in range(10):
        swarm, record = role_step(
            swarm, [], Assignment.identity(4), utility,
            SparsityConfig(), PsoHyperparams(), 0.8, rng, t, record,
        )
        assert record.utility >= last
        last = record.utility
        record.dag.validate()
        # the stored DAG is the one that was scored, not a re-decode
        assert record.utility == utility.evaluate(record.dag, Assignment.identity(4), [])
        assert np.all(swarm.positions >= 0.0) and np.all(swarm.positions <= 1.0)


def test_threshold_mode_leaves_matrices_unpruned():
    # with a high tau the decode view is all zeros, but the stored matrix
    # keeps its original entries
    position = np.full((3, 3), 0.4)
    swarm = Swarm.from_positions([position])
    _, record = role_step(
        swarm, [], Assignment.identity(3), ConstantUtility(1.0),
        SparsityConfig("threshold", tau=0.9), PsoHyperparams(), 0.8, RngFactory(1),
    )
    assert np.array_equal(swarm.positions[0], position)
    record.dag.validate()


def test_record_tracks_raw_not_shaped():
    # equal raw scores, so the first particle sets the record; had the
    # record tracked shaped scores, the sparse matrix (smaller L1 penalty)
    # would have overtaken it with 0.855 instead of 0.9
    dense = np.full((3, 3), 1.0)
    sparse = np.full((3, 3), 0.05)
    swarm = Swarm.from_positions([dense, sparse])
    scored = []

    class Recorded(ConstantUtility):
        def evaluate(self, dag, assignment, pool):
            scored.append(dag)
            return super().evaluate(dag, assignment, pool)

    _, record = role_step(
        swarm, [], Assignment.identity(3), Recorded(0.9),
        SparsityConfig("l1", l1_coeff=0.1), PsoHyperparams(), 0.8, RngFactory(2),
    )
    assert record.utility == 0.9
    assert len(scored) == 2 and record.dag is scored[0]  # the DAG decoded from the dense matrix


def test_utility_failure_names_particle():
    class Boom(UtilityFunction):
        def evaluate(self, dag, assignment, pool):
            raise RuntimeError("nope")

    swarm = Swarm.from_positions([np.full((3, 3), 0.5)])
    with pytest.raises(RuntimeError, match="^utility evaluation failed for particle 0: nope$"):
        role_step(
            swarm, [], Assignment.identity(3), Boom(),
            SparsityConfig(), PsoHyperparams(), 0.8, RngFactory(3),
        )


def test_empty_swarm_rejected():
    with pytest.raises(ValueError):
        role_step(
            Swarm.from_positions([]), [], Assignment.identity(3), ConstantUtility(),
            SparsityConfig(), PsoHyperparams(), 0.8, RngFactory(0),
        )


@pytest.fixture()
def decoded(monkeypatch):
    """The DAGs ``role_step`` decodes, in decode order: entry i of a step's slice is particle i's."""
    module = sys.modules["dagswarm.role_step"]
    dags, decode = [], module.decode_dag
    monkeypatch.setattr(module, "decode_dag", lambda *args: dags.append(decode(*args)) or dags[-1])
    return dags


class EchoEvaluator(NodeEvaluator):
    """Text replies that spell out each node's role and inputs, so a score depends on the decoded structure."""

    def __init__(self, jobs=1):
        super().__init__()
        self.jobs = jobs

    def evaluate(self, role, params, inputs, task_input, node):
        return f"{role}{node}({task_input};{','.join(inputs.values())})"


QUESTIONS = [f"q{k}" for k in range(6)]


class GatedEvaluator(EchoEvaluator):
    """Particle 0's first item waits until an item of another particle has started."""

    def __init__(self, decoded):
        super().__init__(jobs=3)
        self.decoded = decoded
        self.other_started = threading.Event()
        self.first_returned = threading.Event()
        self.before_first_returned = []  # per item of another particle: did it start before particle 0's execute returned?

    def run(self, dag, assignment, pool, task_input):
        first = dag is self.decoded[0]
        if isinstance(task_input, list):
            output = super().run(dag, assignment, pool, task_input)
            if first:
                self.first_returned.set()
            return output
        if not first:
            self.before_first_returned.append(not self.first_returned.is_set())
            self.other_started.set()
        elif task_input == QUESTIONS[0]:
            self.other_started.wait(timeout=2)
        return super().run(dag, assignment, pool, task_input)


def test_role_step_starts_the_next_particle_before_a_slow_one_returns(decoded):
    star = star_dag(3)
    items = [
        {"input": q, "answer": execute(star, Assignment.identity(3), [None] * 3, q, EchoEvaluator())
         if k % 2 == 0 else "x"}
        for k, q in enumerate(QUESTIONS)
    ]
    cfg = RunConfig(n_experts=3, matrix_swarm_size=4, max_iterations=2, patience=2, mode="role_only", seed=3)
    gated = GatedEvaluator(decoded)
    system, trace = optimize(cfg, None, DatasetUtility(items, gated))
    assert any(gated.before_first_returned)
    expected_system, expected_trace = optimize(cfg, None, DatasetUtility(items, EchoEvaluator(jobs=1)))
    assert trace.to_jsonl() == expected_trace.to_jsonl()
    assert system.to_json() == expected_system.to_json()
    assert system.best_utility > 0 and gated.calls == trace.total_evaluator_calls
    gated.close()


class ScriptedUtility(UtilityFunction):
    """Scores particle i as i after a short wait; particle 3 fails at once, and particle 1 fails once 3 has."""

    def __init__(self, decoded, jobs):
        self.evaluator = EchoEvaluator(jobs)
        self.decoded = decoded
        self.lock = threading.Lock()
        self.started, self.failed = [], []
        self.third_failed = threading.Event()

    def evaluate(self, dag, assignment, pool):
        i = next(k for k, other in enumerate(self.decoded) if other is dag)
        with self.lock:
            self.started.append(i)
        if i == 1:
            self.third_failed.wait(timeout=2)
        elif i != 3:
            time.sleep(0.05)
        if i in (1, 3):
            with self.lock:
                self.failed.append(i)
            self.third_failed.set()
            raise ValueError(f"no score for particle {i}")
        return float(i)


def test_the_first_failing_particle_in_order_is_named_and_later_ones_never_start(decoded):
    positions = RngFactory(6).stream("init_matrices").uniform(0, 1, (12, 3, 3))
    utility = ScriptedUtility(decoded, jobs=2)
    with pytest.raises(RuntimeError, match="^utility evaluation failed for particle 1: no score for particle 1$"):
        role_step(
            Swarm.from_positions(positions), [], Assignment.identity(3), utility,
            SparsityConfig(), PsoHyperparams(), 0.8, RngFactory(6),
        )
    assert utility.failed == [3, 1]
    assert {0, 1, 2, 3} <= set(utility.started) and len(utility.started) < len(positions)
