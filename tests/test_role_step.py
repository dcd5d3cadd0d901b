from __future__ import annotations

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    ConstantUtility,
    PsoHyperparams,
    RngFactory,
    SparsityConfig,
    Swarm,
    UtilityFunction,
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
    # (and thus the record) keeps its original entries
    position = np.full((3, 3), 0.4)
    swarm = Swarm.from_positions([position])
    _, record = role_step(
        swarm, [], Assignment.identity(3), ConstantUtility(1.0),
        SparsityConfig("threshold", tau=0.9), PsoHyperparams(), 0.8, RngFactory(1),
    )
    assert np.array_equal(record.matrix, position)
    record.dag.validate()


def test_record_tracks_raw_not_shaped():
    # equal raw scores, so the first particle sets the record; had the
    # record tracked shaped scores, the sparse matrix (smaller L1 penalty)
    # would have overtaken it with 0.855 instead of 0.9
    dense = np.full((3, 3), 1.0)
    sparse = np.full((3, 3), 0.05)
    swarm = Swarm.from_positions([dense, sparse])
    _, record = role_step(
        swarm, [], Assignment.identity(3), ConstantUtility(0.9),
        SparsityConfig("l1", l1_coeff=0.1), PsoHyperparams(), 0.8, RngFactory(2),
    )
    assert record.utility == 0.9
    assert np.array_equal(record.matrix, dense)


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
