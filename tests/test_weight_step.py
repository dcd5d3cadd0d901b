from __future__ import annotations

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    PsoHyperparams,
    RngFactory,
    Swarm,
    UtilityFunction,
    chain_dag,
    contribution_scores,
    make_affine_task,
    sample_assignments,
    star_dag,
    weight_step,
)


def test_hand_case_two_experts():
    # X1 = (m1, m1, m2) scoring 0.9; X2 = (m2, m2, m1) scoring 0.3:
    # score(m1) = (2*0.9 + 1*0.3)/3 = 0.7, score(m2) = (1*0.9 + 2*0.3)/3 = 0.5
    assignments = [Assignment((0, 0, 1)), Assignment((1, 1, 0))]
    scores, counts = contribution_scores(assignments, [0.9, 0.3], 2)
    assert np.array_equal(counts, [[2, 1], [1, 2]])
    assert scores[0] == pytest.approx(0.7, abs=1e-15)
    assert scores[1] == pytest.approx(0.5, abs=1e-15)


def test_uniform_utility_degeneracy():
    rng = RngFactory(0).stream("assignments", 0)
    assignments = sample_assignments(chain_dag(4), 5, 8, rng)
    scores, _ = contribution_scores(assignments, [0.4] * 8, 5)
    assert np.allclose(scores, 0.4)


def test_zero_coverage_gets_mean_utility():
    assignments = [Assignment((0, 0)), Assignment((1, 0))]
    scores, counts = contribution_scores(assignments, [1.0, 0.0], 3)
    assert counts[2].sum() == 0
    assert scores[2] == pytest.approx(0.5)


def test_scores_within_bounds_of_covering_assignments():
    rng = RngFactory(1)
    for case in range(50):
        stream = rng.stream("assignments", case)
        dag = chain_dag(int(stream.integers(2, 6)))
        pool_size = int(stream.integers(1, 7))
        M = int(stream.integers(1, 9))
        assignments = sample_assignments(dag, pool_size, M, stream)
        utilities = stream.normal(size=M)
        scores, counts = contribution_scores(assignments, utilities, pool_size)
        assert np.array_equal(counts.sum(axis=0), [dag.n] * M)
        for i in range(pool_size):
            covering = [utilities[j] for j in range(M) if counts[i, j] > 0]
            if covering:
                assert min(covering) - 1e-12 <= scores[i] <= max(covering) + 1e-12


def test_permutation_equivariance():
    rng = RngFactory(2).stream("assignments", 0)
    assignments = sample_assignments(star_dag(4), 4, 6, rng)
    utilities = rng.normal(size=6)
    scores, _ = contribution_scores(assignments, utilities, 4)
    perm = np.array([2, 0, 3, 1])  # new index of each old expert
    relabeled = [Assignment(tuple(int(perm[s]) for s in a.slots)) for a in assignments]
    permuted, _ = contribution_scores(relabeled, utilities, 4)
    assert np.allclose(permuted[perm], scores)


def test_contribution_scores_validation():
    with pytest.raises(ValueError):
        contribution_scores([], [], 2)
    with pytest.raises(ValueError):
        contribution_scores([Assignment((0,))], [0.1, 0.2], 1)


def test_sample_assignments_single_expert():
    assignments = sample_assignments(chain_dag(3), 1, 4, RngFactory(3).stream("assignments", 0))
    assert all(a.slots == (0, 0, 0) for a in assignments)


def test_sample_assignments_uniform_slots():
    # 25000 x 4 slots, pool of 5: per-expert frequency 0.2 +- 0.02
    rng = RngFactory(4).stream("assignments", 0)
    assignments = sample_assignments(chain_dag(4), 5, 25_000, rng)
    flat = np.concatenate([a.slots for a in assignments])
    freqs = np.bincount(flat, minlength=5) / flat.size
    assert np.all(np.abs(freqs - 0.2) < 0.02)


def test_sample_assignments_coverage_repair():
    # 40 slots can cover 30 experts only through repair
    rng = RngFactory(5).stream("assignments", 0)
    assignments = sample_assignments(star_dag(4), 30, 10, rng)
    seen = {s for a in assignments for s in a.slots}
    assert seen == set(range(30))


def test_sample_assignments_validation():
    rng = RngFactory(6).stream("assignments", 0)
    with pytest.raises(ValueError):
        sample_assignments(chain_dag(2), 0, 3, rng)
    with pytest.raises(ValueError):
        sample_assignments(chain_dag(2), 3, 0, rng)


def test_weight_step_call_accounting_and_report():
    rng = RngFactory(7)
    utility = make_affine_task(rng.stream("task"), n=3, dim=2, points=2)
    experts = Swarm.from_positions([rng.stream("init_experts").uniform(-1, 1, 6) for _ in range(4)])
    dag = chain_dag(3)
    before = utility.evaluator_calls
    moved, report = weight_step(experts, dag, utility, PsoHyperparams(), 5, rng)
    # exactly M * n * |f| node evaluations
    assert utility.evaluator_calls - before == 5 * 3 * 2
    assert len(report.assignments) == 5
    assert report.counts.shape == (4, 5)
    assert moved.global_best_score == max(report.scores)


def test_weight_step_single_expert_mean_score():
    rng = RngFactory(8)
    utility = make_affine_task(rng.stream("task"), n=3, dim=2, points=1)
    experts = Swarm.from_positions([rng.stream("init_experts").uniform(-1, 1, 6)])
    _, report = weight_step(experts, chain_dag(3), utility, PsoHyperparams(), 6, rng)
    assert report.scores[0] == pytest.approx(np.mean(report.utilities))


def test_weight_step_best_score_monotone_across_rounds():
    hits = 0
    for seed in range(10):
        rng = RngFactory(seed)
        utility = make_affine_task(rng.stream("task"), n=3, dim=2, points=2)
        experts = Swarm.from_positions(
            [rng.stream("init_experts").uniform(-1, 1, 6) for _ in range(4)]
        )
        dag = chain_dag(3)
        last = -np.inf
        ok = True
        for t in range(20):
            experts, _ = weight_step(experts, dag, utility, PsoHyperparams(), 4, rng, t)
            ok = ok and experts.global_best_score >= last - 1e-12
            last = experts.global_best_score
        hits += ok
    assert hits >= 8


def test_utility_failure_names_the_assignment_and_its_cause():
    class Boom(UtilityFunction):
        def evaluate(self, dag, assignment, pool):
            raise RuntimeError("nope")

    experts = Swarm.from_positions(np.zeros((2, 6)))
    with pytest.raises(RuntimeError, match="^utility evaluation failed for assignment 0: nope$"):
        weight_step(experts, chain_dag(2), Boom(), PsoHyperparams(), 3, RngFactory(0))
