from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from dagswarm import GRID, PsoHyperparams, RngFactory, Swarm, pso_step
from dagswarm import pso
from dagswarm.pso import sample_grid_hyperparams


def in_grid(hp: PsoHyperparams) -> bool:
    return all(getattr(hp, name) in values for name, values in GRID.items())


class ScriptedRng:
    """Generator stand-in replaying fixed doubles; its bit-generator state is the read position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.bit_generator = self
        self.state = 0

    def random(self, size):
        n = int(np.prod(size))
        if self.state + n > len(self.values):
            raise IndexError("script exhausted")
        out = self.values[self.state : self.state + n]
        self.state += n
        return out.reshape(size)


# --- the per-particle step the array step replaces, kept as the reference


@dataclass
class _Particle:
    position: np.ndarray
    velocity: np.ndarray
    personal_best: np.ndarray
    personal_best_score: float


def _reference_pso_step(swarm: Swarm, scores, hp, rng) -> Swarm:
    particles = [
        _Particle(x, v, p, float(s))
        for x, v, p, s in zip(swarm.positions, swarm.velocities, swarm.personal_best, swarm.personal_best_scores)
    ]
    best, best_score = swarm.global_best, swarm.global_best_score
    worst, worst_score = swarm.global_worst, swarm.global_worst_score
    updated = []
    for part, score in zip(particles, scores):
        score = float(score)
        if score > part.personal_best_score:
            part = replace(part, personal_best=part.position.copy(), personal_best_score=score)
        if score > best_score:
            best_score = score
            best = part.position.copy()
        if score < worst_score:
            worst_score = score
            worst = part.position.copy()
        updated.append(part)
    moved = []
    for part in updated:
        a_v, a_p, a_g, a_w, c = pso._draw_coefficients(hp, rng)
        velocity = (
            a_v * part.velocity
            + a_p * (part.personal_best - part.position)
            + a_g * (best - part.position)
            - a_w * (worst - part.position)
        ) / c
        position = part.position + hp.step_length * velocity
        moved.append(replace(part, position=position, velocity=velocity))
    return Swarm(
        np.array([p.position for p in moved]),
        np.array([p.velocity for p in moved]),
        np.array([p.personal_best for p in moved]),
        np.array([p.personal_best_score for p in moved]),
        best, best_score, worst, worst_score,
    )


def _assert_same_swarm(got: Swarm, want: Swarm) -> None:
    for name, value in vars(want).items():
        other = getattr(got, name)
        if value is None:
            assert other is None, name
        else:
            assert np.array_equal(other, value, equal_nan=True), name


def _random_swarm(stream, n: int, shape: tuple, prefilled: bool) -> Swarm:
    swarm = Swarm.from_positions(stream.uniform(0, 1, (n, *shape)))
    if not prefilled:
        return swarm
    scores = stream.normal(size=n).round(1)
    scores[stream.random(n) < 0.3] = -np.inf
    return replace(
        swarm,
        velocities=stream.normal(size=(n, *shape)),
        personal_best=stream.uniform(0, 1, (n, *shape)),
        personal_best_scores=scores,
        global_best=stream.uniform(0, 1, shape),
        global_best_score=1.0,
        global_worst=stream.uniform(0, 1, shape),
        global_worst_score=-1.0,
    )


def _random_scores(stream, swarm: Swarm) -> np.ndarray:
    """Rounded normals (ties), some repeating stored personal bests, some NaN or infinite."""
    n = len(swarm)
    scores = stream.normal(scale=1.5, size=n).round(1)
    repeat = stream.random(n) < 0.2
    scores[repeat] = swarm.personal_best_scores[repeat]
    special = stream.choice([np.nan, np.inf, -np.inf], size=n)
    odd = stream.random(n) < 0.15
    scores[odd] = special[odd]
    scores[stream.integers(n)] = round(stream.normal(), 1)  # at least one finite score
    return scores


HPS = (
    PsoHyperparams(),
    PsoHyperparams(step_length=0.5, inertia=0.0, cognitive=0.4, social=0.0, repel=0.1),
    PsoHyperparams(inertia=0.0, cognitive=0.0, social=0.5, repel=0.0),
)


def test_array_step_matches_particle_loop():
    stream = RngFactory(21).stream("task")
    for n, shape, prefilled in itertools.product(range(1, 65), [(5,), (3, 3)], [False, True]):
        swarm = _random_swarm(stream, n, shape, prefilled)
        scores = _random_scores(stream, swarm)
        hp = HPS[n % len(HPS)]
        got_rng, want_rng = RngFactory(n).stream("role_pso", 0), RngFactory(n).stream("role_pso", 0)
        got = pso_step(swarm, scores, hp, got_rng)
        want = _reference_pso_step(swarm, scores, hp, want_rng)
        _assert_same_swarm(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_array_step_matches_particle_loop_over_a_run():
    # records fill in over the steps, so later steps start from earlier ones
    for seed, shape in itertools.product(range(4), [(4,), (4, 4)]):
        stream = RngFactory(seed).stream("task")
        got = want = Swarm.from_positions(stream.uniform(0, 1, (16, *shape)))
        for t in range(12):
            scores = _random_scores(stream, got)
            got = pso_step(got, scores, PsoHyperparams(), RngFactory(seed).stream("role_pso", t))
            want = _reference_pso_step(want, scores, PsoHyperparams(), RngFactory(seed).stream("role_pso", t))
            _assert_same_swarm(got, want)


def test_redraw_path_matches_particle_loop():
    # row 1 draws all zeros, so it redraws before row 2 draws
    swarm = Swarm.from_positions(RngFactory(3).stream("task").uniform(0, 1, (3, 2)))
    script = [0.3, 0.6, 0.2, 0.9, 0.0, 0.0, 0.0, 0.0, 0.5, 0.1, 0.7, 0.4, 0.8, 0.2, 0.6, 0.3]
    got_rng, want_rng = ScriptedRng(script), ScriptedRng(script)
    got = pso_step(swarm, [0.5, 0.1, 0.9], PsoHyperparams(), got_rng)
    want = _reference_pso_step(swarm, [0.5, 0.1, 0.9], PsoHyperparams(), want_rng)
    _assert_same_swarm(got, want)
    assert got_rng.state == want_rng.state == 16


def test_underflowing_draws_take_the_redraw_path_like_particle_loop(monkeypatch):
    # repel alone at 1e-322: a draw below about 0.025 underflows C to 0
    hp = PsoHyperparams(inertia=0.0, cognitive=0.0, social=0.0, repel=1e-322)
    calls = 0
    draw = pso._draw_coefficients

    def counting(*args):
        nonlocal calls
        calls += 1
        return draw(*args)

    monkeypatch.setattr(pso, "_draw_coefficients", counting)
    stream = RngFactory(5).stream("task")
    got = want = Swarm.from_positions(stream.uniform(0, 1, (64, 3)))
    fallbacks = 0
    for t in range(10):
        scores = stream.normal(size=64)
        got_rng, want_rng = RngFactory(5).stream("role_pso", t), RngFactory(5).stream("role_pso", t)
        before = calls
        got = pso_step(got, scores, hp, got_rng)
        fallbacks += calls > before
        want = _reference_pso_step(want, scores, hp, want_rng)
        _assert_same_swarm(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert fallbacks >= 5


@pytest.mark.parametrize("n", [1, 3])
def test_degenerate_draws_raise_after_retries_like_particle_loop(n):
    swarm = Swarm.from_positions(np.zeros((n, 2)))
    got_rng, want_rng = ScriptedRng(np.zeros(64)), ScriptedRng(np.zeros(64))
    with pytest.raises(ArithmeticError):
        pso_step(swarm, [0.0] * n, PsoHyperparams(), got_rng)
    with pytest.raises(ArithmeticError):
        _reference_pso_step(swarm, [0.0] * n, PsoHyperparams(), want_rng)
    assert got_rng.state == want_rng.state == 8 * 4


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        PsoHyperparams(inertia=-0.1)
    with pytest.raises(ValueError):
        PsoHyperparams(inertia=0, cognitive=0, social=0, repel=0)
    with pytest.raises(ValueError):
        PsoHyperparams(step_length=0)
    for name, value in (("inertia", float("nan")), ("step_length", float("inf")), ("step_length", float("nan")),
                        ("repel", float("inf"))):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            PsoHyperparams(**{name: value})
    # defaults are a valid grid point
    assert in_grid(PsoHyperparams())


def test_grid_membership_all_presets_accepted():
    combos = itertools.product(
        GRID["step_length"], GRID["inertia"], GRID["cognitive"], GRID["social"], GRID["repel"]
    )
    for lam, iv, cg, sc, rp in combos:
        hp = PsoHyperparams(step_length=lam, inertia=iv, cognitive=cg, social=sc, repel=rp)
        assert in_grid(hp)


def test_grid_sampling_stays_in_grid():
    rng = RngFactory(7).stream("sweep", 0)
    for _ in range(50):
        assert in_grid(sample_grid_hyperparams(rng))


def test_fixed_point_at_shared_best():
    # x = p = g = g_w = 0 with zero velocity: every pull vanishes
    swarm = replace(
        Swarm.from_positions([np.zeros(3)]),
        global_best=np.zeros(3), global_best_score=1.0, global_worst=np.zeros(3), global_worst_score=-1.0,
    )
    moved = pso_step(swarm, [0.0], PsoHyperparams(), RngFactory(0).stream("role_pso", 0))
    assert np.array_equal(moved.positions, np.zeros((1, 3)))
    assert np.array_equal(moved.velocities, np.zeros((1, 3)))


def test_hand_example_with_pinned_randomness():
    # 1-D: x=0, v=0, p=1, g=2, g_w=-1, all draws forced to 1,
    # coefficients (0.1, 0.3, 0.4, 0.1), step length 1:
    # C = 0.9, v' = (0.3*1 + 0.4*2 - 0.1*(-1)) / 0.9 = 1.2/0.9
    hp = PsoHyperparams(step_length=1.0, inertia=0.1, cognitive=0.3, social=0.4, repel=0.1)
    swarm = Swarm(
        np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]), np.array([5.0]),
        np.array([2.0]), 10.0, np.array([-1.0]), -20.0,
    )
    moved = pso_step(swarm, [-10.0], hp, ScriptedRng(np.ones(4)))
    assert moved.velocities[0, 0] == pytest.approx(1.2 / 0.9, abs=1e-12)
    assert moved.positions[0, 0] == pytest.approx(1.2 / 0.9, abs=1e-12)
    # the -10 score changes no record
    assert np.array_equal(moved.personal_best, [[1.0]])
    assert moved.global_best_score == 10.0
    assert moved.global_worst_score == -20.0
    # the input swarm is left as it was
    assert np.array_equal(swarm.positions, [[0.0]]) and np.array_equal(swarm.velocities, [[0.0]])


def test_records_updated_from_input_scores_before_move():
    swarm = Swarm.from_positions([np.array([0.25, 0.75])])
    moved = pso_step(swarm, [3.0], PsoHyperparams(), RngFactory(1).stream("role_pso", 0))
    # the scored (pre-move) position becomes every record
    assert np.array_equal(moved.personal_best, [[0.25, 0.75]])
    assert moved.personal_best_scores[0] == 3.0
    assert np.array_equal(moved.global_best, [0.25, 0.75])
    assert moved.global_best_score == 3.0
    assert np.array_equal(moved.global_worst, [0.25, 0.75])
    assert moved.global_worst_score == 3.0


def test_monotone_records_over_random_sequence():
    rng = RngFactory(3)
    score_rng = rng.stream("task")
    swarm = Swarm.from_positions(score_rng.uniform(0, 1, (5, 4)))
    best_seen, worst_seen = -np.inf, np.inf
    for t in range(30):
        scores = list(score_rng.normal(size=5))
        swarm = pso_step(swarm, scores, PsoHyperparams(), rng.stream("role_pso", t))
        assert swarm.global_best_score >= best_seen
        assert swarm.global_worst_score <= worst_seen
        best_seen, worst_seen = swarm.global_best_score, swarm.global_worst_score
        assert swarm.global_best_score >= max(scores)
        assert swarm.global_worst_score <= min(scores)
        assert np.all(swarm.personal_best_scores <= swarm.global_best_score)


def test_global_best_ties_to_lowest_index():
    swarm = Swarm.from_positions([[0.0], [1.0], [2.0]])
    moved = pso_step(swarm, [1.0, 1.0, 0.5], PsoHyperparams(), ScriptedRng(np.ones(12)))
    assert np.array_equal(moved.global_best, [0.0])
    moved = pso_step(swarm, [1.0, 0.5, 0.5], PsoHyperparams(), ScriptedRng(np.ones(12)))
    assert np.array_equal(moved.global_worst, [1.0])


def test_degenerate_randomness_errors_after_retries():
    swarm = Swarm.from_positions([np.array([0.5])])
    with pytest.raises(ArithmeticError):
        pso_step(swarm, [0.0], PsoHyperparams(), ScriptedRng(np.zeros(64)))


def test_shape_and_length_validation():
    with pytest.raises(ValueError):
        Swarm.from_positions([np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError):
        pso_step(Swarm.from_positions([np.zeros(2)]), [0.0, 1.0], PsoHyperparams(), ScriptedRng(np.ones(4)))
    with pytest.raises(ValueError):
        pso_step(Swarm.from_positions([]), [], PsoHyperparams(), ScriptedRng(np.ones(4)))


@pytest.mark.parametrize("scores", [[np.nan, np.nan], [-np.inf, np.nan], [np.inf, np.inf]])
def test_no_finite_score_without_a_global_record_raises_before_drawing(scores):
    rng = ScriptedRng(np.ones(8))
    with pytest.raises(ValueError, match="no finite score to set the global best"):
        pso_step(Swarm.from_positions([[0.0], [1.0]]), scores, PsoHyperparams(), rng)
    assert rng.state == 0


def test_all_nan_scores_keep_an_existing_global_record():
    swarm = pso_step(Swarm.from_positions([[0.0], [1.0]]), [1.0, 0.5], PsoHyperparams(), ScriptedRng(np.ones(8)))
    moved = pso_step(swarm, [np.nan, np.nan], PsoHyperparams(), ScriptedRng(np.ones(8)))
    assert (moved.global_best_score, moved.global_worst_score) == (1.0, 0.5)
    assert np.array_equal(moved.global_best, [0.0]) and np.array_equal(moved.global_worst, [1.0])


def test_deterministic_trajectories():
    def run():
        rng = RngFactory(11)
        swarm = Swarm.from_positions(rng.stream("init_matrices").uniform(0, 1, (4, 6)))
        for t in range(10):
            scores = [-float(np.sum(x**2)) for x in swarm.positions]
            swarm = pso_step(swarm, scores, PsoHyperparams(), rng.stream("role_pso", t))
        return swarm.positions

    first, second = run(), run()
    assert np.array_equal(first, second)
