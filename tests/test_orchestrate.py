from __future__ import annotations

import base64
import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    DatasetUtility,
    OptimizedSystem,
    PsoHyperparams,
    RngFactory,
    RunConfig,
    RunTrace,
    SparsityConfig,
    Swarm,
    TraceRow,
    UtilityFunction,
    build_pool,
    build_utility,
    config_from_dict,
    dropout_gate,
    optimize,
    role_step,
)
from dagswarm.cli import run_cli
from dagswarm.orchestrate import RunState, _pack, _pack_swarm, _unpack, _unpack_swarm, save_checkpoint
from dagswarm.utilities import AffineTargetUtility
from test_golden import GOLDEN, run_digest
from test_utilities import CannedEvaluator


def small_cfg(**overrides):
    base = dict(
        n_experts=4,
        matrix_swarm_size=4,
        assignments_per_step=4,
        max_iterations=6,
        patience=3,
        utility_spec={"name": "affine_target", "n": 4, "points": 2},
    )
    base.update(overrides)
    return RunConfig(**base)


def task_utility(cfg):
    return build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))


def run(cfg, pool=None, **kwargs):
    return optimize(cfg, pool, task_utility(cfg), **kwargs)


def test_defaults_match_reference_settings():
    cfg = config_from_dict({})
    assert cfg.matrix_swarm_size == 10
    assert cfg.assignments_per_step == 10
    assert cfg.top_p == 0.8
    assert cfg.patience == 6
    assert cfg.max_iterations == 20
    # tests/test_pso.py checks that the default hyperparameters are a grid point.
    assert cfg.role_hp == cfg.weight_hp == PsoHyperparams()
    assert (cfg.dropout_role, cfg.dropout_weight) == (0.0, 0.0)
    assert cfg.mode == "full"


def test_config_rejects_unknown_keys_by_name():
    # The task fixes the expert length and pool_repeats the pool spec, so these three are no settings.
    for key in ("bogus", "expert_dim", "expert_scale", "pool_distinct"):
        with pytest.raises(ValueError, match=f"unknown config key: '{key}'"):
            config_from_dict({key: 1})
    with pytest.raises(ValueError, match="role_hp.warp"):
        config_from_dict({"role_hp": {"warp": 1}})
    with pytest.raises(ValueError, match="sparsity.blur"):
        config_from_dict({"sparsity": {"blur": 1}})


@pytest.mark.parametrize("key,value", [("sparsity", "l1"), ("role_hp", 5), ("weight_hp", [0.5]), ("sparsity", None), ("utility_spec", 5)])
def test_config_rejects_non_object_nested_values_by_name(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an object$"):
        config_from_dict({key: value})


@pytest.mark.parametrize("data,message", [
    ({"max_iterations": 2.5}, "config field 'max_iterations' cannot be read: 2.5 is a float"),
    ({"max_iterations": 1e3}, "config field 'max_iterations' cannot be read: 1000.0 is a float"),
    ({"seed": 1.5}, "config field 'seed' cannot be read: 1.5 is a float"),
    ({"n_experts": "4"}, "config field 'n_experts' cannot be read: '4' is a str"),
    ({"n_experts": 4.0}, "config field 'n_experts' cannot be read: 4.0 is a float"),
    ({"n_experts": True}, "config field 'n_experts' cannot be read: True is a bool"),
    ({"top_p": "0.8"}, "config field 'top_p' cannot be read: '0.8' is a str"),
    ({"dropout_role": False}, "config field 'dropout_role' cannot be read: False is a bool"),
    ({"mode": 1}, "config field 'mode' cannot be read: 1 is a int"),
    ({"role_hp": {"inertia": None}}, "role_hp field 'inertia' cannot be read: None is a NoneType"),
    ({"sparsity": {"mode": ["l1"]}}, "sparsity field 'mode' cannot be read: ['l1'] is a list"),
], ids=["iterations-float", "iterations-1e3", "seed-float", "experts-str", "experts-float", "experts-bool",
        "top_p-str", "dropout-bool", "mode-int", "role_hp-null", "sparsity-list"])
def test_config_rejects_a_value_of_the_wrong_json_type_by_name(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


def test_config_float_fields_take_integers():
    cfg = config_from_dict({"top_p": 1, "dropout_weight": 0, "role_hp": {"inertia": 1}, "sparsity": {"tau": 0}})
    assert (cfg.top_p, cfg.dropout_weight, cfg.role_hp.inertia, cfg.sparsity.tau) == (1, 0, 1, 0)

def test_config_range_validation():
    with pytest.raises(ValueError):
        config_from_dict({"sparsity": {"mode": "threshold", "tau": 1.5}})
    with pytest.raises(ValueError):
        config_from_dict({"dropout_role": 1.5})
    with pytest.raises(ValueError):
        config_from_dict({"top_p": 0.0})
    with pytest.raises(ValueError):
        config_from_dict({"mode": "sideways"})
    with pytest.raises(ValueError, match="pool"):
        config_from_dict({"n_experts": 10, "pool_repeats": 3})
    for key in ("n_experts", "matrix_swarm_size", "assignments_per_step", "max_iterations", "patience"):
        with pytest.raises(ValueError, match=f"{key}.* must be >= 1"):
            config_from_dict({key: 0})
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):  # numpy's own error names no field
        config_from_dict({"seed": -1})
    # json reads the NaN and Infinity tokens; a non-finite number is rejected by its field's name
    for text, name in (('{"role_hp": {"inertia": NaN}}', "inertia"), ('{"weight_hp": {"step_length": Infinity}}', "step_length"),
                       ('{"role_hp": {"repel": Infinity}}', "repel"), ('{"sparsity": {"mode": "l1", "l1_coeff": NaN}}', "l1_coeff"),
                       ('{"top_p": NaN}', "top_p"), ('{"dropout_weight": NaN}', "dropout")):
        with pytest.raises(ValueError, match=name):
            config_from_dict(json.loads(text))
    # mixed in-range dropout settings are accepted
    cfg = config_from_dict({"dropout_role": 0.5, "dropout_weight": 0.2})
    assert cfg.dropout_role == 0.5


@pytest.mark.parametrize("repeats", [-2, -1, 0])
def test_pool_spec_factors_must_be_positive(repeats):
    # -2 and -1 divide n_experts, so only the sign check catches them
    with pytest.raises(ValueError, match="must be >= 1"):
        RunConfig(n_experts=4, pool_repeats=repeats)


def test_drawn_pool_takes_its_expert_length_from_the_task():
    cfg = small_cfg(max_iterations=1, utility_spec={"name": "affine_target", "n": 4, "dim": 3, "points": 2})
    assert run(cfg)[0].expert_params.shape == (4, 12)
    for spec in ({"name": "constant"}, {"name": "hidden_dag", "n": 4}):  # they read no expert vector
        assert run(replace(cfg, utility_spec=spec))[0].expert_params.shape == (4, 0)
    repeated = run(replace(cfg, pool_repeats=2, mode="role_only"))[0].expert_params
    assert np.array_equal(repeated[0::2], repeated[1::2]) and not np.array_equal(repeated[0], repeated[2])


@pytest.mark.parametrize("mode", ["role_only", "full"])
def test_a_hidden_dag_of_another_node_count_fails_before_iteration_0(mode, tmp_path):
    cfg = small_cfg(n_experts=4, mode=mode, utility_spec={"name": "hidden_dag", "n": 5})
    utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
    with pytest.raises(ValueError, match="^the utility scores 5-node graphs, but n_experts is 4$"):
        optimize(cfg, None, utility, checkpoint_path=tmp_path / "ck.json")
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_pool_of_one_distinct_expert_never_moves(seed):
    # Weight steps move experts only within the affine hull of the distinct ones, a point here.
    cfg = small_cfg(pool_repeats=4, mode="full", max_iterations=6, patience=6, seed=seed)
    drawn = build_pool(1, 4, 6, RngFactory(seed).stream("init_experts"))
    system, trace = run(cfg)
    assert sum(row.ran_weight for row in trace.rows) == len(trace.rows) == 6
    assert np.array_equal(system.expert_params, drawn)


def test_pool_of_the_wrong_expert_length_rejected_before_any_evaluation():
    cfg = small_cfg()  # affine_target at dim 2 reads experts of length 6
    utility = task_utility(cfg)
    with pytest.raises(ValueError, match=r"shape \(5,\), but the task reads length 6"):
        optimize(cfg, np.zeros((4, 5)), utility)
    assert utility.evaluator_calls == 0
    # A task that reads no expert vector takes no pool, not even an empty one of its width 0.
    for spec in ({"name": "constant"}, {"name": "hidden_dag", "n": 4}):
        for width in (0, 5):
            task = task_utility(replace(cfg, utility_spec=spec))
            scored = []
            task.evaluate = lambda *args: scored.append(args)
            with pytest.raises(ValueError, match="^this task reads no expert vector; give no pool$"):
                optimize(replace(cfg, utility_spec=spec), np.zeros((4, width)), task)
            assert scored == [] and task.evaluator_calls == 0


@pytest.mark.parametrize("mode", ["full", "weight_only"])
def test_parameter_search_over_a_local_text_evaluator_rejected(mode):
    # A dataset task declares no expert_dim: its evaluator never reads the expert vectors a weight step moves.
    utility = DatasetUtility([{"input": "2+2", "answer": "4"}], CannedEvaluator({"2+2": "4"}))
    cfg = RunConfig(n_experts=2, matrix_swarm_size=2, assignments_per_step=2, max_iterations=2, mode=mode)
    with pytest.raises(ValueError, match=f"^mode '{mode}' searches expert parameters"):
        optimize(cfg, None, utility)
    assert utility.evaluator_calls == 0
    system, trace = optimize(replace(cfg, mode="role_only"), None, utility)
    assert utility.evaluator_calls == trace.total_evaluator_calls > 0 and system.best_utility == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pool_with_a_value_that_is_not_finite_rejected_before_any_evaluation(value):
    cfg = small_cfg()
    pool = build_pool(4, 1, 6, RngFactory(0).stream("init_experts"))
    pool[2, 3] = value
    utility = task_utility(cfg)
    with pytest.raises(ValueError, match="^pool expert 2 holds a value that is not finite$"):
        optimize(cfg, pool, utility)
    assert utility.evaluator_calls == 0


def test_config_nested_values_applied():
    cfg = config_from_dict(
        {"role_hp": {"social": 0.6}, "sparsity": {"mode": "l1", "l1_coeff": 0.05}, "seed": 9}
    )
    assert cfg.role_hp.social == 0.6
    assert cfg.sparsity.l1_coeff == 0.05
    assert cfg.seed == 9


def test_dropout_gate_degenerate_cases():
    rng = RngFactory(0).stream("dropout", 0)
    assert all(dropout_gate(0.0, 0.0, rng) == (True, True) for _ in range(50))
    assert all(dropout_gate(1.0, 0.0, rng) == (False, True) for _ in range(50))
    assert all(dropout_gate(0.0, 1.0, rng) == (True, False) for _ in range(50))


def test_dropout_gate_both_skip_runs_smaller_probability():
    # both draws force a skip; the weight step has the smaller dropout
    class Fixed:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    assert dropout_gate(0.9, 0.2, Fixed([0.5, 0.1])) == (False, True)
    assert dropout_gate(0.2, 0.9, Fixed([0.1, 0.5])) == (True, False)
    # tie: the role step runs
    assert dropout_gate(0.5, 0.5, Fixed([0.4, 0.4])) == (True, False)


def test_dropout_gate_role_runs_three_quarters_at_half_half():
    # role runs unless (skip role, not both-skip): 0.5 + 0.25 = 0.75
    rng = RngFactory(1).stream("dropout", 0)
    runs = sum(dropout_gate(0.5, 0.5, rng)[0] for _ in range(10_000))
    assert abs(runs / 10_000 - 0.75) < 0.02


def test_dropout_gate_validation():
    with pytest.raises(ValueError):
        dropout_gate(1.5, 0.0, RngFactory(0).stream("dropout", 0))


def test_full_run_without_dropout_draws_no_dropout_stream(monkeypatch):
    # With both probabilities at 0 the gate can only run both steps, so the
    # loop asks for no stream to feed it; the output bytes stay the golden ones.
    purposes = []
    stream = RngFactory.stream
    monkeypatch.setattr(RngFactory, "stream", lambda self, purpose, *key: purposes.append(purpose) or stream(self, purpose, *key))
    config, digest = GOLDEN["full_affine_chain_n10"]
    assert config["mode"] == "full" and "dropout_role" not in config and "dropout_weight" not in config
    assert run_digest(config) == digest
    assert "dropout" not in purposes and "role_pso" in purposes


@pytest.mark.parametrize("mode", ["full", "role_only", "weight_only"])
def test_constant_utility_stops_after_one_plus_patience(mode):
    cfg = small_cfg(mode=mode, max_iterations=20, patience=4, utility_spec={"name": "constant"})
    _, trace = run(cfg)
    assert len(trace.rows) == 1 + 4


class FirstScoreNanUtility(UtilityFunction):
    """NaN for its first evaluation, then minus the scored DAG's edge count; keeps every score in order."""

    def __init__(self):
        self.scores = []

    def evaluate(self, dag, assignment, pool) -> float:
        self.scores.append(-float(len(dag.edges)) if self.scores else float("nan"))
        return self.scores[-1]


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_a_nan_first_score_does_not_pin_the_role_record():
    cfg = small_cfg(mode="role_only", max_iterations=4, utility_spec={"name": "constant"})
    utility = FirstScoreNanUtility()
    system, trace = optimize(cfg, None, utility)
    rows = [json.loads(line, parse_constant=reject_constant) for line in trace.to_jsonl().splitlines()]
    assert rows[0]["best_role_utility"] == rows[0]["best_utility"] == max(utility.scores[1 : cfg.matrix_swarm_size])
    assert system.best_utility == system.best_role_utility == max(utility.scores[1:])


def test_returned_system_shape_and_validity():
    cfg = small_cfg()
    system, trace = run(cfg)
    system.dag.validate()
    assert system.dag.n == 4
    assert system.assignment.slots == (0, 1, 2, 3)
    assert len(system.expert_params) == 4
    assert system.best_utility >= system.best_role_utility
    payload = json.loads(system.to_json())
    assert payload["format_version"] == 1


def test_trace_best_columns_non_decreasing():
    for mode in ("full", "role_only", "weight_only"):
        cfg = small_cfg(mode=mode, max_iterations=8)
        _, trace = run(cfg)
        role = [r.best_role_utility for r in trace.rows]
        best = [r.best_utility for r in trace.rows]
        assert role == sorted(role)
        assert best == sorted(best)
        assert all(r.evaluator_calls >= 0 for r in trace.rows)


def test_role_only_never_touches_experts():
    pool = build_pool(4, 1, 6, RngFactory(99).stream("init_experts"))
    original = pool.copy()
    cfg = small_cfg(mode="role_only")
    system, _ = run(cfg, pool=pool)
    assert np.array_equal(system.expert_params, original)


def test_optimize_leaves_the_callers_pool_unchanged():
    pool = build_pool(4, 1, 6, RngFactory(99).stream("init_experts"))
    original = pool.copy()
    system, _ = run(small_cfg(mode="full"), pool=pool)
    assert not np.array_equal(system.expert_params, original)  # the weight step moved the experts
    assert np.array_equal(pool, original)


def test_weight_only_keeps_structure_fixed():
    cfg = small_cfg(mode="weight_only", max_iterations=8)
    system, trace = run(cfg)
    role = [r.best_role_utility for r in trace.rows]
    assert all(r == role[0] for r in role)
    assert [row.ran_role for row in trace.rows] == [True] + [False] * (len(trace.rows) - 1)
    assert all(row.ran_weight for row in trace.rows)
    assert system.best_role_utility == role[0]


def test_weight_only_fixes_the_structure_its_first_role_step_records():
    # Threshold pruning applies to the decode that fixes the structure, as in every role step.
    cfg = small_cfg(mode="weight_only", sparsity=SparsityConfig("threshold", tau=0.4))
    records = {}
    for sparsity in (cfg.sparsity, SparsityConfig()):
        rng = RngFactory(cfg.seed)
        state = RunState.initial(cfg, None, task_utility(cfg).expert_dim, rng)
        _, records[sparsity.mode] = role_step(
            state.matrix_swarm, state.expert_swarm.positions, Assignment.identity(cfg.n_experts),
            task_utility(cfg), sparsity, cfg.role_hp, cfg.top_p, rng, 0,
        )
    assert records["threshold"].dag != records["none"].dag  # the pruning changes this seed's structure
    system, trace = run(cfg)
    assert system.dag == records["threshold"].dag
    assert system.best_role_utility == trace.rows[0].best_role_utility == records["threshold"].utility


def test_trace_rows_count_every_evaluator_call(tmp_path, capsys):
    variants = [
        ("full", {}), ("full", {"dropout_role": 0.5, "dropout_weight": 0.5}), ("role_only", {}), ("weight_only", {}),
    ]
    for mode, overrides in variants:
        cfg = small_cfg(mode=mode, seed=2, **overrides)
        utility = task_utility(cfg)
        _, trace = optimize(cfg, None, utility)
        assert sum(row.evaluator_calls for row in trace.rows) == utility.evaluator_calls, (mode, overrides)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(asdict(cfg)))
    assert run_cli(["optimize", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert json.loads(capsys.readouterr().out)["evaluator_calls"] == utility.evaluator_calls


def test_trace_serialization_omits_wall_time_and_is_stable():
    cfg = small_cfg()
    _, first = run(cfg)
    _, second = run(cfg)
    assert first.to_jsonl() == second.to_jsonl()
    record = json.loads(first.to_jsonl().splitlines()[0])
    assert "wall_time_s" not in record
    assert set(record) == {
        "iteration", "ran_role", "ran_weight", "best_role_utility",
        "best_utility", "best_contribution", "evaluator_calls",
    }
    assert all(row.wall_time_s >= 0 for row in first.rows)


PINNED_ROWS = [
    TraceRow(0, False, True, float("-inf"), -0.25, None, 12, 0.5),
    TraceRow(1, True, True, 0.1, 0.30000000000000004, 0.125, 40, 0.25),
    TraceRow(2, True, False, 0.75, 0.75, None, 20),
]
# The table the earlier metrics.trace_csv wrote for PINNED_ROWS.
PINNED_CSV = (
    "iteration,ran_role,ran_weight,best_role_utility,best_utility,best_contribution,evaluator_calls\n"
    "0,0,1,-inf,-0.25,,12\n"
    "1,1,1,0.1,0.30000000000000004,0.125,40\n"
    "2,1,0,0.75,0.75,,20\n"
)


def test_trace_jsonl_round_trips():
    _, real = run(small_cfg(dropout_role=0.4, dropout_weight=0.4))
    for trace in (RunTrace(PINNED_ROWS), real, RunTrace()):
        assert RunTrace.from_jsonl(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()


def test_trace_csv_matches_the_pinned_table():
    trace = RunTrace(PINNED_ROWS)
    assert trace.to_csv() == PINNED_CSV
    assert RunTrace.from_jsonl(trace.to_jsonl()).to_csv() == PINNED_CSV


GOOD_LINE = RunTrace(PINNED_ROWS[:1]).to_jsonl().strip()
GOOD_RECORD = json.loads(GOOD_LINE)


@pytest.mark.parametrize(
    "line,message",
    [
        ("[1, 2]", "trace line 3: a trace row must be a JSON object"),
        ("{bad", "trace line 3: Expecting property name enclosed in double quotes at column 2"),
        (
            json.dumps({key: value for key, value in GOOD_RECORD.items() if key != "evaluator_calls"}),
            "trace line 3 has no 'evaluator_calls' field",
        ),
        (json.dumps({**GOOD_RECORD, "wall_time_s": 0.5}), "trace line 3: unknown field 'wall_time_s'"),
    ],
    ids=["list", "not-json", "missing-field", "unknown-field"],
)
def test_trace_reader_names_the_line_and_field_of_a_bad_row(line, message):
    with pytest.raises(ValueError) as error:
        RunTrace.from_jsonl(f"{GOOD_LINE}\n\n{line}\n")  # the blank line 2 is skipped but counted
    assert str(error.value) == message


@pytest.mark.parametrize("key,value,kind", [
    ("iteration", 0.0, "float"),
    ("iteration", True, "bool"),
    ("ran_role", 1, "int"),
    ("ran_weight", "true", "str"),
    ("best_role_utility", "0.5", "str"),
    ("best_utility", None, "NoneType"),
    ("best_utility", False, "bool"),
    ("best_contribution", "x", "str"),
    ("evaluator_calls", "7", "str"),
    ("evaluator_calls", 7.0, "float"),
])
def test_trace_reader_names_the_line_and_field_of_a_value_of_the_wrong_json_type(key, value, kind):
    with pytest.raises(ValueError) as error:
        RunTrace.from_jsonl(f"{GOOD_LINE}\n\n{json.dumps({**GOOD_RECORD, key: value})}\n")
    assert str(error.value) == f"trace line 3 field {key!r} cannot be read: {value!r} is a {kind}"


def test_trace_reader_takes_integer_utilities_and_a_null_or_numeric_contribution():
    for contribution in (None, 0, 0.25):
        record = {**GOOD_RECORD, "best_role_utility": 1, "best_utility": 0, "best_contribution": contribution}
        (row,) = RunTrace.from_jsonl(json.dumps(record)).rows
        assert (row.best_role_utility, row.best_utility, row.best_contribution) == (1, 0, contribution)


def test_trace_csv_columns_are_the_jsonl_keys_in_row_order():
    _, trace = run(small_cfg(max_iterations=2))
    header = trace.to_csv().splitlines()[0].split(",")
    record = json.loads(trace.to_jsonl().splitlines()[0])
    assert header == [name for name in TraceRow.__dataclass_fields__ if name in record]
    assert set(header) == set(record)


def test_an_iteration_over_its_evaluator_budget_fails():
    class Twice(AffineTargetUtility):
        def evaluate(self, dag, assignment, pool):
            super().evaluate(dag, assignment, pool)
            return super().evaluate(dag, assignment, pool)

    cfg = small_cfg()
    task = task_utility(cfg)
    # Budget n * (N + M) * |f| = 4 * (4 + 4) * 2; the role and the weight step each spend all of it.
    with pytest.raises(RuntimeError, match="^evaluator budget exceeded: 128 > 64 calls in iteration 0$"):
        optimize(cfg, None, Twice(task.inputs, task.targets))


def test_system_round_trips_through_from_dict():
    for mode in ("full", "role_only", "weight_only"):
        system, _ = run(small_cfg(mode=mode))
        assert OptimizedSystem.from_dict(json.loads(system.to_json())).to_json() == system.to_json()


@pytest.mark.parametrize("version", [None, 2, 99])
def test_system_from_dict_names_an_unknown_version(version):
    data = run(small_cfg(max_iterations=1))[0].to_dict()
    data["format_version"] = version
    with pytest.raises(ValueError, match=f"version: {version}"):
        OptimizedSystem.from_dict(data)


@pytest.mark.parametrize("key,value,error", [
    ("dag", {}, "KeyError"),
    ("dag", [1], "TypeError"),
    ("assignment", 5, "TypeError"),
    ("best_utility", None, "None is a NoneType"),
])
def test_system_from_dict_names_a_field_it_cannot_read(key, value, error):
    data = {**run(small_cfg(max_iterations=1))[0].to_dict(), key: value}
    with pytest.raises(ValueError, match=f"^system field {key!r} cannot be read: {error}"):
        OptimizedSystem.from_dict(data)

@pytest.mark.parametrize("key,value,error", [
    ("experts", 5, "ValueError('experts must be a non-empty list, not a int')"),
    ("experts", [0.5, 1.5], "ValueError('experts element [0] must be a non-empty list, not a float')"),
    ("experts", [[[0.5]]], "ValueError('experts element [0][0] is [0.5], a list, not int or float')"),
    ("experts", [["0.5"]], "ValueError(\"experts element [0][0] is '0.5', a str, not int or float\")"),
    ("experts", [[True]], "ValueError('experts element [0][0] is True, a bool, not int or float')"),
    ("experts", [[0.5, 1.5], [0.5, False]], "ValueError('experts element [1][1] is False, a bool, not int or float')"),
    ("experts", [[0.5, 1.5], [0.5]], "ValueError('experts element [1] has 1 entries, not 2 as the rows before it')"),
    ("best_utility", "0.5", "'0.5' is a str"),
    ("best_utility", True, "True is a bool"),
    ("best_role_utility", "0.5", "'0.5' is a str"),
    ("best_role_utility", False, "False is a bool"),
])
def test_system_from_dict_rejects_a_value_of_the_wrong_json_type(key, value, error):
    data = {**run(small_cfg(max_iterations=1))[0].to_dict(), key: value}
    with pytest.raises(ValueError) as caught:
        OptimizedSystem.from_dict(data)
    assert str(caught.value) == f"system field {key!r} cannot be read: {error}"


def test_system_from_dict_reads_integers_as_floats():
    data = {**run(small_cfg(max_iterations=1))[0].to_dict(), "best_utility": 1, "best_role_utility": -2}
    data["experts"] = [[int(x) for x in row] for row in data["experts"]]
    system = OptimizedSystem.from_dict(data)
    assert type(system.best_utility) is float and type(system.best_role_utility) is float
    assert system.expert_params.dtype == float and system.expert_params.shape == (len(data["experts"]), len(data["experts"][0]))


@pytest.mark.parametrize("path,convert,name", [
    (("dag", "n"), float, "n"),
    (("dag", "n"), str, "n"),
    (("dag", "end_node"), float, "end_node"),
    (("dag", "topo_order", 0), str, "topo_order"),
    (("dag", "edges", 0, 0), float, "edges"),
    (("dag", "edges", 0, 1), str, "edges"),
    (("assignment", 0), bool, "assignment"),
    (("assignment", 1), bool, "assignment"),
    (("assignment", 2), float, "assignment"),
    (("assignment", 3), str, "assignment"),
])
def test_system_from_dict_reads_the_dag_and_assignment_integers_exactly(path, convert, name):
    # int() reads each of these values as the integer it was made from, so only a type check rejects it.
    data = run(small_cfg(max_iterations=1))[0].to_dict()
    *parents, last = path
    target = data
    for step in parents:
        target = target[step]
    value = target[last] = convert(target[last])
    with pytest.raises(ValueError) as caught:
        OptimizedSystem.from_dict(data)
    inner = ValueError(f"{name} holds {value!r}, a {type(value).__name__}, not an integer")
    assert str(caught.value) == f"system field {path[0]!r} cannot be read: {inner!r}"


def test_system_from_dict_validates_the_dag():
    data = run(small_cfg(max_iterations=1))[0].to_dict()
    data["dag"]["topo_order"] = data["dag"]["topo_order"][::-1]
    with pytest.raises(ValueError):
        OptimizedSystem.from_dict(data)


def test_resume_with_a_pool_is_rejected_before_any_evaluation(tmp_path):
    cfg = small_cfg(max_iterations=1)
    ck = tmp_path / "checkpoint.json"
    run(cfg, checkpoint_path=ck)
    utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
    pool = build_pool(4, 1, 6, RngFactory(0).stream("init_experts"))
    with pytest.raises(ValueError, match="pool"):
        optimize(replace(cfg, max_iterations=3), pool, utility, resume_from=ck)
    assert utility.evaluator_calls == 0


def test_evaluator_budget_respected_in_trace():
    cfg = small_cfg(max_iterations=4)
    utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))
    _, trace = optimize(cfg, None, utility)
    budget = 4 * (4 + 4) * utility.dataset_size
    assert all(row.evaluator_calls <= budget for row in trace.rows)


def test_pool_size_mismatch_rejected():
    pool = build_pool(3, 1, 6, RngFactory(0).stream("init_experts"))
    with pytest.raises(ValueError):
        run(small_cfg(), pool=pool)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    cfg = small_cfg(max_iterations=8, patience=8, seed=5)
    ck = tmp_path / "checkpoint.json"

    # uninterrupted reference
    system_full, trace_full = run(cfg)

    # phase one stops after 3 iterations, writing checkpoints
    run(replace(cfg, max_iterations=3), checkpoint_path=ck)
    payload = json.loads(ck.read_text())
    assert payload["format_version"] == 4 and payload["iteration"] == 3
    assert payload["config"]["seed"] == 5

    # phase two resumes and finishes
    system_resumed, trace_resumed = run(cfg, resume_from=ck)
    assert system_resumed.to_json() == system_full.to_json()
    tail = trace_full.to_jsonl().splitlines()[3:]
    assert trace_resumed.to_jsonl().splitlines() == tail


@pytest.mark.parametrize("key, value", [("expert_dim", 6), ("expert_scale", 1.0), ("pool_distinct", None)])
def test_checkpoint_with_removed_pool_settings_is_rejected_by_name(tmp_path, key, value):
    # Only format-3 checkpoints stored these keys, and format 3 is rejected by its version; a config holding one
    # is not this run's, even when its value is null.
    cfg = small_cfg(max_iterations=6, patience=6, seed=3)
    ck = tmp_path / "checkpoint.json"
    run(replace(cfg, max_iterations=2), checkpoint_path=ck)
    payload = json.loads(ck.read_text())
    payload["config"][key] = value
    ck.write_text(json.dumps(payload, sort_keys=True))
    utility = task_utility(cfg)
    with pytest.raises(ValueError, match=re.escape(f"config field '{key}' is 'absent', but the checkpoint has {value!r}")):
        optimize(cfg, None, utility, resume_from=ck)
    assert utility.evaluator_calls == 0


RESUME_VARIANTS = {
    "plain": {},
    "dropout": {"dropout_role": 0.3, "dropout_weight": 0.3},
    "l1": {"sparsity": SparsityConfig("l1", l1_coeff=0.05), "top_p": 0.3},
}


@pytest.mark.parametrize("mode", ["full", "role_only", "weight_only"])
def test_resume_at_any_stop_point_replays_the_uninterrupted_run(mode, tmp_path):
    ck, crash_ck = tmp_path / "checkpoint.json", tmp_path / "crashed.json"
    for variant, overrides in RESUME_VARIANTS.items():
        for seed in (0, 1):
            cfg = small_cfg(
                mode=mode, max_iterations=6, patience=6, seed=seed,
                utility_spec={"name": "affine_target", "n": 4, "points": 4}, **overrides,
            )
            system_full, trace_full = run(cfg)
            lines_full = trace_full.to_jsonl().splitlines()
            for stop in (1, 3, 5):
                stopped = task_utility(cfg)
                optimize(replace(cfg, max_iterations=stop), None, stopped, checkpoint_path=ck)
                clean = json.loads(ck.read_text())
                system, trace = run(cfg, resume_from=ck)
                where = f"{mode}/{variant} seed {seed} stop {stop}"
                assert system.to_json() == system_full.to_json(), where
                assert trace.to_jsonl().splitlines() == lines_full[stop:], where

                # A crash halfway through iteration `stop` leaves the checkpoint
                # of the last completed iteration, and that resumes the same run.
                crashing = task_utility(cfg)
                crash_at = stopped.evaluator_calls + trace_full.rows[stop].evaluator_calls // 2
                fail_after(crashing, crash_at)
                with pytest.raises(RuntimeError):  # the steps wrap the crash in their own errors
                    optimize(cfg, None, crashing, checkpoint_path=crash_ck)
                assert crashing.evaluator_calls > crash_at, where
                crashed = json.loads(crash_ck.read_text())
                assert crashed["config"].pop("max_iterations") == cfg.max_iterations, where
                assert clean["config"].pop("max_iterations") == stop, where
                assert crashed == clean, where
                system, trace = run(cfg, resume_from=crash_ck)
                assert system.to_json() == system_full.to_json(), where
                assert trace.to_jsonl().splitlines() == lines_full[stop:], where


def fail_after(utility, calls):
    """Make the utility's evaluator raise once it has counted more than ``calls`` calls.

    The check wraps ``run``, so the crash lands between two executions.
    """
    evaluator = utility.evaluator
    run_dag = evaluator.run

    def failing(*args):
        if evaluator.calls > calls:
            raise RuntimeError("evaluator crashed")
        return run_dag(*args)

    evaluator.run = failing


def test_resume_after_a_patience_stop_runs_no_iteration(tmp_path):
    ck = tmp_path / "checkpoint.json"
    for seed in range(3):
        cfg = small_cfg(max_iterations=20, patience=2, seed=seed)
        system_full, trace_full = run(cfg, checkpoint_path=ck)
        stopped_at = len(trace_full.rows)
        assert stopped_at < cfg.max_iterations, f"seed {seed} did not stop on patience"
        system, trace = run(cfg, resume_from=ck)
        assert trace.rows == [], f"seed {seed}"
        assert system.to_json() == system_full.to_json(), f"seed {seed}"

        # a raised patience continues the stopped run where it stopped
        raised = replace(cfg, patience=5)
        system_raised, trace_raised = run(raised)
        system, trace = run(raised, resume_from=ck)
        assert system.to_json() == system_raised.to_json(), f"seed {seed}"
        assert trace.to_jsonl().splitlines() == trace_raised.to_jsonl().splitlines()[stopped_at:], f"seed {seed}"


def test_weight_only_checkpoint_round_trips_a_matrix_swarm_moved_once(tmp_path):
    payloads = []
    for stop in (1, 2):
        ck = tmp_path / f"checkpoint{stop}.json"
        run(small_cfg(mode="weight_only", max_iterations=stop, patience=2), checkpoint_path=ck)
        payloads.append(json.loads(ck.read_text()))
    first, payload = payloads
    matrices = _unpack_swarm(payload["matrix_swarm"], 4, (4, 4))
    assert matrices.positions.shape == (4, 4, 4)
    assert matrices.global_best is not None and np.all(np.isfinite(matrices.personal_best_scores))
    assert payload["matrix_swarm"] == first["matrix_swarm"]  # only iteration 0's role step moved it
    for key, particle in (("matrix_swarm", (4, 4)), ("expert_swarm", (6,))):
        assert _pack_swarm(_unpack_swarm(payload[key], 4, particle)) == payload[key]


def test_matrix_swarm_round_trips_bit_for_bit():
    stream = RngFactory(8).stream("task")
    positions = stream.uniform(0, 1, (5, 4, 4))
    positions[0, :, 0] = [-0.0, np.inf, -np.inf, 5e-324]
    positions[1, 1, 1] = np.nan
    swarm = Swarm(
        positions, stream.normal(size=(5, 4, 4)), stream.uniform(0, 1, (5, 4, 4)),
        np.array([0.1, -np.inf, np.inf, -0.0, 1 / 3]),
        stream.uniform(0, 1, (4, 4)), 0.7, stream.uniform(0, 1, (4, 4)), -0.2,
    )
    back = _unpack_swarm(json.loads(json.dumps(_pack_swarm(swarm))), 5, (4, 4))
    for name, value in vars(swarm).items():
        restored = getattr(back, name)
        if isinstance(value, np.ndarray):
            assert restored.shape == value.shape and restored.tobytes() == value.tobytes(), name
            assert restored.flags.writeable, name
        else:
            assert restored == value, name


def test_resume_from_format_2_checkpoint_names_the_version(tmp_path):
    cfg = small_cfg()
    particle = {
        "position": [[0.5] * 4] * 4,
        "velocity": [[0.0] * 4] * 4,
        "personal_best": [[0.5] * 4] * 4,
        "personal_best_score": -1.0,
    }
    swarm = {
        "particles": [particle] * 4,
        "state": {"global_best": None, "global_best_score": -np.inf, "global_worst": None, "global_worst_score": np.inf},
    }
    ck = tmp_path / "checkpoint.json"
    ck.write_text(json.dumps({
        "format_version": 2, "iteration": 1, "config": asdict(cfg), "stall": 0, "best_utility": -1.0,
        "record": None, "matrix_swarm": swarm, "expert_swarm": swarm,
    }))
    with pytest.raises(ValueError, match="version: 2"):
        run(cfg, resume_from=ck)


def test_resume_from_a_format_3_checkpoint_names_the_version_before_any_evaluation(tmp_path):
    # Format 3 also stored the record's matrix, which format 4 drops.
    cfg = small_cfg(max_iterations=2, patience=2)
    ck = tmp_path / "checkpoint.json"
    run(cfg, checkpoint_path=ck)
    payload = json.loads(ck.read_text())
    payload["format_version"], payload["record"]["matrix"] = 3, _pack(np.zeros((4, 4)))
    ck.write_text(json.dumps(payload))
    utility = task_utility(cfg)
    with pytest.raises(ValueError, match="^unsupported checkpoint version: 3$"):
        optimize(replace(cfg, max_iterations=4), None, utility, resume_from=ck)
    assert utility.evaluator_calls == 0


COUNTERS = {"iteration": 1, "stall": 0, "best_utility": 0.0}
# Well-formed swarms for small_cfg(), whose task reads experts of length 6.
MATRICES = _pack_swarm(Swarm.from_positions(np.zeros((4, 4, 4))))
EXPERTS = _pack_swarm(Swarm.from_positions(np.zeros((4, 6))))
DAG1 = {"n": 1, "end_node": 0, "edges": [], "topo_order": [0]}


@pytest.mark.parametrize("payload,message", [
    ([1], "checkpoint root must be a JSON object"),
    (
        {"format_version": 4, "record": None, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        "field 'record' cannot be read: None is a NoneType$",
    ),
    ({"format_version": 4, "record": {}}, "checkpoint has no 'iteration' field"),
    ({"format_version": 4, "record": {}, **COUNTERS}, "no 'matrix_swarm' field"),
    ({"format_version": 4, "config": 5, "record": {}}, "field 'config' cannot be read: TypeError"),
    ({"format_version": 4, "config": [], "record": {}}, "field 'config' cannot be read: TypeError"),
    ({"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": {}}, "field 'matrix_swarm' cannot be read: TypeError"),
    ({"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": 5}, "field 'matrix_swarm' cannot be read: TypeError"),
    (
        {"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": {**EXPERTS, "extra": 1}},
        "field 'expert_swarm' cannot be read: TypeError",
    ),
    (
        {"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: KeyError\('dag'\)",
    ),
    (
        {"format_version": 4, "record": {"dag": {"n": 1}}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: KeyError\('end_node'\)",
    ),
    (
        {"format_version": 4, "record": {"dag": DAG1, "utility": "0.5"}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: ValueError\(\"record field 'utility' cannot be read: '0.5' is a str\"\)$",
    ),
    (
        {"format_version": 4, "record": {"dag": DAG1, "utility": True}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: ValueError\(\"record field 'utility' cannot be read: True is a bool\"\)$",
    ),
    (
        {"format_version": 4, "record": {"dag": {**DAG1, "n": 1.0}, "utility": 0.5}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: ValueError\('n holds 1.0, a float, not an integer'\)$",
    ),
    (
        {"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": {**MATRICES, "global_best_score": "x"}},
        r"field 'matrix_swarm' cannot be read: ValueError\(\"swarm field 'global_best_score' cannot be read: 'x' is a str\"\)$",
    ),
    (
        {"format_version": 4, "record": {}, **COUNTERS, "matrix_swarm": MATRICES, "expert_swarm": {**EXPERTS, "global_worst_score": None}},
        r"field 'expert_swarm' cannot be read: ValueError\(\"swarm field 'global_worst_score' cannot be read: None is a NoneType\"\)$",
    ),
    ({"format_version": 4, "record": {}, **COUNTERS, "iteration": "1"}, "field 'iteration' cannot be read: '1' is a str$"),
    ({"format_version": 4, "record": {}, **COUNTERS, "iteration": 1.0}, "field 'iteration' cannot be read: 1.0 is a float$"),
    ({"format_version": 4, "record": {}, **COUNTERS, "stall": True}, "field 'stall' cannot be read: True is a bool$"),
    ({"format_version": 4, "record": {}, **COUNTERS, "best_utility": "0.5"}, "field 'best_utility' cannot be read: '0.5' is a str$"),
    ({"format_version": 4, "record": {}, **COUNTERS, "best_utility": False}, "field 'best_utility' cannot be read: False is a bool$"),
    # A field no format-4 checkpoint holds, at the root or in the record (format 3's record matrix), is named.
    ({"format_version": 4, "record": {}, "bogus": 1}, "^checkpoint has an unknown field 'bogus'$"),
    (
        {"format_version": 4, "record": {"dag": DAG1, "utility": 0.5, "matrix": [[0.5]]}, **COUNTERS, "matrix_swarm": MATRICES,
         "expert_swarm": EXPERTS},
        r"field 'record' cannot be read: ValueError\(\"record has an unknown field 'matrix'\"\)$",
    ),
])
def test_run_state_rejects_a_checkpoint_it_cannot_resume(payload, message):
    cfg = small_cfg()
    if isinstance(payload, dict):
        payload = {"config": json.loads(json.dumps(asdict(cfg))), **payload}
    with pytest.raises(ValueError, match=message):
        RunState.from_checkpoint(payload, cfg, task_utility(cfg).expert_dim)


@pytest.mark.parametrize("damage", ["shape", "bytes"])
def test_checkpoint_array_whose_bytes_disagree_with_its_shape_rejected(tmp_path, damage):
    ck = tmp_path / "checkpoint.json"
    run(small_cfg(max_iterations=2, patience=2), checkpoint_path=ck)
    payload = json.loads(ck.read_text())
    positions = payload["matrix_swarm"]["positions"]
    if damage == "shape":
        positions["shape"] = [4, 4, 5]
    else:
        positions["f8"] = base64.b64encode(base64.b64decode(positions["f8"])[:-4]).decode("ascii")
    with pytest.raises(ValueError):
        _unpack_swarm(payload["matrix_swarm"], 4, (4, 4))


def _set(path, value):
    """A damage: the checkpoint value at ``path`` (keys from the root) becomes ``value``; arrays are packed."""
    def damage(payload):
        *parents, key = path
        for name in parents:
            payload = payload[name]
        payload[key] = _pack(value) if isinstance(value, np.ndarray) else value
    return damage


def _put(swarm, name, shape, index, value=np.nan):
    """A damage: the packed array ``name`` of ``swarm``, of ``shape``, holds ``value`` at ``index``."""
    def damage(payload):
        array = _unpack(payload[swarm][name], name, shape)
        array[index] = value
        payload[swarm][name] = _pack(array)
    return damage


@pytest.mark.parametrize("mode, damage, message", [
    ("weight_only", _set(("record", "dag"), DAG1), r"'record' cannot be read: ValueError\('dag has 1 nodes, not n_experts 3'\)$"),
    ("full", _set(("best_utility",), np.inf), r"'best_utility' cannot be read: ValueError\('inf is not finite'\)$"),
    ("full", _set(("best_utility",), -np.inf), r"'best_utility' cannot be read: ValueError\('-inf is not finite'\)$"),
    ("full", _set(("record", "utility"), -np.inf), r"'record' cannot be read: ValueError\(\"record field 'utility' cannot be read: ValueError\('-inf is not finite'\)"),
    ("full", _set(("record", "utility"), np.nan), r"'record' cannot be read: ValueError\(\"record field 'utility' cannot be read: ValueError\('nan is not finite'\)"),
    ("full", _set(("stall",), -5), r"'stall' cannot be read: ValueError\('-5 is below 0'\)$"),
    ("full", _set(("iteration",), -5), r"'iteration' cannot be read: ValueError\('-5 is below 0'\)$"),
    (
        "full", _set(("matrix_swarm", "positions"), np.zeros((3, 4, 4))),
        r"'matrix_swarm' cannot be read: ValueError\('positions has shape \(3, 4, 4\), not \(3, 3, 3\)'\)$",
    ),
    (
        "full", _set(("expert_swarm", "positions"), np.zeros((2, 6))),
        r"'expert_swarm' cannot be read: ValueError\('positions has shape \(2, 6\), not \(3, 6\)'\)$",
    ),
    (
        "full", _set(("matrix_swarm", "velocities"), np.zeros((3, 2, 2))),
        r"'matrix_swarm' cannot be read: ValueError\('velocities has shape \(3, 2, 2\), not \(3, 3, 3\)'\)$",
    ),
    (
        "full", _set(("expert_swarm", "personal_best_scores"), np.zeros(5)),
        r"'expert_swarm' cannot be read: ValueError\('personal_best_scores has shape \(5,\), not \(3,\)'\)$",
    ),
    (
        "full", _set(("expert_swarm", "global_best"), np.zeros(5)),
        r"'expert_swarm' cannot be read: ValueError\('global_best has shape \(5,\), not \(6,\)'\)$",
    ),
    (
        "full", _set(("matrix_swarm", "positions"), np.zeros((3, 3, 3)).tolist()),
        r"'matrix_swarm' cannot be read: ValueError\('positions is a list, not a packed array'\)$",
    ),
    (
        "full", _put("expert_swarm", "positions", (3, 6), (1, 0)),
        r"'expert_swarm' cannot be read: ValueError\('pool expert 1 holds a value that is not finite'\)$",
    ),
    # Swarm scores pso_step cannot write: each would pin its record for the rest of the run.
    (
        "full", _set(("matrix_swarm", "global_best_score"), np.nan),
        r"'matrix_swarm' cannot be read: ValueError\('global_best_score is nan, which a set global_best cannot have'\)$",
    ),
    (
        "full", _set(("expert_swarm", "global_best_score"), np.inf),
        r"'expert_swarm' cannot be read: ValueError\('global_best_score is inf, which a set global_best cannot have'\)$",
    ),
    (
        "full", _put("expert_swarm", "personal_best_scores", (3,), 1),
        r"'expert_swarm' cannot be read: ValueError\('personal_best_scores holds a NaN'\)$",
    ),
    (
        "role_only", _set(("expert_swarm", "global_best_score"), 0.5),
        r"'expert_swarm' cannot be read: ValueError\('global_best_score is 0.5, which a null global_best cannot have'\)$",
    ),
    # Matrices a run cannot write: it clips them to [0, 1] after every role step.
    (
        "full", _put("matrix_swarm", "positions", (3, 3, 3), (1, 0, 2)),
        r"'matrix_swarm' cannot be read: ValueError\('positions holds a value outside \[0, 1\]'\)$",
    ),
    (
        "weight_only", _put("matrix_swarm", "positions", (3, 3, 3), (1, 0, 2)),
        r"'matrix_swarm' cannot be read: ValueError\('positions holds a value outside \[0, 1\]'\)$",
    ),
    (
        "full", _put("matrix_swarm", "personal_best", (3, 3, 3), (2, 1, 1), 1.5),
        r"'matrix_swarm' cannot be read: ValueError\('personal_best holds a value outside \[0, 1\]'\)$",
    ),
    # Velocities and expert points a run cannot write: pso_step moves finite points by finite velocities.
    (
        "full", _put("matrix_swarm", "velocities", (3, 3, 3), (0, 2, 1)),
        r"'matrix_swarm' cannot be read: ValueError\('velocities holds a value that is not finite'\)$",
    ),
    (
        "weight_only", _put("matrix_swarm", "velocities", (3, 3, 3), (0, 2, 1), np.inf),
        r"'matrix_swarm' cannot be read: ValueError\('velocities holds a value that is not finite'\)$",
    ),
    (
        "full", _put("expert_swarm", "velocities", (3, 6), (2, 4)),
        r"'expert_swarm' cannot be read: ValueError\('velocities holds a value that is not finite'\)$",
    ),
    (
        "full", _put("expert_swarm", "personal_best", (3, 6), (0, 1)),
        r"'expert_swarm' cannot be read: ValueError\('personal_best holds a value that is not finite'\)$",
    ),
    (
        "full", _put("expert_swarm", "global_best", (6,), 3, -np.inf),
        r"'expert_swarm' cannot be read: ValueError\('global_best holds a value that is not finite'\)$",
    ),
    (
        "weight_only", _put("expert_swarm", "global_worst", (6,), 5),
        r"'expert_swarm' cannot be read: ValueError\('global_worst holds a value that is not finite'\)$",
    ),
])
def test_resume_rejects_a_checkpoint_that_does_not_fit_the_config(tmp_path, mode, damage, message):
    cfg = small_cfg(
        n_experts=3, matrix_swarm_size=3, assignments_per_step=3, max_iterations=2, patience=2, mode=mode,
        utility_spec={"name": "affine_target", "n": 3, "points": 2},
    )
    ck = tmp_path / "checkpoint.json"
    run(cfg, checkpoint_path=ck)
    payload = json.loads(ck.read_text())
    damage(payload)
    ck.write_text(json.dumps(payload))
    utility = task_utility(cfg)
    with pytest.raises(ValueError, match="^checkpoint field " + message):
        optimize(replace(cfg, max_iterations=4), None, utility, resume_from=ck)
    assert utility.evaluator_calls == 0


@pytest.mark.parametrize("mode", ["full", "role_only"])
def test_resume_of_a_task_that_reads_no_expert_replays_the_run(mode, tmp_path):
    # hidden_dag reads no expert vector, so its experts are (4, 0), in every step and in the checkpoint.
    cfg = small_cfg(mode=mode, max_iterations=4, patience=4, utility_spec={"name": "hidden_dag", "n": 4})
    system_full, trace_full = run(cfg)
    ck = tmp_path / "checkpoint.json"
    run(replace(cfg, max_iterations=2), checkpoint_path=ck)
    assert json.loads(ck.read_text())["expert_swarm"]["velocities"]["shape"] == [4, 0]
    system, trace = run(cfg, resume_from=ck)
    assert system.expert_params.shape == (4, 0) and json.loads(system.to_json())["experts"] == [[]] * 4
    assert system.to_json() == system_full.to_json()
    assert trace.to_jsonl().splitlines() == trace_full.to_jsonl().splitlines()[2:]


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    ck = tmp_path / "checkpoint.json"
    run(small_cfg(max_iterations=2, patience=2), checkpoint_path=ck)
    before = json.loads(ck.read_text())

    def write_half_then_fail(self, text, *args, **kwargs):
        with open(self, "w") as handle:
            handle.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError):
        save_checkpoint(ck, {**before, "iteration": 99})
    monkeypatch.undo()
    assert json.loads(ck.read_text()) == before


def test_resume_with_changed_config_fails(tmp_path):
    cfg = small_cfg(max_iterations=2, patience=2, seed=5)
    ck = tmp_path / "checkpoint.json"
    run(cfg, checkpoint_path=ck)
    with pytest.raises(ValueError, match="'seed'"):
        run(replace(cfg, seed=6, max_iterations=4), resume_from=ck)
    with pytest.raises(ValueError, match="'role_hp'"):
        run(replace(cfg, role_hp=replace(cfg.role_hp, inertia=0.3)), resume_from=ck)
    # the stopping rule alone may change
    _, trace = run(replace(cfg, max_iterations=4, patience=4), resume_from=ck)
    assert [row.iteration for row in trace.rows] == [2, 3]


def test_run_with_dropout_still_monotone():
    cfg = small_cfg(dropout_role=0.5, dropout_weight=0.5, max_iterations=8, seed=2)
    _, trace = run(cfg)
    best = [r.best_utility for r in trace.rows]
    assert best == sorted(best)
    assert any(not r.ran_role or not r.ran_weight for r in trace.rows)
