from __future__ import annotations

import json

import numpy as np
import pytest

from dagswarm import (
    AffineEvaluator,
    Assignment,
    Message,
    RemoteEvaluator,
    RngFactory,
    build_pool,
    build_prompt,
    cli,
    execute,
    save_pool,
)
from dagswarm.cli import ENDPOINT_ENV, parse_config, run_cli
from conftest import no_leaked_sockets
from test_graph import NON_FINITE_MATRICES, overflow_matrix
from test_utilities import diamond_dag


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_config_empty_file_is_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = parse_config(str(path))
    assert cfg.matrix_swarm_size == 10 and cfg.patience == 6


def test_parse_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        parse_config(str(path))


def test_decode_command_deterministic_small_p(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", [[0.0, 0.99], [0.01, 0.0]])
    assert run_cli(["decode", "--matrix", matrix, "--top-p", "0.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dag"] == {"n": 2, "end_node": 1, "edges": [[0, 1]], "topo_order": [0, 1]}


def test_decode_accepts_wrapped_matrix_and_writes_file(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", {"matrix": [[0.0, 0.99], [0.01, 0.0]]})
    out = tmp_path / "dag.json"
    assert run_cli(["decode", "--matrix", matrix, "--top-p", "0.05", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["dag"]["end_node"] == 1


def test_decode_rejects_top_p_out_of_range_for_a_single_node(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", [[0.0]])
    assert run_cli(["decode", "--matrix", matrix, "--top-p", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


@pytest.mark.filterwarnings("error")  # a numpy warning would print a second stderr line
def test_decode_reports_an_overflowing_matrix_as_error_json(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", [[0, 1e308, 0], [0, 0, 1e308], [1e308, 0, 0]])
    assert run_cli(["decode", "--matrix", matrix]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "overflow" in error["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", range(len(NON_FINITE_MATRICES)))
def test_decode_reports_non_finite_out_degree_sums_as_error_json(tmp_path, capsys, case):
    matrix = write(tmp_path / "m.json", np.asarray(NON_FINITE_MATRICES[case], dtype=float).tolist())
    assert run_cli(["decode", "--matrix", matrix]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and error["message"] == "out-degree sums must be finite"


@pytest.mark.filterwarnings("error")  # numpy's reduction of the 8 sums after the end overflows
def test_decode_reports_an_overflowing_total_of_eight_sums_as_error_json(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", overflow_matrix(9).tolist())
    assert run_cli(["decode", "--matrix", matrix]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "overflow" in json.loads(captured.err)["error"]["message"]


def test_optimize_constant_utility_stops_after_patience(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.json",
        {"n_experts": 3, "patience": 2, "max_iterations": 20, "utility_spec": {"name": "constant"}},
    )
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 3
    assert (tmp_path / "run" / "best_system.json").exists()
    assert (tmp_path / "run" / "trace.jsonl").exists()


def test_optimize_mode_and_seed_overrides(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.json",
        {
            "n_experts": 4,
            "matrix_swarm_size": 4,
            "assignments_per_step": 4,
            "max_iterations": 4,
            "patience": 2,
            "utility_spec": {"name": "hidden_dag", "n": 4},
        },
    )
    rc = run_cli(
        ["optimize", "--config", cfg, "--seed", "3", "--mode", "role_only", "--out", str(tmp_path / "a")]
    )
    assert rc == 0
    capsys.readouterr()
    trace = (tmp_path / "a" / "trace.jsonl").read_text().splitlines()
    assert all(json.loads(line)["ran_weight"] is False for line in trace)


def test_unknown_config_key_reported_as_error_json(tmp_path, capsys):
    for key in ("wobble", "expert_dim", "expert_scale", "pool_distinct"):
        cfg = write(tmp_path / "cfg.json", {key: 3})
        assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert f"unknown config key: '{key}'" == err["error"]["message"]


def test_out_of_range_tau_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"sparsity": {"mode": "threshold", "tau": 1.5}})
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


def test_usage_error_is_json_with_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["warp-speed"])
    assert exit_info.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "UsageError"


def test_jobs_validation(capsys):
    assert run_cli(["optimize", "--jobs", "0", "--out", "unused"]) == 2
    capsys.readouterr()


def test_analyze_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["analyze", "--jobs", "2", "--correctness", "unused.json"])
    assert exit_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--config", "c.json")])
def test_analyze_takes_no_config_or_seed(flag, value, tmp_path, capsys):
    correctness = write(tmp_path / "corr.json", {"per_expert_correct": [[1]], "system_correct": [1]})
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["analyze", flag, value, "--correctness", correctness, "--out", str(tmp_path / "an")])
    assert exit_info.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "UsageError"
    assert not (tmp_path / "an").exists()


def test_optimize_rejects_a_pool_with_a_resume(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.json",
        {"n_experts": 3, "max_iterations": 1, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}},
    )
    checkpoint = str(tmp_path / "ck.json")
    assert run_cli(["optimize", "--config", cfg, "--checkpoint", checkpoint, "--out", str(tmp_path / "a")]) == 0
    save_pool(build_pool(3, 1, 6, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    capsys.readouterr()
    args = ["optimize", "--config", cfg, "--pool", str(tmp_path / "pool"), "--resume", checkpoint]
    assert run_cli([*args, "--out", str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "pool" in error["message"]
    assert not (tmp_path / "b").exists()


def test_optimize_rejects_a_pool_of_the_wrong_expert_length(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "dim": 3}})
    save_pool(build_pool(3, 1, 6, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    assert run_cli(["optimize", "--config", cfg, "--pool", str(tmp_path / "pool"), "--out", str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "shape (6,), but the task reads length 12" in error["message"]


def test_optimize_jobs_reach_the_remote_evaluator(tmp_path, capsys, monkeypatch, clean_stub):
    built = []

    class Recording(RemoteEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.jobs)

    monkeypatch.setattr(cli, "RemoteEvaluator", Recording)
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(json.dumps({"input": f"{k}+{k}", "answer": str(2 * k)}) + "\n" for k in range(3)))
    cfg = write(
        tmp_path / "cfg.json",
        {
            "n_experts": 2,
            "matrix_swarm_size": 2,
            "max_iterations": 1,
            "patience": 1,
            "mode": "role_only",
            "utility_spec": {"name": "dataset", "path": str(dataset)},
        },
    )
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["optimize", "--config", cfg, "--jobs", "2", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert built == [8, 2]
    assert len(clean_stub.requests) == 2 * 2 * 2 * 3


@no_leaked_sockets
def test_commands_close_the_remote_evaluator(tmp_path, capsys, monkeypatch, keepalive_stub):
    closed = []

    class Recording(RemoteEvaluator):
        def close(self):
            super().close()
            closed.append(self)

    monkeypatch.setattr(cli, "RemoteEvaluator", Recording)
    monkeypatch.setenv(ENDPOINT_ENV, keepalive_stub.endpoint)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(json.dumps({"input": f"{k}+{k}", "answer": str(2 * k)}) + "\n" for k in range(3)))
    cfg = write(
        tmp_path / "cfg.json",
        {
            "n_experts": 2,
            "matrix_swarm_size": 2,
            "max_iterations": 1,
            "patience": 1,
            "mode": "role_only",
            "utility_spec": {"name": "dataset", "path": str(dataset)},
        },
    )
    out = tmp_path / "run"
    assert run_cli(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert run_cli(["sweep", "--config", cfg, "--runs", "2", "--out", str(tmp_path / "sw")]) == 0
    assert run_cli(["evaluate", "--system", str(out / "best_system.json"), "--dataset", str(dataset)]) == 0
    capsys.readouterr()
    assert len(closed) == 3
    assert len(keepalive_stub.requests) == 2 * 2 * 3 * 3 + 2 * 3


def test_analyze_writes_report_and_csv(tmp_path, capsys):
    correctness = write(
        tmp_path / "corr.json",
        {"per_expert_correct": [[0, 0], [1, 0], [0, 1], [1, 1]], "system_correct": [1, 1, 0, 1]},
    )
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(
        json.dumps(
            {
                "iteration": 0, "ran_role": True, "ran_weight": True,
                "best_role_utility": 0.5, "best_utility": 0.5,
                "best_contribution": None, "evaluator_calls": 8,
            }
        )
        + "\n"
    )
    rc = run_cli(
        [
            "analyze", "--correctness", correctness, "--trace", str(trace_path),
            "--out", str(tmp_path / "an"),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["collaborative_gain"] == 0.0
    report = json.loads((tmp_path / "an" / "report.json").read_text())
    assert report["solved_from_zero_rate"] == 1.0
    csv_text = (tmp_path / "an" / "metrics.csv").read_text()
    assert csv_text.splitlines()[0].startswith("iteration,")
    assert len(csv_text.splitlines()) == 2


def test_evaluate_affine_system(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    cfg = write(
        tmp_path / "cfg.json",
        {
            "n_experts": 3,
            "matrix_swarm_size": 3,
            "assignments_per_step": 3,
            "max_iterations": 2,
            "patience": 2,
            "utility_spec": {"name": "affine_target", "n": 3, "points": 2},
        },
    )
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": [0.1, 0.2]}) + "\n")
    rc = run_cli(
        ["evaluate", "--system", str(tmp_path / "run" / "best_system.json"), "--dataset", str(dataset)]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] is None  # no answers supplied
    assert len(payload["results"][0]["output"]) == 2


def test_evaluate_remote_system(tmp_path, capsys, monkeypatch, clean_stub):
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    system = {
        "format_version": 1,
        "dag": {"n": 2, "end_node": 1, "edges": [[0, 1]], "topo_order": [0, 1]},
        "assignment": [0, 1],
        "experts": [[0.0], [0.0]],
        "best_utility": 0.0,
        "best_role_utility": 0.0,
    }
    system_path = write(tmp_path / "sys.json", system)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": "2+2", "answer": "4"}) + "\n")
    assert run_cli(["evaluate", "--system", system_path, "--dataset", str(dataset)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] == 0.0  # the echo stub answers with the prompt
    assert payload["results"][0]["output"].startswith("Please answer")


def write_system(path, dag, experts):
    system = {
        "format_version": 1,
        "dag": dag.to_dict(),
        "assignment": list(range(dag.n)),
        "experts": np.asarray(experts).tolist(),
        "best_utility": 0.0,
        "best_role_utility": 0.0,
    }
    return write(path, system)


def test_evaluate_local_items_match_a_per_item_execute(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    rng = RngFactory(3).stream("task")
    dag = diamond_dag()
    experts = rng.uniform(-0.9, 0.9, (4, 6))
    inputs = rng.uniform(-1, 1, (5, 2))
    expected = [execute(dag, Assignment.identity(4), experts, Message(x), AffineEvaluator()).payload for x in inputs]
    dataset = tmp_path / "data.jsonl"
    items = [{"input": x.tolist(), "answer": (y if k % 2 else y + 1).tolist()} for k, (x, y) in enumerate(zip(inputs, expected))]
    dataset.write_text("".join(json.dumps(item) + "\n" for item in items))
    system = write_system(tmp_path / "sys.json", dag, experts)
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.array_equal([entry["output"] for entry in payload["results"]], expected)
    assert [entry["correct"] for entry in payload["results"]] == [False, True, False, True, False]
    assert payload["accuracy"] == 2 / 5


@pytest.mark.parametrize("inputs", [[[0.1, 0.2], [0.1]], [0.5, 0.7], [[[0.1, 0.2]]]])
def test_evaluate_local_inputs_must_stack_to_a_matrix(tmp_path, capsys, monkeypatch, inputs):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(json.dumps({"input": x}) + "\n" for x in inputs))
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6)))
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


def test_evaluate_rejects_an_unknown_system_version(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = tmp_path / "sys.json"
    write_system(system, diamond_dag(), np.zeros((4, 6)))
    system.write_text(json.dumps({**json.loads(system.read_text()), "format_version": 99}))
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": [0.1, 0.2]}) + "\n")
    assert run_cli(["evaluate", "--system", str(system), "--dataset", str(dataset)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "99" in error["message"]


def test_evaluate_names_a_missing_input_field(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": [0.1, 0.2]}) + "\n" + json.dumps({"question": [0.1, 0.2]}) + "\n")
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6)))
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "'input'" in error["message"]


def cli_error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)["error"]


def test_evaluate_names_a_system_file_that_is_not_an_object(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = write(tmp_path / "sys.json", [1, 2])
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": [0.1, 0.2]}) + "\n")
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"] == "system root must be a JSON object"


def test_evaluate_names_a_dataset_line_that_is_not_an_object(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": [0.1, 0.2]}) + "\n\n5\n")
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6)))
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"].startswith(f"{dataset} line 3: ")


def test_optimize_names_a_checkpoint_that_is_not_an_object(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}})
    checkpoint = write(tmp_path / "ck.json", [1])
    assert run_cli(["optimize", "--config", cfg, "--resume", checkpoint, "--out", str(tmp_path / "run")]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"] == "checkpoint root must be a JSON object"
    assert not (tmp_path / "run").exists()


def test_optimize_names_a_field_the_checkpoint_lacks(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}})
    checkpoint = write(tmp_path / "ck.json", {"format_version": 3})
    assert run_cli(["optimize", "--config", cfg, "--resume", checkpoint, "--out", str(tmp_path / "run")]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"] == "checkpoint has no 'config' field"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", [
    ("config", 5),
    ("matrix_swarm", {}),
    ("expert_swarm", {"positions": {"shape": [2], "f8": ""}}),
    ("record", {"dag": {}, "utility": 0.0}),
    ("iteration", "1"),
])
def test_optimize_names_a_checkpoint_field_that_holds_the_wrong_thing(tmp_path, capsys, key, value):
    cfg = write(
        tmp_path / "cfg.json",
        {"n_experts": 3, "max_iterations": 1, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}},
    )
    checkpoint = tmp_path / "ck.json"
    assert run_cli(["optimize", "--config", cfg, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    write(checkpoint, {**json.loads(checkpoint.read_text()), key: value})
    assert run_cli(["optimize", "--config", cfg, "--resume", str(checkpoint), "--out", str(tmp_path / "run")]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"].startswith(f"checkpoint field {key!r} cannot be read: ")
    assert not (tmp_path / "run").exists()


def test_evaluate_remote_items_come_back_in_item_order(tmp_path, capsys, monkeypatch, clean_stub):
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    dag = diamond_dag()
    questions = [f"{k}+{k}" for k in range(7)]
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(json.dumps({"input": q, "answer": "x"}) + "\n" for q in questions))
    system = write_system(tmp_path / "sys.json", dag, np.zeros((4, 1)))
    assert run_cli(["evaluate", "--system", system, "--dataset", str(dataset)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["input"] for entry in payload["results"]] == questions
    for entry, question in zip(payload["results"], questions):
        entry_reply = build_prompt("entry", question, [])
        middle = [{"node": v, "text": build_prompt("middle", question, [{"node": 0, "text": entry_reply}])} for v in (1, 2)]
        assert entry["output"] == build_prompt("end", question, middle)
    assert len(clean_stub.requests) == dag.n * len(questions)


def test_sweep_ranks_runs(tmp_path, capsys):
    cfg = write(
        tmp_path / "cfg.json",
        {
            "n_experts": 3,
            "matrix_swarm_size": 2,
            "assignments_per_step": 2,
            "max_iterations": 2,
            "patience": 2,
            "mode": "role_only",
            "utility_spec": {"name": "hidden_dag", "n": 3},
        },
    )
    assert run_cli(["sweep", "--config", cfg, "--runs", "3", "--out", str(tmp_path / "sw")]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert len(payload["runs"]) == 3
    utilities = [r["best_utility"] for r in payload["runs"]]
    assert utilities == sorted(utilities, reverse=True)
    grid_point = payload["runs"][0]["hyperparams"]
    assert set(grid_point) == {"step_length", "inertia", "cognitive", "social", "repel"}


def test_sweep_rejects_fewer_than_one_run_before_any_run(tmp_path, capsys):
    assert run_cli(["sweep", "--runs", "0", "--out", str(tmp_path / "sw")]) == 2
    error = cli_error(capsys)
    assert error == {"type": "UsageError", "message": "--runs must be >= 1"}
    assert not (tmp_path / "sw" / "sweep.json").exists()
