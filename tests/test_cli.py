from __future__ import annotations

import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dagswarm import (
    AffineEvaluator,
    Assignment,
    OptimizedSystem,
    RemoteEvaluator,
    RngFactory,
    build_pool,
    build_prompt,
    build_utility,
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


BIG = 10**400  # a JSON integer no float can hold
OVERFLOW = "OverflowError('int too large to convert to float')"


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


@pytest.mark.parametrize("text", ["", "  \n", '{"n_experts": 3}'])
def test_parse_config_reads_the_file_once(text, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *args, **kwargs: reads.append(self) or read_text(self, *args, **kwargs))
    cfg = parse_config(str(path))
    assert reads == [path]
    assert cfg.n_experts == (3 if text.strip() else 10)


def test_parse_config_names_the_line_of_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "n_experts": 3,\n}')
    with pytest.raises(ValueError) as error:
        parse_config(str(path))
    assert str(error.value) == f"{path} line 3: Expecting property name enclosed in double quotes at column 1"


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


def test_decode_names_a_matrix_file_without_its_matrix_field(tmp_path, capsys):
    matrix = write(tmp_path / "m.json", {"mtx": [[0.1]]})
    assert run_cli(["decode", "--matrix", matrix]) == 1
    assert cli_error(capsys) == {"type": "ValueError", "message": "matrix file has no 'matrix' field"}


@pytest.mark.parametrize("content,message", [
    ({"matrix": [["0.5", True], [0.1, 0.2]]}, "matrix element [0][0] is '0.5', a str, not int or float"),
    ([[0.5, True], [0.1, 0.2]], "matrix element [0][1] is True, a bool, not int or float"),
    ([[0.5, 0.1], [0.2]], "matrix element [1] has 1 entries, not 2 as the rows before it"),
    ({"matrix": 0.5}, "matrix must be a non-empty list, not a float"),
    ([[0, 0], [-BIG, 0]], "matrix element [1][0] is an integer larger than any float"),
], ids=["wrapped-str", "bare-bool", "ragged", "wrapped-number", "integer-past-any-float"])
def test_decode_names_a_matrix_entry_that_is_no_json_number(content, message, tmp_path, capsys):
    matrix = write(tmp_path / "m.json", content)
    assert run_cli(["decode", "--matrix", matrix]) == 1
    assert cli_error(capsys) == {"type": "ValueError", "message": message}


def test_decode_into_a_closed_pipe_ends_with_one_error_line(tmp_path):
    # The read end is closed before the child starts, so its first write to stdout fails with EPIPE.
    matrix = write(tmp_path / "m.json", [[0.0, 0.99], [0.01, 0.0]])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        process = subprocess.run([sys.executable, "-m", "dagswarm.cli", "decode", "--matrix", matrix], env=env,
                                 stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert process.returncode != 0
    assert "Traceback" not in process.stderr and "Exception ignored" not in process.stderr
    (line,) = process.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "BrokenPipeError"


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


@pytest.mark.filterwarnings("error")  # the sums are checked before any numpy reduction of them could overflow
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


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_jobs_without_an_endpoint_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    assert run_cli([command, "--jobs", "2", "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "UsageError" and ENDPOINT_ENV in error["message"]
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "flag,content,message",
    [
        ("--correctness", [1, 2], "correctness file root must be a JSON object"),
        ("--correctness", {"per_expert_correct": [[1]]}, "correctness file has no 'system_correct' field"),
        (
            "--correctness",
            {"per_expert_correct": [[True], [False]], "system_correct": ["no", False]},
            "correctness file field 'system_correct' cannot be read: "
            "ValueError(\"system_correct element [0] is 'no', a str, not bool\")",
        ),
        (
            "--correctness",
            {"per_expert_correct": [[True], [0]], "system_correct": [True, False]},
            "correctness file field 'per_expert_correct' cannot be read: "
            "ValueError('per_expert_correct element [1][0] is 0, a int, not bool')",
        ),
        (
            "--correctness",
            {"per_expert_correct": [[True]], "system_correct": [True], "note": "x"},
            "correctness file has an unknown field 'note'",
        ),
        (
            "--ablation",
            {"wo_role": 0.1, "role_baseline_avg": 0.5, "weight_baseline_avg": 0.4},
            "ablation file has no 'wo_weight' field",
        ),
    ],
    ids=["list-root", "no-system_correct", "system_correct-str", "per_expert_correct-int", "unknown-field", "no-wo_weight"],
)
def test_analyze_names_the_root_or_missing_field_of_a_malformed_file(flag, content, message, tmp_path, capsys):
    files = {"--correctness": {"per_expert_correct": [[True]], "system_correct": [True]}, flag: content}
    args = ["analyze", "--out", str(tmp_path / "an")]
    for name, data in files.items():
        args += [name, write(tmp_path / f"{name[2:]}.json", data)]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "an").exists()


@pytest.mark.parametrize("value,error", [
    (None, "None is a NoneType"), ("x", "'x' is a str"), ("0.5", "'0.5' is a str"), (True, "True is a bool"),
    pytest.param(BIG, OVERFLOW, id="integer-past-any-float"),
])
def test_analyze_names_an_ablation_value_it_cannot_read(value, error, tmp_path, capsys):
    correctness = write(tmp_path / "corr.json", {"per_expert_correct": [[True]], "system_correct": [True]})
    ablation = write(
        tmp_path / "ablation.json",
        {"wo_role": value, "wo_weight": 0.2, "role_baseline_avg": 0.5, "weight_baseline_avg": 0.4},
    )
    assert run_cli(["analyze", "--correctness", correctness, "--ablation", ablation, "--out", str(tmp_path / "an")]) == 1
    message = cli_error(capsys)["message"]
    assert message == f"ablation file field 'wo_role' cannot be read: {error}"
    assert not (tmp_path / "an").exists()


@pytest.mark.parametrize(
    "trace,message",
    [
        ("[1, 2]\n", "trace line 1: a trace row must be a JSON object"),
        ('{"iteration": 0}\n', "trace line 1 has no 'ran_role' field"),
        (
            json.dumps({
                "iteration": 0, "ran_role": True, "ran_weight": True, "best_role_utility": 0.5,
                "best_utility": 0.5, "best_contribution": None, "evaluator_calls": 8, "note": "x",
            }) + "\n",
            "trace line 1 has an unknown field 'note'",
        ),
        (
            json.dumps({
                "iteration": 0, "ran_role": True, "ran_weight": True, "best_role_utility": 0.5,
                "best_utility": BIG, "best_contribution": None, "evaluator_calls": 8,
            }) + "\n",
            f"trace line 1 field 'best_utility' cannot be read: {OVERFLOW}",
        ),
    ],
    ids=["list", "missing-field", "unknown-field", "integer-past-any-float"],
)
def test_analyze_reads_a_malformed_trace_before_writing_anything(trace, message, tmp_path, capsys):
    correctness = write(tmp_path / "corr.json", {"per_expert_correct": [[True]], "system_correct": [True]})
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(trace)
    args = ["analyze", "--correctness", correctness, "--trace", str(trace_path), "--out", str(tmp_path / "an")]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "an").exists()


@no_leaked_sockets
def test_optimize_error_names_the_particle_node_and_endpoint_of_a_failed_evaluation(tmp_path, capsys, monkeypatch):
    endpoint = "http://127.0.0.1:9/"  # the discard port: nothing listens there
    monkeypatch.setenv(ENDPOINT_ENV, endpoint)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"input": "2+2", "answer": "4"}) + "\n")
    cfg = write(
        tmp_path / "cfg.json",
        {"n_experts": 2, "matrix_swarm_size": 2, "mode": "role_only", "utility_spec": {"name": "dataset", "path": str(dataset)}},
    )
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    error = cli_error(capsys)
    assert error["type"] == "RuntimeError"
    pattern = rf"utility evaluation failed for particle 0: evaluator failed at node \d: remote evaluation failed at {re.escape(endpoint)}: \S"
    assert re.match(pattern, error["message"]), error["message"]
    assert not (tmp_path / "a").exists()


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


def test_optimize_rejects_a_pool_for_a_task_that_reads_no_expert(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "hidden_dag", "n": 3}})
    save_pool(build_pool(3, 1, 6, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    assert run_cli(["optimize", "--config", cfg, "--pool", str(tmp_path / "pool"), "--out", str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ValueError", "message": "this task reads no expert vector; give no pool"}
    assert not (tmp_path / "b").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print a second stderr line
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_optimize_rejects_a_pool_file_with_a_value_that_is_not_finite(tmp_path, capsys, value):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}})
    save_pool(build_pool(3, 1, 6, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    (tmp_path / "pool" / "expert_001.json").write_text(f"[0.5, {value}, 0, 0, 0, 0]")
    assert run_cli(["optimize", "--config", cfg, "--pool", str(tmp_path / "pool"), "--out", str(tmp_path / "b")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    error = json.loads(captured.err)["error"]
    assert error == {"type": "ValueError", "message": "pool expert 1 holds a value that is not finite"}
    assert not (tmp_path / "b").exists()


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
    assert run_cli(["evaluate", "--system", str(out / "best_system.json"), "--config", cfg]) == 0
    capsys.readouterr()
    assert len(closed) == 3
    assert len(keepalive_stub.requests) == 2 * 2 * 3 * 3 + 2 * 3


def test_analyze_writes_report_and_csv(tmp_path, capsys):
    correctness = write(
        tmp_path / "corr.json",
        {
            "per_expert_correct": [[False, False], [True, False], [False, True], [True, True]],
            "system_correct": [True, True, False, True],
        },
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


def affine_config(tmp_path, **fields):
    """A small affine_target run whose task fits ``write_system(..., diamond_dag(), (4, 6) experts)``."""
    cfg = {
        "n_experts": 4,
        "matrix_swarm_size": 3,
        "assignments_per_step": 3,
        "max_iterations": 2,
        "patience": 2,
        "utility_spec": {"name": "affine_target", "n": 4, "points": 3},
        **fields,
    }
    return write(tmp_path / "cfg.json", cfg)


def dataset_config(tmp_path, lines):
    """A two-expert role_only run on a JSONL dataset of ``lines`` (objects are dumped, strings written as is)."""
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines))
    cfg = {
        "n_experts": 2,
        "matrix_swarm_size": 2,
        "max_iterations": 2,
        "patience": 2,
        "mode": "role_only",
        "utility_spec": {"name": "dataset", "path": str(dataset)},
    }
    return write(tmp_path / "cfg.json", cfg)


def test_evaluate_affine_system(tmp_path, capsys, monkeypatch):
    """In every mode, evaluate prints the utility the run's own task gives the returned system, bit for bit."""
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    # The task comes from the config alone, so a seed given to optimize on the command line goes into its config.
    cfg_path = affine_config(tmp_path, seed=3)
    task = json.loads(Path(cfg_path).read_text())["utility_spec"]
    for mode in ("full", "role_only", "weight_only"):
        out = tmp_path / mode
        assert run_cli(["optimize", "--config", cfg_path, "--mode", mode, "--out", str(out)]) == 0
        best_utility = json.loads(capsys.readouterr().out)["best_utility"]
        assert run_cli(["evaluate", "--system", str(out / "best_system.json"), "--config", cfg_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        system = OptimizedSystem.from_dict(json.loads((out / "best_system.json").read_text()))
        utility = build_utility(task, RngFactory(3).stream("task"))
        expected = utility.evaluate(system.dag, system.assignment, system.expert_params)
        assert payload["format_version"] == 2 and len(payload["results"]) == 3
        assert payload["utility"].hex() == expected.hex(), mode
        if mode == "role_only":
            assert payload["utility"].hex() == best_utility.hex()


def test_evaluate_local_items_match_a_per_item_execute(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    dag = diamond_dag()
    experts = np.random.default_rng(3).uniform(-0.9, 0.9, (4, 6))
    system = write_system(tmp_path / "sys.json", dag, experts)
    out = tmp_path / "eval.json"
    assert run_cli(["evaluate", "--system", system, "--config", affine_config(tmp_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    payload = json.loads(printed)
    task = build_utility({"name": "affine_target", "n": 4, "points": 3}, RngFactory(0).stream("task"))
    for entry, x, y in zip(payload["results"], task.inputs, task.targets, strict=True):
        output = execute(dag, Assignment.identity(4), experts, x, AffineEvaluator())
        assert np.array_equal(entry["output"], output)
        assert entry["score"] == -float(np.sum((output - y) ** 2))
    assert payload["utility"] == task.evaluate(dag, Assignment.identity(4), experts)


@pytest.mark.parametrize("spec", [{"name": "constant"}, {"name": "hidden_dag", "n": 4}])
def test_evaluate_rejects_a_utility_that_scores_no_items(spec, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6)))
    assert run_cli(["evaluate", "--system", system, "--config", write(tmp_path / "cfg.json", {"utility_spec": spec})]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"].endswith("Utility scores no items")


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
    cfg = dataset_config(tmp_path, [{"input": "2+2", "answer": "4"}])
    assert run_cli(["evaluate", "--system", system_path, "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["utility"] == 0.0  # the echo stub answers with the prompt
    (entry,) = payload["results"]
    assert entry["output"].startswith("Please answer") and entry["score"] == 0.0


def test_evaluate_reproduces_a_remote_role_only_run(tmp_path, capsys, monkeypatch, clean_stub):
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    # Each answer is the echo of one of the two 2-node wirings, so every system matches one item.
    question = "2+2"
    answers = [
        build_prompt("end", question, [{"node": entry, "text": build_prompt("entry", question, [])}])
        for entry in (0, 1)
    ]
    cfg = dataset_config(tmp_path, [{"input": question, "answer": answer} for answer in answers])
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    best_utility = json.loads(capsys.readouterr().out)["best_utility"]
    requests = len(clean_stub.requests)
    assert run_cli(["evaluate", "--system", str(tmp_path / "run" / "best_system.json"), "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["utility"].hex() == best_utility.hex() == (0.5).hex()
    assert sorted(entry["score"] for entry in payload["results"]) == [0.0, 1.0]
    assert len(clean_stub.requests) - requests == 2 * len(answers)  # n requests per item: each item ran once


def test_evaluate_rejects_an_unknown_system_version(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = tmp_path / "sys.json"
    write_system(system, diamond_dag(), np.zeros((4, 6)))
    system.write_text(json.dumps({**json.loads(system.read_text()), "format_version": 99}))
    assert run_cli(["evaluate", "--system", str(system), "--config", affine_config(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "99" in error["message"]


def test_evaluate_names_a_missing_input_field(tmp_path, capsys, monkeypatch, clean_stub):
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    cfg = dataset_config(tmp_path, [{"input": "2+2", "answer": "4"}, {"question": "3+3", "answer": "6"}])
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 1)))
    assert run_cli(["evaluate", "--system", system, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValueError" and "'input'" in error["message"]
    assert clean_stub.requests == []


def cli_error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)["error"]


def test_evaluate_names_a_system_file_that_is_not_an_object(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = write(tmp_path / "sys.json", [1, 2])
    assert run_cli(["evaluate", "--system", system, "--config", affine_config(tmp_path)]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"] == "system root must be a JSON object"


@pytest.mark.parametrize("key", ["dag", "assignment", "experts", "best_utility", "best_role_utility"])
def test_evaluate_names_a_missing_system_key(tmp_path, capsys, monkeypatch, key):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = tmp_path / "sys.json"
    write_system(system, diamond_dag(), np.zeros((4, 6)))
    data = json.loads(system.read_text())
    del data[key]
    write(system, data)
    assert run_cli(["evaluate", "--system", str(system), "--config", affine_config(tmp_path)]) == 1
    error = cli_error(capsys)
    assert error == {"type": "ValueError", "message": f"system has no {key!r} field"}


def test_evaluate_names_a_system_field_it_cannot_read(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = tmp_path / "sys.json"
    write_system(system, diamond_dag(), np.zeros((4, 6)))
    write(system, {**json.loads(system.read_text()), "dag": {}})
    assert run_cli(["evaluate", "--system", str(system), "--config", affine_config(tmp_path)]) == 1
    assert cli_error(capsys) == {"type": "ValueError", "message": "system field 'dag' cannot be read: KeyError('n')"}


def test_evaluate_names_an_experts_value_that_is_not_a_matrix(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    system = tmp_path / "sys.json"
    write_system(system, diamond_dag(), np.zeros((4, 6)))
    write(system, {**json.loads(system.read_text()), "experts": 5})
    assert run_cli(["evaluate", "--system", str(system), "--config", affine_config(tmp_path)]) == 1
    message = "system field 'experts' cannot be read: ValueError('experts must be a non-empty list, not a int')"
    assert cli_error(capsys) == {"type": "ValueError", "message": message}


def test_analyze_names_a_trace_value_of_the_wrong_json_type_before_writing_anything(tmp_path, capsys):
    correctness = write(tmp_path / "corr.json", {"per_expert_correct": [[True]], "system_correct": [True]})
    row = {
        "iteration": 0, "ran_role": True, "ran_weight": True, "best_role_utility": 0.5,
        "best_utility": 0.5, "best_contribution": None, "evaluator_calls": 8,
    }
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "iteration": 1, "evaluator_calls": "7"}) + "\n")
    args = ["analyze", "--correctness", correctness, "--trace", str(trace_path), "--out", str(tmp_path / "an")]
    assert run_cli(args) == 1
    message = "trace line 2 field 'evaluator_calls' cannot be read: '7' is a str"
    assert cli_error(capsys) == {"type": "ValueError", "message": message}
    assert not (tmp_path / "an").exists()


def test_optimize_names_a_config_value_of_the_wrong_json_type(tmp_path, capsys):
    cfg = affine_config(tmp_path, n_experts="4")
    assert run_cli(["optimize", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert cli_error(capsys) == {"type": "ValueError", "message": "config field 'n_experts' cannot be read: '4' is a str"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad", ["config", "matrix", "system", "correctness", "ablation", "resume", "manifest", "expert"])
def test_a_json_input_file_that_is_not_json_names_itself(bad, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    cfg = affine_config(tmp_path)
    pool = tmp_path / "pool"
    save_pool(np.zeros((4, 6)), pool)
    correctness = write(tmp_path / "corr.json", {"per_expert_correct": [[True]], "system_correct": [True]})
    paths = {
        "config": cfg,
        "matrix": write(tmp_path / "m.json", [[0.0]]),
        "system": write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6))),
        "correctness": correctness,
        "ablation": write(tmp_path / "ablation.json", {}),
        "resume": str(tmp_path / "ck.json"),
        "manifest": str(pool / "manifest.json"),
        "expert": str(pool / "expert_001.json"),
    }
    commands = {
        "config": ["optimize", "--config", cfg],
        "matrix": ["decode", "--matrix", paths["matrix"]],
        "system": ["evaluate", "--system", paths["system"], "--config", cfg],
        "correctness": ["analyze", "--correctness", correctness],
        "ablation": ["analyze", "--correctness", correctness, "--ablation", paths["ablation"]],
        "resume": ["optimize", "--config", cfg, "--resume", paths["resume"]],
        "manifest": ["optimize", "--config", cfg, "--pool", str(pool)],
        "expert": ["optimize", "--config", cfg, "--pool", str(pool)],
    }
    Path(paths[bad]).write_text('{\n  "x": 1,\n}')
    assert run_cli(commands[bad] + ["--out", str(tmp_path / "out")]) == 1
    assert cli_error(capsys) == {
        "type": "ValueError",
        "message": f"{paths[bad]} line 3: Expecting property name enclosed in double quotes at column 1",
    }
    assert not (tmp_path / "out").exists()


def test_evaluate_names_a_dataset_line_that_is_not_an_object(tmp_path, capsys, monkeypatch, clean_stub):
    monkeypatch.setenv(ENDPOINT_ENV, clean_stub.endpoint)
    cfg = dataset_config(tmp_path, [{"input": "2+2", "answer": "4"}, "", "5"])
    system = write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 1)))
    assert run_cli(["evaluate", "--system", system, "--config", cfg]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"].startswith(f"{tmp_path / 'data.jsonl'} line 3: ")



def test_optimize_names_a_checkpoint_that_is_not_an_object(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}})
    checkpoint = write(tmp_path / "ck.json", [1])
    assert run_cli(["optimize", "--config", cfg, "--resume", checkpoint, "--out", str(tmp_path / "run")]) == 1
    error = cli_error(capsys)
    assert error["type"] == "ValueError" and error["message"] == "checkpoint root must be a JSON object"
    assert not (tmp_path / "run").exists()


def test_optimize_names_a_field_the_checkpoint_lacks(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}})
    checkpoint = write(tmp_path / "ck.json", {"format_version": 4})
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
    ("iteration", -5),
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
    cfg = dataset_config(tmp_path, [{"input": q, "answer": "x"} for q in questions])
    system = write_system(tmp_path / "sys.json", dag, np.zeros((4, 1)))
    assert run_cli(["evaluate", "--system", system, "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == len(questions)
    for entry, question in zip(payload["results"], questions):
        entry_reply = build_prompt("entry", question, [])
        middle = [{"node": v, "text": build_prompt("middle", question, [{"node": 0, "text": entry_reply}])} for v in (1, 2)]
        assert entry == {"output": build_prompt("end", question, middle), "score": 0.0}
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


@pytest.mark.parametrize("command", [["decode", "--matrix", "matrix.json"], ["optimize"]])
def test_a_negative_seed_flag_is_a_usage_error(tmp_path, capsys, command):
    assert run_cli([*command, "--seed", "-3", "--out", str(tmp_path / "out")]) == 2
    assert cli_error(capsys) == {"type": "UsageError", "message": "--seed must be >= 0"}
    assert not (tmp_path / "out").exists()


@no_leaked_sockets
def test_serve_stub_echoes_and_exits_cleanly_on_sigint():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # faulthandler dumps every thread's stack to stderr on SIGABRT, which a hang below sends.
    command = [sys.executable, "-X", "faulthandler", "-m", "dagswarm.cli", "serve-stub", "--port", "0"]
    # Leaving the with block closes the child's pipes, also when the test fails.
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
        try:
            endpoint = json.loads(process.stdout.readline())["endpoint"]
            evaluator = RemoteEvaluator(endpoint, timeout=5)
            try:
                reply = evaluator.evaluate("entry", None, {}, "q", 0)
            finally:
                evaluator.close()
            process.send_signal(signal.SIGINT)
            try:
                _, stderr = process.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                process.send_signal(signal.SIGABRT)
                try:
                    stderr = process.communicate(timeout=5)[1]
                except subprocess.TimeoutExpired:
                    process.kill()
                    stderr = process.communicate()[1]
                pytest.fail(f"serve-stub did not exit within 10 s of SIGINT; stderr:\n{stderr}")
        finally:
            process.kill()
    assert reply == build_prompt("entry", "q", [])
    assert process.returncode == 0
    assert "Traceback" not in stderr, stderr


def test_readme_cli_lines_parse():
    """Every ``dagswarm ...`` line of README's CLI block parses, so a removed or renamed flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["dagswarm"]]
    assert [words[0] for words in commands] == ["optimize", "decode", "evaluate", "analyze", "sweep", "serve-stub"]
    for words in commands:
        cli.build_parser().parse_args(words)


def _pool_holding(tmp_path, row):
    save_pool(np.zeros((4, 6)), tmp_path / "pool")
    write(tmp_path / "pool" / "expert_001.json", row)
    return str(tmp_path / "pool")


def _system_holding(tmp_path, **fields):
    system = Path(write_system(tmp_path / "sys.json", diamond_dag(), np.zeros((4, 6))))
    return write(system, {**json.loads(system.read_text()), **fields})


@pytest.mark.parametrize("argv,message", [
    (lambda tmp: ["optimize", "--config", affine_config(tmp, utility_spec={"name": "affine_target", "n": 4, "scale": BIG})],
     f"utility_spec field 'scale' cannot be read: {OVERFLOW}"),
    (lambda tmp: ["optimize", "--config", affine_config(tmp, utility_spec={"name": "constant", "value": -BIG})],
     f"utility_spec field 'value' cannot be read: {OVERFLOW}"),
    (lambda tmp: ["optimize", "--config", affine_config(tmp), "--pool", _pool_holding(tmp, [0, BIG, 0, 0, 0, 0])],
     "expert file expert_001.json element [1] is an integer larger than any float"),
    (lambda tmp: ["evaluate", "--config", affine_config(tmp), "--system", _system_holding(tmp, best_utility=BIG)],
     f"system field 'best_utility' cannot be read: {OVERFLOW}"),
    (lambda tmp: ["evaluate", "--config", affine_config(tmp), "--system", _system_holding(tmp, best_role_utility=BIG)],
     f"system field 'best_role_utility' cannot be read: {OVERFLOW}"),
    (lambda tmp: ["evaluate", "--config", affine_config(tmp), "--system", _system_holding(tmp, experts=[[0] * 6] * 3 + [[0] * 5 + [BIG]])],
     "system field 'experts' cannot be read: ValueError('experts element [3][5] is an integer larger than any float')"),
    (lambda tmp: ["evaluate", "--config", affine_config(tmp), "--system", _system_holding(tmp, dag={**diamond_dag().to_dict(), "n": BIG})],
     "system field 'dag' cannot be read: ValueError('topo_order is not a permutation of nodes')"),
])
def test_an_integer_no_float_holds_is_rejected_by_name_before_anything_runs(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(ENDPOINT_ENV, raising=False)
    assert run_cli(argv(tmp_path) + ["--out", str(tmp_path / "out")]) == 1
    assert cli_error(capsys) == {"type": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()
