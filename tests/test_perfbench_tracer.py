"""The benchmark's tracer wraps dagswarm functions by module attribute.

A traced run fails with ``AttributeError`` when ``src/`` drops or moves a
name the tracer wraps, so this runs a tiny ``optimize`` under it. The
tracer file is only read.
"""
from __future__ import annotations

import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from dagswarm import DatasetUtility, RemoteEvaluator, RngFactory, RunConfig, build_utility, optimize
from dagswarm import graph, orchestrate
from conftest import no_leaked_sockets

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The weight modes run a role step (weight_only at iteration 0 only) and weight steps.
SPANS = {
    "graph.decode_dag", "pso.pso_step", "rng.stream", "executor.execute", "utilities.evaluate",
    "role_step", "weight_step", "orchestrate.checkpoint",
    "weight_step.sample_assignments", "weight_step.contribution_scores",
}
# decode_role's shape runs role steps only, and its edit-distance utility executes nothing.
ROLE_SPANS = {"graph.decode_dag", "pso.pso_step", "rng.stream", "utilities.evaluate", "role_step", "orchestrate.checkpoint"}
# remote_echo's shape runs role steps only, executing each candidate's items against the endpoint, with no checkpoint.
REMOTE_SPANS = ROLE_SPANS - {"orchestrate.checkpoint"} | {"executor.execute", "remote.request"}
AFFINE = {"n_experts": 3, "utility_spec": {"name": "affine_target", "n": 3, "points": 2}}


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ next to the tracer
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode, task, spans", [
    pytest.param("full", AFFINE, SPANS, id="full"),
    pytest.param("weight_only", AFFINE, SPANS, id="weight_only"),
    pytest.param("role_only", {"n_experts": 4, "utility_spec": {"name": "hidden_dag", "target": "star", "n": 4}},
                 ROLE_SPANS, id="decode_role"),
])
def test_traced_optimize_runs_and_matches_an_untraced_run(mode, task, spans, tmp_path, monkeypatch):
    cfg = RunConfig(matrix_swarm_size=3, assignments_per_step=3, max_iterations=2, patience=2, mode=mode, **task)

    def utility():
        return build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"))

    expected_system, expected_trace = optimize(cfg, None, utility())
    traced = utility()
    tracer = load_tracer(monkeypatch).Tracer()
    with tracer.installed(traced):
        system, trace = optimize(cfg, None, traced, checkpoint_path=tmp_path / "ck.json")
    assert {span[0] for span in tracer.spans} == spans
    assert tracer.span_count("orchestrate.checkpoint") == len(trace.rows)  # one write per iteration
    # Every utility score goes through evaluate: N per role step, M per weight step.
    implied = sum(cfg.matrix_swarm_size * row.ran_role + cfg.assignments_per_step * row.ran_weight for row in trace.rows)
    assert tracer.span_count("utilities.evaluate") == implied
    assert system.to_json() == expected_system.to_json()
    assert trace.to_jsonl() == expected_trace.to_jsonl()
    assert orchestrate.decode_dag is graph.decode_dag  # the wrappers are gone again


@no_leaked_sockets
def test_traced_remote_run_counts_one_request_span_per_request(clean_stub, monkeypatch):
    # remote_echo's shape: role_only over text items on a RemoteEvaluator with its default jobs, here at the stub.
    cfg = RunConfig(n_experts=4, matrix_swarm_size=2, max_iterations=2, patience=2, mode="role_only",
                    utility_spec={"name": "dataset"})
    items = [{"input": f"What is {k} + {k}?", "answer": str(2 * k)} for k in range(3)]

    def remote_run(tracer=None):
        utility = DatasetUtility(items, RemoteEvaluator(clean_stub.endpoint))
        try:
            with tracer.installed(utility) if tracer else nullcontext():
                system, trace = optimize(cfg, None, utility)
            return system, trace, utility.evaluator_calls
        finally:
            utility.evaluator.close()

    expected_system, expected_trace, _ = remote_run()
    clean_stub.requests.clear()
    tracer = load_tracer(monkeypatch).Tracer()
    system, trace, calls = remote_run(tracer)
    assert {span[0] for span in tracer.spans} == REMOTE_SPANS
    assert tracer.span_count("remote.request") == len(clean_stub.requests) == calls
    assert calls == cfg.n_experts * len(items) * cfg.matrix_swarm_size * cfg.max_iterations
    assert tracer.span_count("utilities.evaluate") == cfg.matrix_swarm_size * len(trace.rows)  # N per row
    assert system.to_json() == expected_system.to_json()
    assert trace.to_jsonl() == expected_trace.to_jsonl()
    assert orchestrate.decode_dag is graph.decode_dag
