from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    DagStructure,
    DatasetUtility,
    ExecutionError,
    Message,
    PROMPT_PREAMBLES,
    RemoteEvaluator,
    RunConfig,
    build_prompt,
    chain_dag,
    execute,
    optimize,
)

ENTRY = "Please answer the following question."
MIDDLE = (
    "Please answer the following question with the help of previous responses, "
    "feel free to ignore wrong or unhelpful responses."
)
END = MIDDLE + " Make sure to provide a final and definitive answer."


def test_preambles_verbatim():
    assert PROMPT_PREAMBLES["entry"] == ENTRY
    assert PROMPT_PREAMBLES["middle"] == MIDDLE
    assert PROMPT_PREAMBLES["end"] == END


def test_prompt_layout():
    prompt = build_prompt("middle", "2+2?", [{"node": 0, "text": "four"}])
    assert prompt.startswith(MIDDLE)
    assert "Question: 2+2?" in prompt
    assert prompt.endswith("Response from node 0: four")


def test_echo_roundtrip_chain(clean_stub):
    dag = chain_dag(3)
    pool = [np.zeros(1)] * 3
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    out = execute(dag, Assignment.identity(3), pool, Message("What is 2+2?"), evaluator)
    assert evaluator.calls == 3
    assert len(clean_stub.requests) == 3
    roles = [r["role"] for r in clean_stub.requests]
    assert roles == ["entry", "middle", "end"]
    # the stub echoes the prompt, so the end output is the end prompt
    assert str(out.payload).startswith(END)
    assert "Question: What is 2+2?" in str(out.payload)


def test_entry_request_has_no_prior(clean_stub):
    dag = chain_dag(2)
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, Message("q"), evaluator)
    entry = clean_stub.requests[0]
    assert entry["role"] == "entry"
    assert entry["prior"] == []
    assert entry["task_input"] == "q"
    assert entry["node"] == 0


def test_middle_node_lists_two_priors_in_topo_order(clean_stub):
    # node 2 is a middle node fed by 0 and 1; node 3 is the end
    dag = DagStructure(4, 3, frozenset({(0, 2), (1, 2), (2, 3), (0, 3)}), (0, 1, 2, 3))
    dag.validate()
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    execute(dag, Assignment.identity(4), [np.zeros(1)] * 4, Message("q"), evaluator)
    middle = next(r for r in clean_stub.requests if r["node"] == 2)
    assert middle["role"] == "middle"
    assert [p["node"] for p in middle["prior"]] == [0, 1]
    assert middle["prompt"].index("Response from node 0:") < middle["prompt"].index(
        "Response from node 1:"
    )


def test_request_schema_fields(clean_stub):
    dag = chain_dag(2)
    execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, Message("q"), RemoteEvaluator(clean_stub.endpoint))
    for request in clean_stub.requests:
        assert set(request) == {"node", "role", "task_input", "prior", "prompt"}
        assert isinstance(request["node"], int)
        for prior in request["prior"]:
            assert set(prior) == {"node", "text"}


def test_unreachable_endpoint_is_execution_error():
    dag = chain_dag(2)
    evaluator = RemoteEvaluator("http://127.0.0.1:9/", timeout=0.2)
    with pytest.raises(ExecutionError) as err:
        execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, Message("q"), evaluator)
    assert err.value.node == 0


def test_non_text_payload_rejected(clean_stub):
    dag = chain_dag(2)
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    with pytest.raises(ExecutionError):
        execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, Message(np.zeros(2)), evaluator)


@pytest.mark.parametrize("mode", ["full", "weight_only"])
def test_parameter_search_over_remote_experts_rejected(clean_stub, mode):
    utility = DatasetUtility([{"input": "2+2", "answer": "4"}], RemoteEvaluator(clean_stub.endpoint))
    cfg = RunConfig(n_experts=2, matrix_swarm_size=2, assignments_per_step=2, max_iterations=2, mode=mode)
    with pytest.raises(ValueError, match="expert parameters"):
        optimize(cfg, None, utility)
    assert clean_stub.requests == []
    assert utility.evaluator_calls == 0
    _, trace = optimize(replace(cfg, mode="role_only"), None, utility)
    assert len(clean_stub.requests) == trace.total_evaluator_calls > 0
