from __future__ import annotations

import http.client
import itertools
import json
import sys
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
from dagswarm.utilities import run_text_items
from conftest import KeepAliveStub, _KeepAliveHandler, no_leaked_sockets

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


@no_leaked_sockets
def test_role_only_search_identical_across_jobs(clean_stub, keepalive_stub):
    # The stub echoes prompts, so an answer equal to the end prompt of a star
    # (two entry nodes feeding node 2) makes the score depend on the decoded
    # structure and on pairing each reply with its own item. Over HTTP/1.1
    # every connection is reused, so an evaluator opens at most ``jobs``.
    items = []
    for k in range(8):
        question = f"What is {k} + {k}?"
        entry = build_prompt("entry", question, [])
        prior = [{"node": node, "text": entry} for node in ((1, 0) if k % 2 else (0, 1))]
        items.append({"input": question, "answer": build_prompt("end", question, prior)})
    cfg = RunConfig(n_experts=3, matrix_swarm_size=3, max_iterations=2, patience=2, mode="role_only", seed=5)
    outputs = set()
    for stub, jobs in itertools.product((clean_stub, keepalive_stub), (1, 2, 4, 8)):
        stub.requests.clear()
        keepalive_stub.peers.clear()
        evaluator = RemoteEvaluator(stub.endpoint, jobs=jobs)
        utility = DatasetUtility(items, evaluator)
        system, trace = optimize(cfg, None, utility)
        evaluator.close()
        assert utility.evaluator_calls == len(stub.requests) == trace.total_evaluator_calls
        assert system.best_utility > 0
        assert len(keepalive_stub.peers) <= jobs  # 0 when the HTTP/1.0 stub served the run
        outputs.add(trace.to_jsonl() + system.to_json())
    assert len(outputs) == 1


def test_unreachable_endpoint_fails_alike_for_every_jobs():
    items = [{"input": f"q{k}", "answer": "a"} for k in range(6)]
    errors = []
    for jobs in (1, 4):
        utility = DatasetUtility(items, RemoteEvaluator("http://127.0.0.1:9/", timeout=0.2, jobs=jobs))
        with pytest.raises(ExecutionError) as err:
            utility.evaluate(chain_dag(2), Assignment.identity(2), [np.zeros(1)] * 2)
        errors.append((err.value.node, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == 0


@pytest.mark.parametrize("endpoint", ["ftp://x", "localhost:8000", "http://", "not a url"])
def test_endpoint_must_be_http_url(endpoint):
    with pytest.raises(ValueError, match="http"):
        RemoteEvaluator(endpoint)


@pytest.mark.parametrize("endpoint", ["http://user:pw@127.0.0.1:9/", "https://user@example.com/"])
def test_endpoint_credentials_rejected(endpoint):
    with pytest.raises(ValueError, match="credentials"):
        RemoteEvaluator(endpoint)


@pytest.mark.parametrize(
    "endpoint, address",
    [
        ("http://[::1]/", ("::1", 80)),
        ("https://[::1]/", ("::1", 443)),
        ("http://[::1]:8099/x", ("::1", 8099)),
        ("http://localhost/", ("localhost", 80)),
        ("http://127.0.0.1:8099", ("127.0.0.1", 8099)),
    ],
)
def test_endpoint_address_has_an_explicit_port(endpoint, address):
    # http.client splits a port-less host at its last ':', which breaks IPv6 literals.
    assert RemoteEvaluator(endpoint)._address == address


def test_jobs_and_retries_validated():
    with pytest.raises(ValueError):
        RemoteEvaluator("http://127.0.0.1:9/", jobs=0)
    with pytest.raises(ValueError):
        RemoteEvaluator("http://127.0.0.1:9/", retries=-1)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next scripted (status, body); None drops the connection."""

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts += 1
        reply = self.server.replies.pop(0)
        if reply is None:
            self.close_connection = True
            return
        status, body = reply
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.posts = [], 0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _ask(server, retries):
    host, port = server.server_address[:2]
    evaluator = RemoteEvaluator(f"http://{host}:{port}/", timeout=5, retries=retries)
    return evaluator("end", None, [], Message("q"), 0)


OK = (200, b'{"text": "ok"}')


@pytest.mark.parametrize("first", [(503, b""), (500, b'{"text": "x"}'), None], ids=["503", "500", "dropped"])
def test_transport_errors_and_5xx_are_retried(scripted, first):
    scripted.replies = [first, OK]
    assert _ask(scripted, retries=2).payload == "ok"
    assert scripted.posts == 2


def test_retries_run_out(scripted):
    scripted.replies = [(503, b"")] * 3
    with pytest.raises(RuntimeError, match="HTTP status 503"):
        _ask(scripted, retries=2)
    assert scripted.posts == 3


@pytest.mark.parametrize(
    "reply",
    [(400, b'{"text": "x"}'), (404, b""), (200, b"not json"), (200, b"{}"), (200, b'{"text": 5}'), (200, b'["text"]')],
    ids=["400", "404", "non-json", "no-text", "non-string-text", "not-an-object"],
)
def test_other_bad_replies_fail_at_once(scripted, reply):
    scripted.replies = [reply, OK, OK]
    with pytest.raises(RuntimeError, match="remote evaluation failed"):
        _ask(scripted, retries=2)
    assert scripted.posts == 1


def _raw_post(connection, body):
    connection.request("POST", "/", body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read(), response.will_close


@pytest.mark.parametrize(
    "body",
    [b'{"prompt": "\xff"}', b"[1, 2]", b'"prompt"', b"{}", b"not json"],
    ids=["not-utf8", "list", "string", "no-prompt", "not-json"],
)
def test_stub_answers_a_malformed_post_at_once_and_keeps_the_connection(keepalive_stub, body):
    host, port = keepalive_stub.server_address[:2]
    # A 400 without Content-Length would leave this client reading until the timeout.
    connection = http.client.HTTPConnection(host, port, timeout=2)
    try:
        assert _raw_post(connection, body) == (400, b"", False)
        status, data, _ = _raw_post(connection, json.dumps({"prompt": "p"}).encode())
    finally:
        connection.close()
    assert (status, json.loads(data)) == (200, {"text": "p"})
    assert keepalive_stub.requests == [{"prompt": "p"}]
    assert len(keepalive_stub.peers) == 1


@no_leaked_sockets
def test_evaluator_reuses_its_connections_and_works_after_close(keepalive_stub):
    evaluator = RemoteEvaluator(keepalive_stub.endpoint)
    execute(chain_dag(3), Assignment.identity(3), [None] * 3, Message("q"), evaluator)
    assert len(keepalive_stub.peers) == 1
    evaluator.close()
    execute(chain_dag(2), Assignment.identity(2), [None] * 2, Message("q"), evaluator)
    evaluator.close()
    assert len(keepalive_stub.requests) == 5
    assert len(keepalive_stub.peers) == 2


@no_leaked_sockets
def test_pool_hands_each_connection_to_one_thread_at_a_time(keepalive_stub):
    # More workers than cores and frequent thread switches: a connection taken
    # by two threads at once would mix up replies or be pooled twice.
    evaluator = RemoteEvaluator(keepalive_stub.endpoint, timeout=5, jobs=8)
    questions = [f"q{k}" for k in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outputs = run_text_items(chain_dag(2), Assignment.identity(2), [None] * 2, questions, evaluator)
        pooled = list(evaluator._idle)
    finally:
        sys.setswitchinterval(interval)
        evaluator.close()
    for output, question in zip(outputs, questions):
        entry = build_prompt("entry", question, [])
        assert output == build_prompt("end", question, [{"node": 0, "text": entry}])
    assert len(keepalive_stub.requests) == 2 * len(questions)
    assert len({id(c) for c in pooled}) == len(pooled) == len(keepalive_stub.peers) <= 8


class _SilentCloseHandler(_KeepAliveHandler):
    """Closes the connection after each reply without a ``Connection: close`` header."""

    def do_POST(self):  # noqa: N802 - http.server API
        super().do_POST()
        self.close_connection = True


@no_leaked_sockets
def test_a_stale_pooled_connection_costs_no_retry():
    server = KeepAliveStub(_SilentCloseHandler).start()
    evaluator = RemoteEvaluator(server.endpoint, retries=0)
    try:
        for _ in range(3):
            assert evaluator("end", None, [], Message("q"), 0).payload.startswith(PROMPT_PREAMBLES["end"])
    finally:
        evaluator.close()
        server.stop()
    assert len(server.requests) == 3
    assert len(server.peers) == 3
