from __future__ import annotations

import http.client
import itertools
import json
import re
import socket
import socketserver
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from dagswarm import (
    Assignment,
    DagStructure,
    DatasetUtility,
    ExecutionError,
    PROMPT_PREAMBLES,
    RemoteEvaluator,
    RunConfig,
    build_prompt,
    chain_dag,
    execute,
    optimize,
)
import dagswarm.remote as remote
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
    out = execute(dag, Assignment.identity(3), pool, "What is 2+2?", evaluator)
    assert evaluator.calls == 3
    assert len(clean_stub.requests) == 3
    roles = [r["role"] for r in clean_stub.requests]
    assert roles == ["entry", "middle", "end"]
    # the stub echoes the prompt, so the end output is the end prompt
    assert out.startswith(END)
    assert "Question: What is 2+2?" in out


def test_entry_request_has_no_prior(clean_stub):
    dag = chain_dag(2)
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, "q", evaluator)
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
    execute(dag, Assignment.identity(4), [np.zeros(1)] * 4, "q", evaluator)
    middle = next(r for r in clean_stub.requests if r["node"] == 2)
    assert middle["role"] == "middle"
    assert [p["node"] for p in middle["prior"]] == [0, 1]
    assert middle["prompt"].index("Response from node 0:") < middle["prompt"].index(
        "Response from node 1:"
    )


def test_request_schema_fields(clean_stub):
    dag = chain_dag(2)
    execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, "q", RemoteEvaluator(clean_stub.endpoint))
    for request in clean_stub.requests:
        assert set(request) == {"node", "role", "task_input", "prior", "prompt"}
        assert isinstance(request["node"], int)
        for prior in request["prior"]:
            assert set(prior) == {"node", "text"}


def test_unreachable_endpoint_is_execution_error():
    dag = chain_dag(2)
    evaluator = RemoteEvaluator("http://127.0.0.1:9/", timeout=0.2)
    with pytest.raises(ExecutionError) as err:
        execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, "q", evaluator)
    assert err.value.node == 0


def test_non_text_payload_rejected(clean_stub):
    dag = chain_dag(2)
    evaluator = RemoteEvaluator(clean_stub.endpoint)
    with pytest.raises(ExecutionError):
        execute(dag, Assignment.identity(2), [np.zeros(1)] * 2, np.zeros(2), evaluator)


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
    return evaluator.evaluate("end", None, {}, "q", 0)


OK = (200, b'{"text": "ok"}')


@pytest.mark.parametrize("first", [(503, b""), (500, b'{"text": "x"}'), None], ids=["503", "500", "dropped"])
def test_transport_errors_and_5xx_are_retried(scripted, first):
    scripted.replies = [first, OK]
    assert _ask(scripted, retries=2) == "ok"
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


@pytest.mark.parametrize("stub", ["clean_stub", "keepalive_stub"])
@pytest.mark.parametrize("length", ["-1", "abc"])
def test_stub_answers_a_post_of_unknown_length_at_once_and_closes(request, stub, length):
    server = request.getfixturevalue(stub)
    head = f"POST / HTTP/1.1\r\nHost: stub\r\nContent-Length: {length}\r\n\r\n".encode()
    reply = b""
    with socket.create_connection(server.server_address[:2], timeout=1.5) as sock:
        sock.sendall(head + json.dumps({"prompt": "p"}).encode())
        # Times out unless the stub both answers and closes the connection.
        while chunk := sock.recv(4096):
            reply += chunk
    status, *headers = reply.split(b"\r\n\r\n")[0].split(b"\r\n")
    assert status.split()[1:2] == [b"400"]
    assert b"Content-Length: 0" in headers and b"Connection: close" in headers
    assert reply.endswith(b"\r\n\r\n")
    assert server.requests == []


@no_leaked_sockets
def test_evaluator_reuses_its_connections_and_works_after_close(keepalive_stub):
    evaluator = RemoteEvaluator(keepalive_stub.endpoint)
    execute(chain_dag(3), Assignment.identity(3), [None] * 3, "q", evaluator)
    assert len(keepalive_stub.peers) == 1
    evaluator.close()
    execute(chain_dag(2), Assignment.identity(2), [None] * 2, "q", evaluator)
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
        outputs = execute(chain_dag(2), Assignment.identity(2), [None] * 2, questions, evaluator)
        pooled = list(evaluator._idle)
    finally:
        sys.setswitchinterval(interval)
        evaluator.close()
    for output, question in zip(outputs, questions):
        entry = build_prompt("entry", question, [])
        assert output == build_prompt("end", question, [{"node": 0, "text": entry}])
    assert len(keepalive_stub.requests) == 2 * len(questions)
    assert len({id(c) for c in pooled}) == len(pooled) == len(keepalive_stub.peers) <= 8


@no_leaked_sockets
@pytest.mark.parametrize("jobs", [1, 3])
def test_list_payload_equals_one_execute_per_item_at_the_echo_stub(clean_stub, jobs):
    dag = DagStructure(4, 3, frozenset({(0, 2), (1, 2), (2, 3), (0, 3)}), (0, 1, 2, 3))
    questions = [f"What is {k} + {k}?" for k in range(5)]
    alone = RemoteEvaluator(clean_stub.endpoint)
    evaluator = RemoteEvaluator(clean_stub.endpoint, jobs=jobs)
    try:
        expected = [execute(dag, Assignment.identity(4), [None] * 4, q, alone) for q in questions]
        clean_stub.requests.clear()
        batch = execute(dag, Assignment.identity(4), [None] * 4, questions, evaluator)
    finally:
        alone.close()
        evaluator.close()
    assert batch == expected
    assert evaluator.calls == len(clean_stub.requests) == dag.n * len(questions)
    assert sorted(r["task_input"] for r in clean_stub.requests) == sorted(questions * dag.n)


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
            assert evaluator.evaluate("end", None, {}, "q", 0).startswith(PROMPT_PREAMBLES["end"])
    finally:
        evaluator.close()
        server.stop()
    assert len(server.requests) == 3
    assert len(server.peers) == 3


DRIP = 0.1  # seconds between the pieces of a dripping reply


class _RawHandler(socketserver.StreamRequestHandler):
    """Reads each request by hand and answers it with the server's next scripted ``(reply, close)``.

    The reply's bytes go out as they are; a reply given as a list of pieces
    goes out one piece every ``DRIP`` seconds. With ``close`` the server then
    ends its side of the connection, so the client reads EOF after them.
    """

    timeout = 5  # a client that never closes its end cannot hang the server

    def handle(self):
        self.server.connections += 1
        try:
            while True:
                head = b""
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    head += line
                if not line:
                    return
                length = int(re.search(rb"Content-Length: (\d+)", head)[1])
                self.server.received.append(head + line + self.rfile.read(length))
                reply, close = self.server.replies.pop(0)
                for k, piece in enumerate(reply if isinstance(reply, list) else [reply]):
                    time.sleep(DRIP if k else 0)
                    self.wfile.write(piece)
                if close:
                    self.connection.shutdown(socket.SHUT_WR)
                    self.rfile.read()  # until the client closes its end
                    return
        except OSError:  # the client closed a connection whose reply it rejected
            pass


@pytest.fixture()
def raw():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawHandler)
    server.replies, server.received, server.connections = [], [], 0
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _endpoint(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}/"


def _sized(body=b'{"text": "ok"}', head=b"HTTP/1.1 200 OK\r\n"):
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


LONG_TEXT = b'{"text": "' + b"x" * 20 + b'"}'
CHUNKED = (
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    + b"1a;name=value\r\n" + LONG_TEXT[:26] + b"\r\n"
    + b"6\r\n" + LONG_TEXT[26:] + b"\r\n"
    + b"0\r\nX-Trailer: t\r\n\r\n"
)


@no_leaked_sockets
@pytest.mark.parametrize(
    "reply, close, pooled, text",
    [
        (_sized(), False, True, "ok"),
        (CHUNKED, False, True, "x" * 20),
        (b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{"text": "ok"}', True, False, "ok"),
        (_sized(head=b"HTTP/1.0 200 OK\r\n"), False, False, "ok"),
        (_sized(head=b"HTTP/1.1 200 OK\r\nConnection: Close\r\n"), False, False, "ok"),
        (b"HTTP/1.1 100 Continue\r\n\r\n" + _sized(), False, True, "ok"),
        (_sized(head=b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65536 - 10) + b"\r\n"), False, True, "ok"),
        (_sized(head=b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 99), False, True, "ok"),
    ],
    ids=["content-length", "chunked", "close-delimited", "http-1.0", "connection-close", "interim-100",
         "65536-byte-line", "100-headers"],
)
def test_reply_framings_and_which_connections_are_pooled(raw, reply, close, pooled, text):
    raw.replies = [(reply, close)] * 2
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5)
    try:
        for _ in range(2):
            assert evaluator.evaluate("end", None, {}, "q", 0) == text
            assert len(evaluator._idle) == pooled
    finally:
        evaluator.close()
    assert len(raw.received) == 2
    assert raw.connections == (1 if pooled else 2)


@no_leaked_sockets
def test_timeout_bounds_each_socket_read_not_the_whole_reply(raw):
    # Four pieces DRIP apart: no read waits longer than DRIP, but the reply takes longer than the timeout.
    reply = _sized(LONG_TEXT)
    raw.replies = [([reply[:10], reply[10:30], reply[30:50], reply[50:]], False)]
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=0.25)
    start = time.perf_counter()
    try:
        assert evaluator.evaluate("end", None, {}, "q", 0) == "x" * 20
    finally:
        evaluator.close()
    assert time.perf_counter() - start >= 3 * DRIP > evaluator.timeout
    assert raw.connections == 1


@no_leaked_sockets
def test_a_204_reply_has_no_body_and_keeps_the_connection(raw):
    raw.replies = [(b"HTTP/1.1 204 No Content\r\n\r\n", False), (_sized(), False)]
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5, retries=2)
    try:
        with pytest.raises(RuntimeError, match="not a JSON object"):
            evaluator.evaluate("end", None, {}, "q", 0)
        assert evaluator.evaluate("end", None, {}, "q", 0) == "ok"
    finally:
        evaluator.close()
    assert len(raw.received) == 2
    assert raw.connections == 1


@no_leaked_sockets
def test_eof_before_the_status_line_of_a_pooled_connection_costs_no_retry(raw):
    # The server ends its side after each reply but still reads, so the
    # pooled connection's next request meets EOF rather than a reset.
    raw.replies = [(_sized(), True)] * 2
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5, retries=0)
    try:
        for _ in range(2):
            assert evaluator.evaluate("end", None, {}, "q", 0) == "ok"
    finally:
        evaluator.close()
    assert len(raw.received) == raw.connections == 2


@no_leaked_sockets
@pytest.mark.parametrize(
    "reply, reason",
    [
        (_sized(head=b"HTTP/1.1 2x0 OK\r\n"), "malformed status line"),
        (_sized(head=b"ICY 200 OK\r\n"), "malformed status line"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"text": "ok"}', "reply body ended early"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"te", "reply body ended early"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "bad length in reply"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", "bad length in reply"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "bad length in reply"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n", "reply ended inside its headers"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX-Trailer: t\r\n", "reply ended inside its trailer"),
        (_sized(head=b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65537 - 10) + b"\r\n"), "longer than 65536 bytes"),
        (_sized(head=b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 100), "more than 100 headers"),
    ],
    ids=["status-code", "protocol", "truncated-body", "truncated-chunk", "negative-length", "non-numeric-length",
         "non-numeric-chunk-size", "eof-in-headers", "eof-in-trailer",
         "65537-byte-line", "101-headers"],
)
def test_malformed_replies_are_retried_transport_errors(raw, reply, reason):
    raw.replies = [(reply, True)] * 3 + [(reply, True), (_sized(), False)]
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5, retries=2)
    try:
        with pytest.raises(RuntimeError, match=re.escape(f"remote evaluation failed at {_endpoint(raw)}: ") + ".*" + reason):
            evaluator.evaluate("end", None, {}, "q", 0)
        assert len(raw.received) == raw.connections == 3
        assert evaluator.evaluate("end", None, {}, "q", 0) == "ok"
    finally:
        evaluator.close()
    assert len(raw.received) == raw.connections == 5


def _framed(framing, body):
    """A 200 reply carrying ``body`` in one framing, and whether the server then ends the connection."""
    if framing == "content-length":
        return _sized(body), False
    if framing == "chunked":
        halves = (body[: len(body) // 2], body[len(body) // 2 :])
        chunks = b"".join(b"%x\r\n%s\r\n" % (len(half), half) for half in halves)
        return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\n\r\n", False
    return b"HTTP/1.1 200 OK\r\n\r\n" + body, True


@no_leaked_sockets
@pytest.mark.parametrize(
    "head",
    [b"Content-Length: 1000000000000000\r\n", b"Transfer-Encoding: chunked\r\n\r\n%x" % 10**15],
    ids=["declared-length", "declared-chunk-size"],
)
def test_a_huge_declared_body_is_a_retried_transport_error_not_a_memory_error(raw, head):
    raw.replies = [(b"HTTP/1.1 200 OK\r\n" + head + b"\r\n", False)] * 3
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5, retries=2)
    try:
        with pytest.raises(RuntimeError, match=re.escape(f"remote evaluation failed at {_endpoint(raw)}: reply body longer than {remote._MAX_BODY} bytes")):
            evaluator.evaluate("end", None, {}, "q", 0)
    finally:
        evaluator.close()
    assert len(raw.received) == raw.connections == 3


@no_leaked_sockets
@pytest.mark.parametrize("framing", ["content-length", "chunked", "eof"])
def test_a_body_over_the_cap_is_a_retried_transport_error_and_one_at_the_cap_is_read(raw, monkeypatch, framing):
    raw.replies = [_framed(framing, LONG_TEXT)] * 4
    evaluator = RemoteEvaluator(_endpoint(raw), timeout=5, retries=2)
    try:
        monkeypatch.setattr(remote, "_MAX_BODY", len(LONG_TEXT) - 1)
        with pytest.raises(RuntimeError, match=f"reply body longer than {len(LONG_TEXT) - 1} bytes"):
            evaluator.evaluate("end", None, {}, "q", 0)
        assert len(raw.received) == raw.connections == 3
        monkeypatch.setattr(remote, "_MAX_BODY", len(LONG_TEXT))
        assert evaluator.evaluate("end", None, {}, "q", 0) == "x" * 20
    finally:
        evaluator.close()
    assert len(raw.received) == raw.connections == 4


class _SendCounting:
    """Delegates to a socket and records the name and data of every send call."""

    def __init__(self, sock, sends):
        self._sock, self._sends = sock, sends

    def __getattr__(self, name):
        attr = getattr(self._sock, name)
        if not name.startswith("send"):
            return attr

        def send(data, *args):
            self._sends.append((name, data))
            return attr(data, *args)

        return send


@no_leaked_sockets
@pytest.mark.parametrize(
    "endpoint, address, path",
    [
        ("http://localhost/", ("localhost", 80), "/"),
        ("http://127.0.0.1:8099", ("127.0.0.1", 8099), "/"),
        ("http://[::1]/", ("::1", 80), "/"),
        ("http://[::1]:8099/x", ("::1", 8099), "/x"),
        ("http://127.0.0.1:80/v1/echo?model=a&n=1", ("127.0.0.1", 80), "/v1/echo?model=a&n=1"),
    ],
)
def test_requests_are_the_bytes_of_http_client_in_one_sendall(raw, monkeypatch, endpoint, address, path):
    connect = socket.create_connection
    opened, sends = [], []

    def redirect(requested, timeout=None, *args):
        opened.append(requested)
        return _SendCounting(connect(raw.server_address, timeout), sends)

    monkeypatch.setattr(socket, "create_connection", redirect)
    raw.replies = [(_sized(), False)] * 3
    evaluator = RemoteEvaluator(endpoint, timeout=5)
    try:
        for text in ("q", "r"):
            evaluator.evaluate("end", None, {}, text, 0)
    finally:
        evaluator.close()
    assert sends == [("sendall", request) for request in raw.received]
    reference = http.client.HTTPConnection(*address, timeout=5)
    reference._create_connection = redirect
    try:
        reference.request("POST", path, raw.received[1].partition(b"\r\n\r\n")[2], {"Content-Type": "application/json"})
        reference.getresponse().read()
    finally:
        reference.close()
    assert raw.received[2] == raw.received[1]
    assert opened == [address, address]


@no_leaked_sockets
def test_https_endpoint_on_a_plain_http_server_fails_its_handshake(clean_stub, monkeypatch):
    connect = socket.create_connection
    opened = []

    def counted(address, *args):
        opened.append(address)
        return connect(address, *args)

    monkeypatch.setattr(socket, "create_connection", counted)
    host, port = clean_stub.server_address[:2]
    evaluator = RemoteEvaluator(f"https://{host}:{port}/", timeout=0.5, retries=2)
    with pytest.raises(RuntimeError, match=r"remote evaluation failed at https://.*(SSL|handshake)"):
        evaluator.evaluate("end", None, {}, "q", 0)
    evaluator.close()
    assert opened == [(host, port)] * 3
    assert clean_stub.requests == []


@pytest.mark.parametrize("endpoint", ["http://127.0.0.1:9/a b", "http://127.0.0.1:9/\u00e9", "http://127.0.0.1:9/a\x00"])
def test_endpoint_path_must_be_printable_ascii(endpoint):
    with pytest.raises(ValueError, match="printable ASCII"):
        RemoteEvaluator(endpoint)
