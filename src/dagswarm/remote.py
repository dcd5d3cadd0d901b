"""Remote node evaluation over HTTP plus a stub server for tests.

Wire protocol, one POST per node evaluation:

    request:  {"node": int, "role": "entry"|"middle"|"end",
               "task_input": str, "prior": [{"node": int, "text": str}, ...],
               "prompt": str}
    response: {"text": str}

The prompt preamble depends on the node's position in the graph; the task
text and predecessor responses (in topological order) are appended.
"""
from __future__ import annotations

import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .executor import Message, NodeEvaluator, ROLE_END, ROLE_ENTRY, ROLE_MIDDLE

PROMPT_PREAMBLES = {
    ROLE_ENTRY: "Please answer the following question.",
    ROLE_MIDDLE: (
        "Please answer the following question with the help of previous "
        "responses, feel free to ignore wrong or unhelpful responses."
    ),
    ROLE_END: (
        "Please answer the following question with the help of previous "
        "responses, feel free to ignore wrong or unhelpful responses. "
        "Make sure to provide a final and definitive answer."
    ),
}


def build_prompt(role: str, task_text: str, prior: list[dict]) -> str:
    parts = [PROMPT_PREAMBLES[role], f"Question: {task_text}"]
    parts.extend(f"Response from node {p['node']}: {p['text']}" for p in prior)
    return "\n\n".join(parts)


class RemoteEvaluator(NodeEvaluator):
    """Evaluates a node by POSTing to an HTTP endpoint.

    Expert parameters are not transmitted; the endpoint is the model. Weight
    optimization over remote experts is rejected upstream for that reason.
    Each request has a connection of its own, and up to ``jobs`` dataset items
    are in flight at once. Transport errors and 5xx replies are retried up to
    ``retries`` times; any other bad reply fails at once.
    """

    uses_expert_params = False

    def __init__(self, endpoint: str, timeout: float = 30.0, retries: int = 0, jobs: int = 4):
        super().__init__()
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {endpoint!r}")
        if url.username is not None or url.password is not None:
            raise ValueError("endpoint must not carry credentials")
        if jobs < 1 or retries < 0:
            raise ValueError("jobs must be >= 1 and retries >= 0")
        self._connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._address = (url.hostname, url.port or self._connection.default_port)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.jobs = jobs

    def evaluate(self, role, params, inputs, task_input, node) -> Message:
        if not isinstance(task_input.payload, str):
            raise ValueError("remote mode requires text payloads")
        prior = [{"node": m.origin, "text": m.payload} for m in inputs]
        request = {
            "node": node,
            "role": role,
            "task_input": task_input.payload,
            "prior": prior,
            "prompt": build_prompt(role, task_input.payload, prior),
        }
        body = json.dumps(request).encode()
        for _ in range(self.retries + 1):
            connection = self._connection(*self._address, timeout=self.timeout)
            try:
                connection.request("POST", self._path, body, {"Content-Type": "application/json", "Connection": "close"})
                response = connection.getresponse()
                status, data = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                error = exc
                continue
            finally:
                connection.close()
            error = f"HTTP status {status}"
            if status < 400:
                try:
                    text = json.loads(data)["text"]
                except (ValueError, KeyError, TypeError):
                    text = None
                if isinstance(text, str):
                    return Message(text, origin=node)
                error = "reply is not a JSON object with a string 'text'"
            if status < 500:
                break
        raise RuntimeError(f"remote evaluation failed at {self.endpoint}: {error}")


class _StubHandler(BaseHTTPRequestHandler):
    """Echoes the constructed prompt back as the response text."""

    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        try:
            request = json.loads(self.rfile.read(length))
            reply = {"text": request["prompt"]}
        except (json.JSONDecodeError, KeyError):
            self.send_response(400)
            self.end_headers()
            return
        self.server.requests.append(request)
        body = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class StubServer(ThreadingHTTPServer):
    """In-process echo endpoint; records every request for inspection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _StubHandler)
        self.requests: list[dict] = []
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"

    def start(self) -> "StubServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
