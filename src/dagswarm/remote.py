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

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import requests

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
    """

    uses_expert_params = False

    def __init__(self, endpoint: str, timeout: float = 30.0, retries: int = 0):
        super().__init__()
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries

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
        last_error: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                response = requests.post(self.endpoint, json=request, timeout=self.timeout)
                response.raise_for_status()
                text = response.json()["text"]
                if not isinstance(text, str):
                    raise ValueError("endpoint returned a non-string 'text'")
                return Message(text, origin=node)
            except (requests.RequestException, ValueError, KeyError) as exc:
                last_error = exc
        raise RuntimeError(f"remote evaluation failed at {self.endpoint}: {last_error}")


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
