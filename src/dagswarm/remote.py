"""Remote node evaluation over HTTP.

Wire protocol, one POST per node evaluation:

    request:  {"node": int, "role": "entry"|"middle"|"end",
               "task_input": str, "prior": [{"node": int, "text": str}, ...],
               "prompt": str}
    response: {"text": str}

The prompt preamble depends on the node's position in the graph; the task
text and predecessor responses (in topological order) are appended.

``RemoteEvaluator`` speaks HTTP/1.1 itself over the sockets it keeps in a
pool, so a run pays one connect per item in flight rather than one per node
evaluation, and each request is one write of its head and body.
"""
from __future__ import annotations

import io
import json
import socket
import threading
from urllib.parse import urlsplit

from .executor import NodeEvaluator, ROLE_END, ROLE_ENTRY, ROLE_MIDDLE

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

_Connection = tuple[socket.socket, io.BufferedReader]

# http.client's limits on one line of a reply's head and on its header count,
# and the most body bytes one reply may hold however it is framed.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_BODY = 1 << 24


def build_prompt(role: str, task_text: str, prior: list[dict]) -> str:
    parts = [PROMPT_PREAMBLES[role], f"Question: {task_text}"]
    parts.extend(f"Response from node {p['node']}: {p['text']}" for p in prior)
    return "\n\n".join(parts)


class RemoteEvaluator(NodeEvaluator):
    """Evaluates a node by POSTing to an HTTP endpoint; the reply's text is the node's output.

    A request's ``prior`` holds the node's ``inputs``, ``{predecessor: text}``
    in topological order, as ``{"node", "text"}`` pairs.

    Expert parameters are not transmitted; the endpoint is the model. So a
    task over it declares ``expert_dim`` 0, and ``optimize`` rejects weight modes.
    Up to ``jobs`` items run at once on the evaluator's one worker pool,
    counted over every execution in flight, so at most ``jobs`` requests are
    out however many candidates a role step overlaps. Connections are kept
    in a pool on the evaluator and reused while the endpoint keeps them open
    (an HTTP/1.1 reply without ``Connection: close`` whose body was read in
    full); ``close`` shuts the worker pool down and closes the idle
    connections. A pooled connection that the endpoint has closed in the
    meantime is replaced by a fresh one without using up a retry. Each request
    goes out in one write, with the head that ``http.client`` would send. A
    reply body is framed by ``Content-Length``, by chunked transfer coding, or
    by the end of the connection, and holds at most ``_MAX_BODY`` bytes. ``timeout`` bounds each socket operation (a
    connect, a write, one read), not a whole request. Transport errors
    (including a malformed, truncated or over-long reply) and 5xx replies are
    retried up to ``retries`` times; any other bad reply fails at once.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, retries: int = 0, jobs: int = 8):
        super().__init__()
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {endpoint!r}")
        if url.username is not None or url.password is not None:
            raise ValueError("endpoint must not carry credentials")
        if jobs < 1 or retries < 0:
            raise ValueError("jobs must be >= 1 and retries >= 0")
        default_port = 443 if url.scheme == "https" else 80
        host = url.hostname
        self._address = (host, url.port or default_port)
        self._tls = None
        if url.scheme == "https":
            import ssl  # only an https evaluator pays for loading TLS

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if not path.isascii() or any(c <= " " or c == "\x7f" for c in path):
            raise ValueError(f"endpoint path must be printable ASCII, got {path!r}")
        # The Host header as http.client's putrequest writes it.
        host_header = host.encode("ascii") if host.isascii() else host.encode("idna")
        if ":" in host:
            host_header = b"[%s]" % host_header.partition(b"%")[0]
        if url.port not in (None, default_port):
            host_header += b":%d" % url.port
        self._head = b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % (path.encode(), host_header)
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.jobs = jobs

    def close(self) -> None:
        """Shut down the worker pool, then close the idle connections; a later request opens new ones."""
        super().close()
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for sock, reader in idle:
            reader.close()
            sock.close()

    def evaluate(self, role, params, inputs, task_input, node) -> str:
        if not isinstance(task_input, str):
            raise ValueError("remote mode requires text payloads")
        prior = [{"node": u, "text": text} for u, text in inputs.items()]
        request = {
            "node": node,
            "role": role,
            "task_input": task_input,
            "prior": prior,
            "prompt": build_prompt(role, task_input, prior),
        }
        body = json.dumps(request).encode()
        for _ in range(self.retries + 1):
            try:
                status, data = self._post(body)
            except OSError as exc:
                error = exc
                continue
            error = f"HTTP status {status}"
            if status < 400:
                try:
                    text = json.loads(data)["text"]
                except (ValueError, KeyError, TypeError):
                    text = None
                if isinstance(text, str):
                    return text
                error = "reply is not a JSON object with a string 'text'"
            if status < 500:
                break
        raise RuntimeError(f"remote evaluation failed at {self.endpoint}: {error}")

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on an idle connection if there is one, else on a new one."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            try:
                return self._exchange(connection, body)
            except ConnectionError:
                pass  # the endpoint closed it while it sat idle; a fresh connection is free
        return self._exchange(self._connect(), body)

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    def _exchange(self, connection: _Connection, body: bytes) -> tuple[int, bytes]:
        """Send ``body`` and read the whole reply; the connection is pooled again only if the endpoint keeps it."""
        sock, reader = connection
        keep = False
        try:
            sock.sendall(b"%sContent-Length: %d\r\nContent-Type: application/json\r\n\r\n%s" % (self._head, len(body), body))
            status, data, keep = _read_reply(reader)
        finally:
            if not keep:
                reader.close()
                sock.close()
        if keep:
            with self._idle_lock:
                self._idle.append(connection)
        return status, data


def _line(reader) -> bytes:
    """One line of a reply's head or chunk framing; b"" at the end of the connection."""
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise OSError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _capped(total: int) -> int:
    """``total`` body bytes of one reply, checked before they are read."""
    if total > _MAX_BODY:
        raise OSError(f"reply body longer than {_MAX_BODY} bytes")
    return total


def _count(field: bytes, base: int = 10) -> int:
    try:
        count = int(field, base)
    except ValueError:
        count = -1
    if count < 0:
        raise OSError(f"bad length in reply: {field[:80]!r}")
    return count


def _read_reply(reader) -> tuple[int, bytes, bool]:
    """Read one reply: (status, body, whether the connection can carry another request)."""
    status = 0
    while status < 200:  # 1xx replies are interim: no body, the final reply follows
        line = _line(reader)
        if not line:
            raise ConnectionError("endpoint closed the connection without replying")
        version, code = (line.split(None, 2) + [b"", b""])[:2]
        status = int(code) if len(code) == 3 and code.isdigit() else 0
        if status < 100 or not version.startswith(b"HTTP/1."):
            raise OSError(f"malformed status line: {line[:80]!r}")
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _line(reader)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise OSError("reply ended inside its headers")
            name, _, value = line.partition(b":")
            headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise OSError(f"reply has more than {_MAX_HEADERS} headers")
    keep = version == b"HTTP/1.1" and b"close" not in headers.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, b"", keep
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks, total = [], 0
        while size := _count(_line(reader).partition(b";")[0].strip(), 16):
            total = _capped(total + size)
            chunk = reader.read(size + 2)
            if len(chunk) < size + 2:
                raise OSError("reply body ended early")
            chunks.append(chunk[:size])
        while (line := _line(reader)) not in (b"\r\n", b"\n"):  # trailer fields
            if not line:
                raise OSError("reply ended inside its trailer")
        return status, b"".join(chunks), keep
    if b"content-length" not in headers:
        pieces, total = [], 0
        while piece := reader.read1(min(1 << 16, _MAX_BODY + 1 - total)):
            total = _capped(total + len(piece))
            pieces.append(piece)
        return status, b"".join(pieces), False
    size = _capped(_count(headers[b"content-length"]))
    body = reader.read(size)
    if len(body) < size:
        raise OSError("reply body ended early")
    return status, body, keep


def __getattr__(name: str):
    """``StubServer`` and ``_StubHandler`` from ``dagswarm.stub``, loaded on first use so that importing this module loads no HTTP server."""
    if name in ("StubServer", "_StubHandler"):
        from . import stub

        return getattr(stub, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
