"""Echo endpoint for the remote_echo workload, run as its own process.

It answers POSTs exactly as the package's ``StubServer`` does (the reply
text is the request's prompt) after a fixed service delay that stands in
for model latency. It also counts what a client-side change could move:
connections, wire bytes in each direction and distinct (role, prompt)
pairs. ``GET /stats`` returns the counters since the previous
``GET /stats`` and zeroes them.

Usage: python3 perfbench/endpoint.py
Prints ``ready <url>`` once it accepts connections, then serves until
terminated.
"""
from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dagswarm.remote import StubServer, _StubHandler  # noqa: E402

SERVICE_DELAY_S = 0.002


class _Counting:
    """Delegates to a socket file and reports each read or write to ``seen``.

    ``seen`` is called before a write, so the counters are up to date by the
    time the client sees the bytes.
    """

    def __init__(self, raw, seen):
        self.raw = raw
        self.seen = seen

    def read(self, *args):
        data = self.raw.read(*args)
        self.seen(len(data))
        return data

    def readline(self, *args):
        data = self.raw.readline(*args)
        self.seen(len(data))
        return data

    def write(self, data):
        self.seen(len(data))
        return self.raw.write(data)

    def __getattr__(self, name):
        return getattr(self.raw, name)


class EndpointStats:
    """Counters shared by handler threads; stands in for ``StubServer.requests``."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.connections = 0
        self.stats_requests = 0
        self.posts = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._pairs: set[bytes] = set()

    def append(self, request: dict) -> None:
        """Called by the stub handler for every well-formed POST."""
        key = hashlib.sha256(json.dumps([request.get("role"), request["prompt"]]).encode()).digest()
        with self._lock:
            self.posts += 1
            self._pairs.add(key)

    def add(self, **amounts: int) -> None:
        with self._lock:
            for name, amount in amounts.items():
                setattr(self, name, getattr(self, name) + amount)

    def take(self) -> dict:
        with self._lock:
            data = {
                "posts": self.posts,
                # Every stats request arrives on a connection of its own.
                "connections": self.connections - self.stats_requests,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "distinct_pairs": len(self._pairs),
            }
            self.reset()
        return data


class DelayedEchoHandler(_StubHandler):
    # HTTP/1.1, so that a client asking for keep-alive gets it; the stub
    # handler sends Content-Length on every well-formed reply.
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self._unread = 0  # bytes of the request being read, not yet counted
        self.rfile = _Counting(self.rfile, self._read)
        self.wfile = _Counting(self.wfile, self._written)
        self.server.requests.add(connections=1)

    def _read(self, size: int) -> None:
        self._unread += size

    def _written(self, size: int) -> None:
        # The first write of a reply comes after its whole request was read.
        if self.command == "POST":
            self.server.requests.add(bytes_in=self._unread, bytes_out=size)
            self._unread = 0

    def do_POST(self):  # noqa: N802 - http.server API
        time.sleep(SERVICE_DELAY_S)
        super().do_POST()

    def do_GET(self):  # noqa: N802 - http.server API
        if not self.path.startswith("/stats"):
            self.send_error(404)
            return
        self._unread = 0  # stats traffic is not the client's
        self.server.requests.add(stats_requests=1)
        body = json.dumps(self.server.requests.take()).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class DelayedEchoServer(StubServer):
    def __init__(self):
        super().__init__()
        self.RequestHandlerClass = DelayedEchoHandler
        self.requests = EndpointStats()


def main() -> int:
    server = DelayedEchoServer()
    print(f"ready {server.endpoint}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
