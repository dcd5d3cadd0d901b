"""The echo endpoint that ``dagswarm serve-stub`` serves, for tests and offline runs.

The one module that imports ``http.server``; ``dagswarm.StubServer`` and
``dagswarm.remote.StubServer`` load it on first use.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _StubHandler(BaseHTTPRequestHandler):
    """Echoes the constructed prompt back as the response text."""

    # The reply's headers and body go out in two writes; without this the
    # body of a reply on a reused connection waits for a delayed ACK.
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 - http.server API
        length = self.headers.get("Content-Length", "0").strip()
        sized = length.isdecimal()  # "-1" or "abc" leave the end of the body unknown
        try:
            request = json.loads(self.rfile.read(int(length))) if sized else None
        except ValueError:  # not JSON, or not UTF-8
            request = None
        if not isinstance(request, dict) or "prompt" not in request:
            self.send_response(400)
            self.send_header("Content-Length", "0")
            if not sized:  # nothing more can be read from this connection
                self.send_header("Connection", "close")
            self.end_headers()
            return
        self.server.requests.append(request)
        body = json.dumps({"text": request["prompt"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class StubServer(ThreadingHTTPServer):
    """In-process echo endpoint; records every request for inspection."""

    # socketserver's backlog of 5 drops connects when more items are in flight.
    request_queue_size = 128

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _StubHandler)
        self.requests: list[dict] = []
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/"

    def start(self) -> "StubServer":
        # A short poll lets ``stop`` return within 0.05 s rather than serve_forever's default 0.5 s.
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
