from __future__ import annotations

import pytest

from dagswarm import StubServer
from dagswarm.remote import _StubHandler

# A pooled socket that a test leaves for the garbage collector fails that test.
no_leaked_sockets = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


class _KeepAliveHandler(_StubHandler):
    """The echo stub over HTTP/1.1, so a client's connections stay open; counts them."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.peers.append(self.client_address)


class KeepAliveStub(StubServer):
    def __init__(self, handler=_KeepAliveHandler):
        super().__init__()
        self.RequestHandlerClass = handler
        self.peers: list = []


@pytest.fixture(scope="session")
def stub_server():
    server = StubServer().start()
    yield server
    server.stop()


@pytest.fixture()
def clean_stub(stub_server):
    stub_server.requests.clear()
    return stub_server


@pytest.fixture()
def keepalive_stub():
    server = KeepAliveStub().start()
    yield server
    server.stop()
