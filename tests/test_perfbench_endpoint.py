"""The benchmark's echo endpoint still runs on the package's stub.

``perfbench/endpoint.py`` subclasses ``StubServer`` and ``_StubHandler``,
imported from ``dagswarm.remote``, so moving or renaming either breaks the
``remote_echo`` workload. This starts it as its own process, makes one
evaluation and reads its counters. The endpoint file is only read.
"""
from __future__ import annotations

import http.client
import json
import subprocess
import sys
from pathlib import Path
from urllib.parse import urlsplit

from dagswarm import RemoteEvaluator, build_prompt
from conftest import no_leaked_sockets

ENDPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "endpoint.py"


@no_leaked_sockets
def test_benchmark_endpoint_echoes_and_counts_one_post():
    # The endpoint puts the repository's src/ on its own path; -B writes no bytecode beside it.
    command = [sys.executable, "-B", str(ENDPOINT)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
        try:
            word, url = process.stdout.readline().split()
            assert word == "ready"
            evaluator = RemoteEvaluator(url, timeout=5)
            try:
                reply = evaluator.evaluate("entry", None, {}, "q", 0)
            finally:
                evaluator.close()
            address = urlsplit(url)
            connection = http.client.HTTPConnection(address.hostname, address.port, timeout=5)
            try:
                connection.request("GET", "/stats")
                response = connection.getresponse()
                status, stats = response.status, json.loads(response.read())
            finally:
                connection.close()
        finally:
            process.terminate()
            process.wait(timeout=10)
    assert reply == build_prompt("entry", "q", [])
    assert status == 200
    assert stats["posts"] == 1 and stats["connections"] == 1 and stats["distinct_pairs"] == 1
