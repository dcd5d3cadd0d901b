"""What importing dagswarm loads: a run that serves nothing loads no HTTP server, client or TLS module.

``dagswarm.stub`` alone imports ``http.server`` (which brings ``http.client``,
``email`` and ``socketserver``); ``ssl`` loads when an https evaluator is
built, and ``concurrent.futures`` when a list payload runs or a step's
candidates overlap, neither of which a local run does.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dagswarm
import dagswarm.remote
import dagswarm.stub

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_BY_A_LOCAL_RUN = ("http.server", "http.client", "email", "ssl", "concurrent.futures")


def modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter that has imported nothing else."""
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(result.stdout))


def test_importing_dagswarm_and_its_cli_loads_no_http_tls_or_thread_pool_module():
    loaded = modules_after("import dagswarm\nimport dagswarm.cli\nfrom dagswarm import RemoteEvaluator, optimize")
    assert "dagswarm.remote" in loaded and "dagswarm.cli" in loaded
    assert [name for name in UNUSED_BY_A_LOCAL_RUN if name in loaded] == []
    assert "dagswarm.stub" not in loaded


def test_a_local_optimize_loads_no_thread_pool():
    # Affine executions run in one pass and their utility has no concurrent jobs, so candidates run in turn.
    loaded = modules_after(
        "from dagswarm import RngFactory, RunConfig, build_utility, optimize\n"
        "cfg = RunConfig(n_experts=3, matrix_swarm_size=3, assignments_per_step=3, max_iterations=2, patience=2,\n"
        "                mode='full', utility_spec={'name': 'affine_target', 'n': 3, 'points': 2})\n"
        "system, trace = optimize(cfg, None, build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream('task')))\n"
        "assert [(row.ran_role, row.ran_weight) for row in trace.rows] == [(True, True)] * 2"
    )
    assert "dagswarm.orchestrate" in loaded
    assert [name for name in UNUSED_BY_A_LOCAL_RUN if name in loaded] == []


def test_the_stub_and_tls_load_on_first_use():
    loaded = modules_after(
        "import dagswarm\nassert 'http.server' not in sys.modules\ndagswarm.StubServer\n"
        "dagswarm.RemoteEvaluator('https://127.0.0.1:9/')"
    )
    assert {"dagswarm.stub", "http.server", "ssl"} <= loaded
    assert "concurrent.futures" not in loaded


def test_the_stub_is_one_class_under_every_name():
    from dagswarm.remote import StubServer, _StubHandler

    assert dagswarm.StubServer is dagswarm.remote.StubServer is dagswarm.stub.StubServer is StubServer
    assert _StubHandler is dagswarm.stub._StubHandler


@pytest.mark.parametrize("module", [dagswarm, dagswarm.remote])
def test_an_unknown_attribute_is_still_an_attribute_error(module):
    with pytest.raises(AttributeError, match=f"module {module.__name__!r} has no attribute 'NoSuchName'"):
        module.NoSuchName
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import NoSuchName", {})
    assert not hasattr(module, "NoSuchName")
