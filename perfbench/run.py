"""dagswarm benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload affine_full --seed 1 --seconds 20 --trace 0

The run calls ``optimize`` on the workload's seeded config again and again
(one caller, closed loop) until ``--seconds`` have passed, checks every
call's output, and prints a table followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones listed in BENCHMARK.json; with
``--trace 1`` traced and untraced calls alternate and the metrics are the
per-layer ones. Set-up time is measured in fresh interpreters spawned
between the first calls. See perfbench/README.md for what each metric
should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_CALLS = 4
SETUP_PROBES = 7
P90_MIN_ITERATIONS = 100  # p90 needs at least ten samples beyond it


def _require_sources() -> None:
    if not (SRC / "dagswarm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dagswarm sources under {SRC}")
    sys.path.insert(0, str(SRC))


_require_sources()

import numpy as np  # noqa: E402

from dagswarm import optimize  # noqa: E402
from tracer import Tracer, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, build, expected_calls  # noqa: E402


def calibrate() -> float:
    """Time a fixed pure-Python and numpy kernel; shows host drift apart from program changes."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    values = np.arange(64.0)
    for _ in range(2_000):
        values = np.sqrt(values * values + 1.0) - 0.5
    return time.perf_counter() - start


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def import_seconds(importtime: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output; 0.0 if never imported."""
    for line in importtime.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e6
    return 0.0


def probe_setup(workload: str, seed: int, split: bool = False) -> dict:
    """Time one fresh interpreter from spawn to ready-to-optimize.

    With ``split``, the probe runs under ``-X importtime`` and the time
    dagswarm spends importing ``requests`` is split from the rest of its
    import. ``requests`` counts wherever the program imports it, also
    during the utility build; it is 0 when the program never imports it.
    """
    spawned = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *(["-X", "importtime"] if split else []), str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe.pop("ready") - spawned
    if split:
        requests_s = import_seconds(done.stderr, "requests")
        probe["import_requests_s"] = requests_s
        probe["import_dagswarm_rest_s"] = probe["import_dagswarm_s"] - requests_s * probe["requests_in_dagswarm"]
    return probe


class Endpoint:
    """The echo endpoint as a child process, ready before timing begins."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "endpoint.py")],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.stop()
            raise RuntimeError("echo endpoint did not start")
        self.url = line[1]

    def stats(self) -> dict:
        """Counters since the previous call; the endpoint zeroes them on each read."""
        with urllib.request.urlopen(self.url + "stats", timeout=10) as reply:
            return json.loads(reply.read())

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


@dataclass
class Call:
    """One ``optimize`` call and what its checks found."""

    traced: bool
    budget: int = 0
    wall_s: float = 0.0
    iteration_s: list[float] = field(default_factory=list)
    evals: int = 0
    node_calls: int = 0
    endpoint: dict = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def one_call(workload, seed: int, endpoint: Endpoint | None, scratch: Path, tracer: Tracer | None) -> Call:
    cfg, utility = build(workload, seed, endpoint.url if endpoint else None)
    checkpoint = scratch / "checkpoint.json" if workload.checkpoint else None
    budget = cfg.n_experts * (cfg.matrix_swarm_size + cfg.assignments_per_step) * utility.dataset_size
    call = Call(traced=tracer is not None, budget=budget)
    run = optimize if tracer is None else tracer.traced("orchestrate.optimize", optimize)
    spans_before = len(tracer.spans) if tracer else 0
    if endpoint:
        endpoint.stats()
    with tracer.installed(utility) if tracer else nullcontext():
        started = time.perf_counter()
        try:
            system, trace = run(cfg, None, utility, checkpoint_path=checkpoint)
        except Exception as exc:  # noqa: BLE001 - a failed evaluation is counted, the run goes on
            call.wall_s = time.perf_counter() - started
            call.attempted = 1
            call.failures.append(f"optimize raised {exc!r}")
            return call
        call.wall_s = time.perf_counter() - started

    call.node_calls = utility.evaluator_calls
    call.iteration_s = [row.wall_time_s for row in trace.rows]
    call.digest = "trace=" + hashlib.sha256(trace.to_jsonl().encode()).hexdigest() + \
        " system=" + hashlib.sha256(system.to_json().encode()).hexdigest()

    def check(ok: bool, what: str) -> None:
        call.attempted += 1
        if not ok:
            call.failures.append(what)

    check(len(trace.rows) == cfg.max_iterations, f"{len(trace.rows)} iterations, expected {cfg.max_iterations}")
    steps = (cfg.mode != "weight_only", cfg.mode != "role_only")
    for row in trace.rows:
        evals, node_calls = expected_calls(cfg, utility, row.ran_role, row.ran_weight)
        call.evals += evals
        check((row.ran_role, row.ran_weight) == steps, f"iteration {row.iteration} ran the wrong steps")
        check(row.evaluator_calls == node_calls,
              f"iteration {row.iteration}: {row.evaluator_calls} node calls, expected {node_calls}")
    if tracer:
        spans = tracer.span_count("utilities.evaluate", spans_before)
        check(spans == call.evals, f"traced {spans} evaluations, expected {call.evals}")
    if endpoint:
        call.endpoint = endpoint.stats()
        posts = call.endpoint["posts"]
        check(posts == call.node_calls, f"endpoint got {posts} requests for {call.node_calls} node calls")
        call.attempted += posts
    call.attempted += call.evals
    return call


def run_calls(workload, seed: int, seconds: float, trace: bool, endpoint, scratch: Path, tracer):
    """Closed loop: call after call until the time is up; traced calls alternate with untraced ones.

    Set-up probes run between the first calls, so that they sample the same
    stretch of host speed as the calls do; their time does not count
    against ``seconds``. One untimed probe first warms the file caches. In
    a traced run the probes also split the import time by module.
    """
    probe_setup(workload.name, seed)
    probes: list[dict] = []
    deadline = time.perf_counter() + seconds
    calls: list[Call] = []
    while len(calls) < MIN_CALLS or len(probes) < SETUP_PROBES or time.perf_counter() < deadline:
        if len(probes) < SETUP_PROBES:
            started = time.perf_counter()
            probes.append(probe_setup(workload.name, seed, split=trace))
            deadline += time.perf_counter() - started
        traced = trace and len(calls) % 2 == 1
        calls.append(one_call(workload, seed, endpoint, scratch, tracer if traced else None))
    reference = calls[0].digest
    for call in calls:
        call.attempted += 1
        if call.digest != reference:
            call.failures.append(f"output digest {call.digest} differs from {reference}")
    return calls, probes


def end_to_end(calls: list[Call], probes: list[dict]) -> dict:
    """End-to-end metrics as {name: (value, unit)} from the untraced calls."""
    untraced = [c for c in calls if not c.traced]
    iterations = [s * 1e3 for c in untraced for s in c.iteration_s]
    attempted = sum(c.attempted for c in calls)
    failed = sum(len(c.failures) for c in calls)
    metrics = {
        "run_s": (statistics.median(c.wall_s for c in untraced), "s"),
        "evals_per_s": (statistics.median(c.evals / c.wall_s for c in untraced), "1/s"),
        "iter_ms_p50": (statistics.median(iterations) if iterations else 0.0, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_failed_frac": (failed / attempted, "ratio"),
    }
    notes = {}
    if any(c.node_calls for c in untraced):
        metrics["node_calls_per_s"] = (statistics.median(c.node_calls / c.wall_s for c in untraced), "1/s")
    else:
        notes["node_calls_per_s"] = "omitted: this workload makes no evaluator node calls"
    counted = f"over {len(iterations)} iterations of {len(untraced)} calls"
    notes["iter_ms_p50"] = counted
    if len(iterations) >= P90_MIN_ITERATIONS:
        metrics["iter_ms_p90"] = (percentile(iterations, 90), "ms")
        notes["iter_ms_p90"] = counted
    else:
        notes["iter_ms_p90"] = f"omitted: {len(iterations)} iterations < {P90_MIN_ITERATIONS}"
    return metrics, notes


def per_layer(calls: list[Call], probes: list[dict], tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the traced calls and the probes.

    Counts and totals are per traced ``optimize`` call, so they describe a
    fixed amount of work however many calls fit in the run.
    """
    traced = [c for c in calls if c.traced]
    untraced = [c for c in calls if not c.traced]
    metrics = layer_metrics(
        tracer,
        per_call=len(traced),
        node_calls=sum(c.node_calls for c in traced),
        iterations=sum(len(c.iteration_s) for c in traced),
        budget_per_iteration=calls[0].budget,
    )
    ends = [c.endpoint for c in traced if c.endpoint]
    posts = sum(e["posts"] for e in ends)
    metrics.update({
        "remote.retried": ((posts - sum(c.node_calls for c in traced if c.endpoint)) / len(traced), "count"),
        "remote.connections_opened": (sum(e["connections"] for e in ends) / len(traced), "count"),
        "remote.bytes_sent": (sum(e["bytes_in"] for e in ends) / len(traced), "bytes"),
        "remote.bytes_received": (sum(e["bytes_out"] for e in ends) / len(traced), "bytes"),
        "remote.distinct_prompt_frac": (sum(e["distinct_pairs"] for e in ends) / posts if posts else 0.0, "ratio"),
    })
    for name in ("import_numpy_s", "import_requests_s", "import_dagswarm_rest_s"):
        metrics[f"setup.{name}"] = (statistics.median(p[name] for p in probes), "s")
    base = statistics.median(c.wall_s for c in untraced)
    metrics["trace_overhead_frac"] = (
        (statistics.median(c.wall_s for c in traced) - base) / base, "ratio")
    return metrics


def _print_table(title: str, metrics: dict, notes: dict) -> None:
    print(title)
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    for name in sorted(set(notes) - set(metrics)):
        print(f"  {name:40s} {'-':>16s}   ({notes[name]})")


def _parse(argv):
    parser = argparse.ArgumentParser(description="dagswarm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    host = {**host_info(), "calib_s_before": calibrate()}
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    endpoint = Endpoint() if workload.remote else None
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            calls, probes = run_calls(workload, args.seed, args.seconds, bool(args.trace), endpoint, Path(scratch), tracer)
    finally:
        if endpoint:
            endpoint.stop()
    host["calib_s_after"] = calibrate()

    metrics, notes = end_to_end(calls, probes)
    print(f"workload {workload.name} seed {args.seed}: {len(calls)} optimize calls in {sum(c.wall_s for c in calls):.3f} s")
    print("host " + json.dumps(host, sort_keys=True))
    print("digest " + calls[0].digest)
    _print_table("end-to-end (untraced calls)", metrics, notes)
    if tracer:
        metrics = per_layer(calls, probes, tracer)
        _print_table("per-layer (traced calls)", metrics, {})
        spans = OUT / f"spans_{workload.name}.jsonl"
        with spans.open("w") as handle:
            for name, start, end, parent, ok in tracer.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "ok": ok}) + "\n")
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    failures = [f for c in calls for f in c.failures]
    for failure in failures[:20]:
        print("FAILED " + failure)

    result = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} differs from BENCHMARK.json's {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(c.attempted for c in calls),
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
