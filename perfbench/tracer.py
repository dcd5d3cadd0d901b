"""Outside-in tracing of dagswarm for the per-layer metrics.

Public functions are wrapped where the calling module looks them up, via
``sys.modules["dagswarm.<module>"]``: ``decode_dag`` is bound separately in
``role_step`` and ``orchestrate``, ``pso_step`` in both step modules,
``execute`` in ``utilities``. (The package attributes ``dagswarm.role_step``
and ``dagswarm.weight_step`` are the re-exported functions, not the
modules.) Nothing under ``src/`` is changed; the wrappers are removed again
after each traced call.

A span is [name, start, end, parent index, ok], kept in memory. A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import math
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def traced(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                record[4] = True
                return result
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        inner = self.traced(name, original)
        if after is None:
            wrapper = inner
        else:
            # Counting runs after the span has closed, so it is not timed.
            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(args, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def installed(self, utility):
        """Wrap the layer boundaries for the duration of one ``optimize`` call."""
        module = {name: sys.modules[f"dagswarm.{name}"] for name in (
            "orchestrate", "role_step", "weight_step", "utilities", "rng", "remote")}
        counts = self.counts

        def count_edges(args, dag):
            counts["graph.edges"] += len(dag.edges)

        def count_particles(args, result):
            counts["pso.particles_moved"] += len(args[0])

        def count_bytes(args, result):
            counts["orchestrate.checkpoint.bytes"] += os.path.getsize(args[0])

        try:
            for owner in (module["role_step"], module["orchestrate"]):
                self._patch(owner, "decode_dag", "graph.decode_dag", count_edges)
            for owner in (module["role_step"], module["weight_step"]):
                self._patch(owner, "pso_step", "pso.pso_step", count_particles)
            self._patch(module["rng"].RngFactory, "stream", "rng.stream")
            self._patch(module["utilities"], "execute", "executor.execute")
            self._patch(type(utility), "evaluate", "utilities.evaluate")
            self._patch(module["orchestrate"], "role_step", "role_step")
            self._patch(module["orchestrate"], "weight_step", "weight_step")
            self._patch(module["orchestrate"], "save_checkpoint", "orchestrate.checkpoint", count_bytes)
            self._patch(module["weight_step"], "sample_assignments", "weight_step.sample_assignments")
            self._patch(module["weight_step"], "contribution_scores", "weight_step.contribution_scores")
            self._patch(module["remote"].RemoteEvaluator, "evaluate", "remote.request")
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def span_count(self, name: str, since: int = 0) -> int:
        return sum(1 for span in self.spans[since:] if span[0] == name)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for a layer that never ran."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, per_call: int, node_calls: int, iterations: int, budget_per_iteration: int) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    Counts, totals and self times are divided by ``per_call``, the number of
    traced ``optimize`` calls; percentiles, means and ratios are not.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        durations[name].append(end - start)
        self_time[name] += end - start - child_time[index]

    def calls(name):
        return len(durations[name]) / per_call, "count"

    def total(name):
        return sum(durations[name]) / per_call, "s"

    def pct_us(name, q):
        return percentile(durations[name], q) * 1e6, "us"

    def pct_ms(name, q):
        return percentile(durations[name], q) * 1e3, "ms"

    decodes = len(durations["graph.decode_dag"])
    writes = len(durations["orchestrate.checkpoint"])
    counts = tracer.counts
    return {
        "graph.decode_dag.calls": calls("graph.decode_dag"),
        "graph.decode_dag.us_p50": pct_us("graph.decode_dag", 50),
        "graph.decode_dag.us_p99": pct_us("graph.decode_dag", 99),
        "graph.decode_dag.total_s": total("graph.decode_dag"),
        "graph.edges_per_dag": (counts["graph.edges"] / decodes if decodes else 0.0, "count"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.us_p50": pct_us("rng.stream", 50),
        "rng.stream.total_s": total("rng.stream"),
        "pso.pso_step.calls": calls("pso.pso_step"),
        "pso.pso_step.us_p50": pct_us("pso.pso_step", 50),
        "pso.pso_step.total_s": total("pso.pso_step"),
        "pso.particles_moved": (counts["pso.particles_moved"] / per_call, "count"),
        "executor.execute.calls": calls("executor.execute"),
        "executor.execute.us_p50": pct_us("executor.execute", 50),
        "executor.execute.us_p99": pct_us("executor.execute", 99),
        "executor.execute.total_s": total("executor.execute"),
        "executor.node_calls": (node_calls / per_call, "count"),
        "executor.us_per_node_call": (
            sum(durations["executor.execute"]) / node_calls * 1e6 if node_calls else 0.0, "us"),
        "utilities.evaluate.calls": calls("utilities.evaluate"),
        "utilities.evaluate.ms_p50": pct_ms("utilities.evaluate", 50),
        "utilities.evaluate.total_s": total("utilities.evaluate"),
        "role_step.calls": calls("role_step"),
        "role_step.ms_p50": pct_ms("role_step", 50),
        "role_step.self_s": (self_time["role_step"] / per_call, "s"),
        "weight_step.calls": calls("weight_step"),
        "weight_step.ms_p50": pct_ms("weight_step", 50),
        "weight_step.self_s": (self_time["weight_step"] / per_call, "s"),
        "weight_step.sample_assignments.us_p50": pct_us("weight_step.sample_assignments", 50),
        "weight_step.contribution_scores.us_p50": pct_us("weight_step.contribution_scores", 50),
        "orchestrate.iterations": (iterations / per_call, "count"),
        "orchestrate.self_s": (self_time["orchestrate.optimize"] / per_call, "s"),
        "orchestrate.checkpoint.writes": (writes / per_call, "count"),
        "orchestrate.checkpoint.ms_p50": pct_ms("orchestrate.checkpoint", 50),
        "orchestrate.checkpoint.bytes": (
            counts["orchestrate.checkpoint.bytes"] / writes if writes else 0.0, "bytes"),
        "orchestrate.budget_use": (
            node_calls / (iterations * budget_per_iteration) if iterations else 0.0, "ratio"),
        "remote.requests": calls("remote.request"),
        "remote.request_ms_p50": pct_ms("remote.request", 50),
        "remote.request_ms_p99": pct_ms("remote.request", 99),
        "remote.failed": (
            sum(1 for span in tracer.spans if span[0] == "remote.request" and not span[4]) / per_call, "count"),
    }
