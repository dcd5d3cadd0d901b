"""Command-line entry points binding the modules into runnable workflows.

Subcommands: optimize (full run), decode (one structure decode), evaluate
(run a saved system on a dataset), analyze (bucket metrics from
correctness files), sweep (random hyperparameter draws from the preset
grid), serve-stub (echo server for remote-mode testing). All failures
exit nonzero with a one-line error JSON on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .executor import AffineEvaluator, Message, execute
from .graph import decode_dag
from .metrics import analysis_report, bucketize
from .orchestrate import MODES, OptimizedSystem, RunConfig, RunTrace, config_from_dict, optimize
from .pool import load_pool
from .pso import sample_grid_hyperparams
from .remote import RemoteEvaluator, StubServer
from .rng import RngFactory
from .utilities import build_utility, exact_match, load_dataset, run_text_items

ENDPOINT_ENV = "DAGSWARM_ENDPOINT"


def parse_config(path: str | None) -> RunConfig:
    """Read a JSON config file; an empty file means full defaults."""
    if path is None:
        return RunConfig()
    text = Path(path).read_text()
    if not text.strip():
        return RunConfig()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return config_from_dict(data)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": {"type": "UsageError", "message": message}}), file=sys.stderr)
        raise SystemExit(2)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.mode is not None:
        cfg = replace(cfg, mode=args.mode)
    return cfg


@contextmanager
def _node_evaluator(jobs: int | None = None):
    """The remote evaluator when an endpoint is set, closed on exit; ``jobs`` None keeps its default."""
    endpoint = os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        yield None
        return
    evaluator = RemoteEvaluator(endpoint) if jobs is None else RemoteEvaluator(endpoint, jobs=jobs)
    try:
        yield evaluator
    finally:
        evaluator.close()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    with _node_evaluator(args.jobs) as evaluator:
        utility = build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"), evaluator)
        pool = load_pool(args.pool) if args.pool else None
        system, trace = optimize(
            cfg, pool, utility, checkpoint_path=args.checkpoint, resume_from=args.resume
        )
    out = _out_dir(args)
    (out / "best_system.json").write_text(system.to_json())
    (out / "trace.jsonl").write_text(trace.to_jsonl())
    summary = {
        "best_utility": system.best_utility,
        "best_role_utility": system.best_role_utility,
        "iterations": len(trace.rows),
        "evaluator_calls": trace.total_evaluator_calls,
        "out": str(out),
    }
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


def cmd_decode(args) -> int:
    data = json.loads(Path(args.matrix).read_text())
    matrix = data.get("matrix") if isinstance(data, dict) else data  # decode_dag rejects a non-square one
    with np.errstate(over="ignore"):  # exp overflowing to inf is part of the decode, not a second error line
        dag = decode_dag(matrix, args.top_p, RngFactory(args.seed).stream("decode", 0, 0))
    record = {"format_version": 1, "top_p": args.top_p, "seed": args.seed, "dag": dag.to_dict()}
    payload = json.dumps(record, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload, flush=True)
    return 0


def cmd_evaluate(args) -> int:
    system = OptimizedSystem.from_dict(json.loads(Path(args.system).read_text()))
    items = load_dataset(args.dataset)
    if not items:
        raise ValueError("dataset is empty")
    if any("input" not in item for item in items):
        raise ValueError("dataset items need an 'input' field")
    inputs = [item["input"] for item in items]
    instance = (system.dag, system.assignment, system.expert_params)
    with _node_evaluator() as evaluator:
        if evaluator is not None:
            outputs = run_text_items(*instance, inputs, evaluator)
        else:
            stacked = np.asarray(inputs, dtype=float)
            if stacked.ndim != 2:
                raise ValueError("local dataset inputs must be vectors of one length")
            outputs = execute(*instance, Message(stacked), AffineEvaluator()).payload.tolist()
    results = []
    for item, output in zip(items, outputs):
        entry: dict = {"input": item["input"], "output": output}
        if "answer" in item and evaluator is not None:
            entry["correct"] = exact_match(output, item["answer"])
        elif "answer" in item:
            expected = np.asarray(item["answer"], dtype=float)
            entry["correct"] = bool(np.allclose(expected, output, atol=1e-9))
        results.append(entry)
    scored = [entry["correct"] for entry in results if "correct" in entry]
    payload = {
        "format_version": 1,
        "accuracy": sum(scored) / len(scored) if scored else None,
        "results": results,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text, flush=True)
    return 0


def cmd_analyze(args) -> int:
    data = json.loads(Path(args.correctness).read_text())
    table = bucketize(data["per_expert_correct"], data["system_correct"])
    ablation = json.loads(Path(args.ablation).read_text()) if args.ablation else None
    report = analysis_report(table, ablation)
    out = _out_dir(args)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if args.trace:
        (out / "metrics.csv").write_text(RunTrace.from_jsonl(Path(args.trace).read_text()).to_csv())
    print(
        json.dumps({"collaborative_gain": report["collaborative_gain"], "out": str(out)}, sort_keys=True),
        flush=True,
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    rng = RngFactory(cfg.seed)
    entries = []
    with _node_evaluator(args.jobs) as evaluator:
        for run in range(args.runs):
            hp = sample_grid_hyperparams(rng.stream("sweep", run))
            run_cfg = replace(cfg, role_hp=hp, weight_hp=hp, seed=cfg.seed + run)
            utility = build_utility(run_cfg.utility_spec, RngFactory(run_cfg.seed).stream("task"), evaluator)
            system, trace = optimize(run_cfg, None, utility)
            entries.append(
                {
                    "run": run,
                    "seed": run_cfg.seed,
                    "hyperparams": asdict(hp),
                    "best_utility": system.best_utility,
                    "iterations": len(trace.rows),
                }
            )
    entries.sort(key=lambda e: (-e["best_utility"], e["run"]))
    out = _out_dir(args)
    (out / "sweep.json").write_text(json.dumps({"format_version": 1, "runs": entries}, sort_keys=True, indent=2) + "\n")
    print(json.dumps({"best": entries[0], "out": str(out)}, sort_keys=True), flush=True)
    return 0


def cmd_serve_stub(args) -> int:
    server = StubServer(args.host, args.port)
    server.start()
    print(json.dumps({"endpoint": server.endpoint}), flush=True)
    try:
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dagswarm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (empty file = defaults)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--mode", choices=MODES, default=None)
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="dataset items in flight at once at a remote endpoint (default 8), over reused connections",
        )

    p = sub.add_parser("optimize", help="run the alternating optimization loop")
    common(p)
    p.add_argument("--pool", help="expert pool directory (manifest.json + expert files)")
    p.add_argument("--checkpoint", help="file to write a resumable checkpoint to each iteration")
    p.add_argument("--resume", help="checkpoint file to resume from")
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("decode", help="decode one adjacency matrix into a DAG")
    p.add_argument("--matrix", required=True, help="JSON file: [[...]] or {\"matrix\": [[...]]}")
    p.add_argument("--top-p", type=float, default=0.8, dest="top_p")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional output file")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("evaluate", help="execute a saved system on a JSONL dataset")
    p.add_argument("--system", required=True, help="best_system.json file")
    p.add_argument("--dataset", required=True, help="JSONL of {input, answer} items")
    p.add_argument("--out", help="optional output file")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("analyze", help="bucket metrics from correctness files")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--correctness", required=True, help="JSON with per_expert_correct and system_correct")
    p.add_argument("--trace", help="trace.jsonl to convert into metrics.csv")
    p.add_argument("--ablation", help="JSON with wo_role, wo_weight, role_baseline_avg, weight_baseline_avg")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep", help="random hyperparameter draws from the preset grid")
    common(p)
    p.add_argument("--runs", type=int, default=50)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("serve-stub", help="start the echo stub server for remote-mode tests")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(handler=cmd_serve_stub)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("jobs", "runs"):
        if getattr(args, flag, None) is not None and getattr(args, flag) < 1:
            print(json.dumps({"error": {"type": "UsageError", "message": f"--{flag} must be >= 1"}}), file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # CLI boundary: every failure becomes error JSON
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
