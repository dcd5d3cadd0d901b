"""Command-line entry points binding the modules into runnable workflows.

Subcommands: optimize (full run), decode (one structure decode), evaluate
(score a saved system on its config's task), analyze (bucket metrics from
correctness files), sweep (random hyperparameter draws from the preset
grid), serve-stub (echo server for remote-mode testing). All failures
exit nonzero with a one-line error JSON on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .graph import decode_dag
from .metrics import analysis_report, bucketize
from .orchestrate import MODES, OptimizedSystem, RunConfig, RunTrace, config_from_dict, optimize
from .pool import load_pool
from .pso import sample_grid_hyperparams
from .remote import RemoteEvaluator
from .rng import RngFactory
from .utilities import UtilityFunction, build_utility, json_array, json_field, json_object, read_json

ENDPOINT_ENV = "DAGSWARM_ENDPOINT"


def parse_config(path: str | None) -> RunConfig:
    """Read a JSON config file once; an empty file means full defaults."""
    text = "" if path is None else Path(path).read_text()
    if not text.strip():
        return RunConfig()
    return config_from_dict(json_object(read_json(path, text), "config"))


def _usage_error(message: str) -> int:
    print(json.dumps({"error": {"type": "UsageError", "message": message}}), file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(_usage_error(message))


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


def _task(cfg: RunConfig, evaluator) -> UtilityFunction:
    """The utility ``optimize`` scores a run of ``cfg`` with: the config's task drawn from its seed."""
    return build_utility(cfg.utility_spec, RngFactory(cfg.seed).stream("task"), evaluator)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    with _node_evaluator(args.jobs) as evaluator:
        utility = _task(cfg, evaluator)
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
    data = read_json(args.matrix)  # [[...]] or {"matrix": [[...]]}; decode_dag rejects a non-square matrix
    matrix = json_array(json_field(data, "matrix file", "matrix") if isinstance(data, dict) else data, "matrix", 2)
    with np.errstate(over="ignore"):  # exp overflowing to inf is part of the decode, not a second error line
        dag = decode_dag(matrix, args.top_p, RngFactory(args.seed).stream("decode", 0, 0))
    record = {"format_version": 1, "top_p": args.top_p, "seed": args.seed, "dag": dag.to_dict()}
    payload = json.dumps(record, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload, flush=True)
    return 0


def cmd_evaluate(args) -> int:
    system = OptimizedSystem.from_dict(read_json(args.system))
    cfg = parse_config(args.config)
    with _node_evaluator() as evaluator:
        utility = _task(cfg, evaluator)
        outputs, scores = utility.item_results(system.dag, system.assignment, system.expert_params)
    payload = {
        "format_version": 2,
        "utility": utility.mean(scores),
        "results": [{"output": output, "score": score} for output, score in zip(outputs, scores)],
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text, flush=True)
    return 0


def cmd_analyze(args) -> int:
    data = json_object(read_json(args.correctness), "correctness file", "per_expert_correct", "system_correct")
    read = partial(json_field, data, "correctness file")  # booleans only: bucketize would read any value as one
    table = bucketize(read("per_expert_correct", partial(json_array, name="per_expert_correct", ndim=2, kinds=(bool,))),
                      read("system_correct", partial(json_array, name="system_correct", ndim=1, kinds=(bool,))))
    ablation = json_object(read_json(args.ablation), "ablation file") if args.ablation else None
    metrics = RunTrace.from_jsonl(Path(args.trace).read_text()).to_csv() if args.trace else None
    report = analysis_report(table, ablation)
    out = _out_dir(args)  # every input is read before anything is written
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if metrics is not None:
        (out / "metrics.csv").write_text(metrics)
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
            system, trace = optimize(run_cfg, None, _task(run_cfg, evaluator))
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
    from .stub import StubServer  # the only command that needs http.server

    with StubServer(args.host, args.port) as server, suppress(KeyboardInterrupt):
        print(json.dumps({"endpoint": server.endpoint}), flush=True)
        server.serve_forever()
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
            help=f"dataset items in flight at once at the remote endpoint in {ENDPOINT_ENV}, over all of a step's "
            "candidates (default 8); needs it set",
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

    p = sub.add_parser("evaluate", help="score a saved system on its run's task, item by item")
    p.add_argument("--system", required=True, help="best_system.json file")
    p.add_argument("--config", required=True, help="the run's JSON config file; its utility_spec and seed set the task")
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
    for flag, low in (("jobs", 1), ("runs", 1), ("seed", 0)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < low:
            return _usage_error(f"--{flag} must be >= {low}")
    if getattr(args, "jobs", None) is not None and not os.environ.get(ENDPOINT_ENV):
        return _usage_error(f"--jobs needs a remote endpoint in {ENDPOINT_ENV}; no local evaluator runs items concurrently")
    try:
        return args.handler(args)
    except Exception as exc:  # CLI boundary: every failure becomes error JSON
        if isinstance(exc, BrokenPipeError):  # stdout's reader is gone: the interpreter's final flush goes to devnull
            with suppress(OSError, ValueError):  # a stdout with no file descriptor is left as it is
                stdout, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout)
                os.close(devnull)
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
