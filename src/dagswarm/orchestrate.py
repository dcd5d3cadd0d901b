"""Outer optimization loop: alternate structure and parameter rounds.

Each iteration runs a role step (structure search) and then a weight step
(parameter search on the best structure), subject to the run mode and
optional dropout gating; the first always runs a role step, since a weight
step needs a structure. The loop stops when the best utility has not improved
for ``patience`` consecutive iterations or the iteration cap is reached.
Per-iteration evaluator calls are audited against the n * (N + M) * |f| budget.
"""
from __future__ import annotations

import base64
import csv
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .executor import Assignment
from .graph import DagStructure, decode_dag, init_adjacency_swarm, integers  # noqa: F401 - decode_dag: perfbench wraps it here
from .pool import build_pool
from .pso import PsoHyperparams, Swarm
from .rng import RngFactory
from .role_step import RoleRecord, SparsityConfig, role_step
from .utilities import UtilityFunction, json_array, json_field, json_lines, json_object, read_json
from .weight_step import weight_step

MODES = ("full", "role_only", "weight_only")
CHECKPOINT_VERSION = 4
SYSTEM_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    n_experts: int = 10
    matrix_swarm_size: int = 10
    assignments_per_step: int = 10
    top_p: float = 0.8
    max_iterations: int = 20
    patience: int = 6
    role_hp: PsoHyperparams = field(default_factory=PsoHyperparams)
    weight_hp: PsoHyperparams = field(default_factory=PsoHyperparams)
    sparsity: SparsityConfig = field(default_factory=SparsityConfig)
    dropout_role: float = 0.0
    dropout_weight: float = 0.0
    mode: str = "full"
    pool_repeats: int = 1
    seed: int = 0
    utility_spec: dict = field(default_factory=lambda: {"name": "constant"})

    def __post_init__(self):
        if self.n_experts < 1 or self.matrix_swarm_size < 1 or self.assignments_per_step < 1:
            raise ValueError("n_experts, matrix_swarm_size and assignments_per_step must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not (0.0 <= self.dropout_role <= 1.0 and 0.0 <= self.dropout_weight <= 1.0):
            raise ValueError("dropout probabilities must be in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pool_repeats < 1 or self.n_experts % self.pool_repeats:
            raise ValueError(f"pool_repeats = {self.pool_repeats} must be >= 1 and divide n_experts = {self.n_experts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig; unknown keys and values of the wrong JSON type, nested ones too, are rejected by name."""
    return _config_section(RunConfig, data, "config")


# The JSON types a field's annotation takes, exactly: a boolean is no integer.
_JSON_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,), "float | None": (int, float, type(None))}
_SECTIONS = {"PsoHyperparams": PsoHyperparams, "SparsityConfig": SparsityConfig}


def _config_section(cls, data: dict, name: str, prefix: str = ""):
    """``cls`` built from ``data``, each value checked against the JSON type its field in ``fields(cls)`` names."""
    types = {f.name: f.type for f in fields(cls)}
    plain = {}
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"unknown config key: {prefix + key!r}")
        kind = types[key]
        if kind in _JSON_KINDS:
            json_field(data, name, key, kinds=_JSON_KINDS[kind])
        elif not isinstance(value, dict):
            raise ValueError(f"{key} must be an object")
        elif kind in _SECTIONS:
            value = _config_section(_SECTIONS[kind], value, key, f"{key}.")
        plain[key] = value
    return cls(**plain)


def dropout_gate(d_r: float, d_w: float, rng: np.random.Generator) -> tuple[bool, bool]:
    """Skip each step with its dropout probability, independently.

    If both draws say skip, the step with the smaller dropout probability
    runs anyway (tie: the role step runs), so no iteration is a no-op.
    """
    if not (0.0 <= d_r <= 1.0 and 0.0 <= d_w <= 1.0):
        raise ValueError("dropout probabilities must be in [0, 1]")
    skip_role = float(rng.random()) < d_r
    skip_weight = float(rng.random()) < d_w
    if skip_role and skip_weight:
        if d_r <= d_w:
            skip_role = False
        else:
            skip_weight = False
    return not skip_role, not skip_weight


@dataclass
class TraceRow:
    """One iteration of the trace.

    ``wall_time_s`` is stamped before the iteration's checkpoint write, so it,
    and perfbench's ``iter_ms_p50`` read from it, leave that write out.
    """

    iteration: int
    ran_role: bool
    ran_weight: bool
    best_role_utility: float
    best_utility: float
    best_contribution: float | None
    evaluator_calls: int
    wall_time_s: float = 0.0


@dataclass
class RunTrace:
    """The per-iteration rows; the one reader and writer of ``trace.jsonl`` and ``metrics.csv``."""

    # The serialized columns. Wall time is kept in memory only; serialized
    # traces must be byte-identical across reruns of the same config and seed.
    COLUMNS = tuple(f.name for f in fields(TraceRow) if f.name != "wall_time_s")
    _KINDS = {f.name: _JSON_KINDS[f.type] for f in fields(TraceRow)}
    rows: list[TraceRow] = field(default_factory=list)

    def to_jsonl(self) -> str:
        records = ({name: getattr(row, name) for name in self.COLUMNS} for row in self.rows)
        return "\n".join(json.dumps(record, sort_keys=True) for record in records) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "RunTrace":
        """Rows of a ``to_jsonl`` text (blank lines skipped, wall times 0); a bad line or value raises ``ValueError("trace line <n>...")``."""
        rows = []
        for number, record in json_lines(text.splitlines(), "trace", "a trace row"):
            where = f"trace line {number}"
            rows.append(TraceRow(**{name: json_field(record, where, name, kinds=cls._KINDS[name]) for name in cls.COLUMNS}))
            json_object(record, where, *cls.COLUMNS)
        return cls(rows)

    def to_csv(self) -> str:
        """Per-iteration table for external plotting: the JSONL keys in ``TraceRow`` order, flags as 0/1."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for row in self.rows:
            values = [getattr(row, name) for name in self.COLUMNS]
            writer.writerow([int(value) if isinstance(value, bool) else value for value in values])
        return out.getvalue()

    @property
    def total_evaluator_calls(self) -> int:
        return sum(row.evaluator_calls for row in self.rows)


@dataclass
class OptimizedSystem:
    dag: DagStructure
    assignment: Assignment
    expert_params: np.ndarray
    best_utility: float
    best_role_utility: float

    def to_dict(self) -> dict:
        return {
            "format_version": SYSTEM_VERSION,
            "dag": self.dag.to_dict(),
            "assignment": list(self.assignment.slots),
            "experts": self.expert_params.tolist(),
            "best_utility": float(self.best_utility),
            "best_role_utility": float(self.best_role_utility),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizedSystem":
        """Inverse of ``to_dict``; a non-object, an unknown ``format_version``, or a key that is missing, unknown or cannot be read raises ``ValueError``."""
        keys = ("format_version", "dag", "assignment", "experts", "best_utility", "best_role_utility")
        read = partial(json_field, json_object(data, "system", *keys, version=SYSTEM_VERSION), "system")
        return cls(
            dag=read("dag", DagStructure.from_dict),
            assignment=read("assignment", lambda slots: Assignment(integers("assignment", slots))),
            expert_params=read("experts", partial(json_array, name="experts", ndim=2)),
            best_utility=read("best_utility", float, kinds=(int, float)),
            best_role_utility=read("best_role_utility", float, kinds=(int, float)),
        )


def _pack(value):
    """An array becomes ``{"shape", "f8"}``: its little-endian float64 bytes in base64."""
    if isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
        return {"shape": list(value.shape), "f8": base64.b64encode(raw).decode("ascii")}
    return value


def _unpack(value, name: str, shape: tuple) -> np.ndarray:
    """Inverse of ``_pack``: a writable float array of ``shape``, else ``ValueError`` naming ``name``."""
    if not (isinstance(value, dict) and "f8" in value):
        raise ValueError(f"{name} is a {type(value).__name__}, not a packed array")
    raw = json_field(json_object(value, name, "shape", "f8"), name, "f8", partial(base64.b64decode, validate=True), kinds=(str,))
    array = np.frombuffer(raw, dtype="<f8").reshape(value["shape"]).astype(float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, not {shape}")
    return array


def _pack_swarm(swarm: Swarm) -> dict:
    return {name: _pack(value) for name, value in vars(swarm).items()}


def _unpack_swarm(data: dict, size: int, particle: tuple) -> Swarm:
    """Inverse of ``_pack_swarm``: ``size`` particles of shape ``particle``, or ``ValueError`` naming the field that is not.

    Scores are ones ``pso_step`` writes: no personal score NaN, a null global best (worst) at exactly -inf (+inf), a set
    best finite, a set worst < +inf.
    """
    swarm = Swarm(**data)  # a missing or unknown field raises TypeError
    for name in ("positions", "velocities", "personal_best"):
        setattr(swarm, name, _unpack(data[name], name, (size, *particle)))
    swarm.personal_best_scores = _unpack(data["personal_best_scores"], "personal_best_scores", (size,))
    if np.isnan(swarm.personal_best_scores).any():
        raise ValueError("personal_best_scores holds a NaN")
    for name, unset in (("global_best", -np.inf), ("global_worst", np.inf)):
        score = json_field(data, "swarm", f"{name}_score", kinds=(int, float))
        if data[name] is not None:
            setattr(swarm, name, _unpack(data[name], name, particle))
        if not (score == unset if data[name] is None else score < np.inf and score != unset):
            raise ValueError(f"{name}_score is {score!r}, which a {'null' if data[name] is None else 'set'} {name} cannot have")
    return swarm


def _finite_experts(swarm: Swarm) -> Swarm:
    if bad := [k for k, row in enumerate(swarm.positions) if not np.isfinite(row).all()]:
        raise ValueError(f"pool expert {bad[0]} holds a value that is not finite")
    return swarm


def _in_range(swarm: Swarm, unit: bool) -> Swarm:
    """``swarm``, unless a velocity is not finite or a point is not: in [0, 1] if ``unit``, where a run clips matrices."""
    for name in ("positions", "velocities", "personal_best", "global_best", "global_worst"):
        values, bounded = getattr(swarm, name), unit and name != "velocities"
        if values is not None and not (((0.0 <= values) & (values <= 1.0)) if bounded else np.isfinite(values)).all():
            raise ValueError(f"{name} holds a value {'outside [0, 1]' if bounded else 'that is not finite'}")
    return swarm


def _finite(value, low=-np.inf):
    """``value``, unless it is NaN, infinite or below ``low``: a ``json_field`` parse."""
    if not (low <= value and -np.inf < value < np.inf):
        raise ValueError(f"{value!r} is below {low}" if value < low else f"{value!r} is not finite")
    return value


def _unpack_record(record: dict, n: int) -> RoleRecord:
    dag = DagStructure.from_dict(json_object(record, "record", "dag", "utility")["dag"])
    utility = json_field(record, "record", "utility", lambda value: float(_finite(value)), kinds=(int, float))
    if dag.n != n:
        raise ValueError(f"dag has {dag.n} nodes, not n_experts {n}")
    return RoleRecord(dag, utility)


def save_checkpoint(path: str | Path, payload: dict) -> None:
    """Write atomically: a failed write leaves the previous checkpoint in place."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    partial.write_text(json.dumps(payload, sort_keys=True))
    os.replace(partial, path)


@dataclass
class RunState:
    """What the loop carries from one iteration to the next; the one writer and reader of the checkpoint."""

    iteration: int
    stall: int
    best_utility: float
    matrix_swarm: Swarm
    expert_swarm: Swarm
    record: RoleRecord | None

    @classmethod
    def initial(cls, cfg: RunConfig, pool, dim: int, rng: RngFactory) -> "RunState":
        """The state before iteration 0: both swarms, experts of length ``dim``, and no structure yet; evaluates nothing."""
        n = cfg.n_experts
        matrices = Swarm.from_positions(init_adjacency_swarm(n, cfg.matrix_swarm_size, rng.stream("init_matrices")))
        if pool is None:
            pool = build_pool(n // cfg.pool_repeats, cfg.pool_repeats, dim, rng.stream("init_experts"))
        experts = Swarm.from_positions(pool)
        if len(experts) != n:
            raise ValueError(f"pool size {len(experts)} != n_experts {n}")
        if experts.positions.shape[1:] != (dim,):
            raise ValueError(f"pool experts have shape {experts.positions.shape[1:]}, but the task reads length {dim}")
        return cls(0, 0, -np.inf, matrices, _finite_experts(experts), None)

    def to_checkpoint(self, config: dict) -> dict:
        """The state after an iteration, which always holds a record, as a JSON-ready dict; ``config`` is ``asdict(cfg)``."""
        return {
            "format_version": CHECKPOINT_VERSION,
            "iteration": self.iteration,
            "config": config,
            "stall": self.stall,
            "best_utility": float(self.best_utility),
            "record": {"dag": self.record.dag.to_dict(), "utility": self.record.utility},
            "matrix_swarm": _pack_swarm(self.matrix_swarm),
            "expert_swarm": _pack_swarm(self.expert_swarm),
        }

    @classmethod
    def from_checkpoint(cls, payload, cfg: RunConfig, dim: int) -> "RunState":
        """Inverse of ``to_checkpoint``; raises ``ValueError`` unless the payload resumes ``cfg``'s run.

        Each field is read and checked once, and one it does not know, at the root, in the record, its DAG, a swarm, a
        packed array or the config, is rejected by name: counters >= 0, utilities finite, the record's DAG of ``n_experts`` nodes, arrays packed in the
        shapes ``cfg`` and ``dim`` give, matrices in [0, 1], experts and velocities finite, swarm scores as
        ``_unpack_swarm`` says.
        """
        keys = ("format_version", "config", *(f.name for f in fields(cls)))
        read = partial(json_field, json_object(payload, "checkpoint", *keys, version=CHECKPOINT_VERSION), "checkpoint")
        stored, current = read("config", lambda config: {**config}), json.loads(json.dumps(asdict(cfg)))
        for name in {**current, **stored}:  # a field only one side has differs too
            if name not in ("max_iterations", "patience") and stored.get(name, ...) != current.get(name, ...):
                raise ValueError(f"config field {name!r} is {current.get(name, 'absent')!r}, but the checkpoint has {stored.get(name, 'absent')!r}")
        n = cfg.n_experts
        return cls(
            iteration=read("iteration", partial(_finite, low=0), kinds=(int,)),
            stall=read("stall", partial(_finite, low=0), kinds=(int,)),
            best_utility=read("best_utility", _finite, kinds=(int, float)),
            matrix_swarm=read("matrix_swarm", lambda data: _in_range(_unpack_swarm(data, cfg.matrix_swarm_size, (n, n)), unit=True)),
            expert_swarm=read("expert_swarm", lambda data: _in_range(_finite_experts(_unpack_swarm(data, n, (dim,))), unit=False)),
            record=read("record", partial(_unpack_record, n=n), kinds=(dict,)),
        )


def optimize(
    cfg: RunConfig,
    pool,
    utility: UtilityFunction,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[OptimizedSystem, RunTrace]:
    """Run the alternating loop; return the best system and the trace.

    ``pool`` is an ``(n, d)`` array-like of expert parameter vectors, left unchanged, or None
    to draw one; ``n`` must be ``utility.node_count`` where that is set and ``d`` must be
    ``utility.expert_dim``. A task whose ``expert_dim`` is 0 reads no expert vector: it takes
    no pool, its experts are the ``(n, 0)`` array every step carries through unchanged, and
    modes that search expert parameters are rejected if it runs an evaluator. A resume takes
    its experts from the checkpoint, so ``pool`` must be None there, and is rejected if the
    config differs from the checkpointed one in anything but ``max_iterations`` and
    ``patience``; a resume of a run that already stopped runs no iteration. Each of these
    fails before iteration 0. The returned system is the recorded best DAG (frozen, never
    re-decoded) instantiated with the final expert parameters under the identity assignment.
    """
    if cfg.mode != "role_only" and utility.evaluator is not None and not utility.expert_dim:
        raise ValueError(f"mode {cfg.mode!r} searches expert parameters, which this task's evaluator never reads; use role_only")
    if utility.node_count not in (None, cfg.n_experts):
        raise ValueError(f"the utility scores {utility.node_count}-node graphs, but n_experts is {cfg.n_experts}")
    if pool is not None and resume_from is not None:
        raise ValueError("a resume takes its experts from the checkpoint; give no pool with it")
    if pool is not None and not utility.expert_dim:
        raise ValueError("this task reads no expert vector; give no pool")
    rng = RngFactory(cfg.seed)
    identity = Assignment.identity(cfg.n_experts)
    budget = cfg.n_experts * (cfg.matrix_swarm_size + cfg.assignments_per_step) * utility.dataset_size
    if resume_from is not None:
        state = RunState.from_checkpoint(read_json(resume_from), cfg, utility.expert_dim)
    else:
        state = RunState.initial(cfg, pool, utility.expert_dim, rng)

    config = asdict(cfg)
    trace = RunTrace()
    while state.iteration < cfg.max_iterations and state.stall < cfg.patience:
        t = state.iteration
        started = time.perf_counter()
        calls_before = utility.evaluator_calls
        previous_best = state.best_utility

        run_role, run_weight = cfg.mode != "weight_only", cfg.mode != "role_only"
        if cfg.mode == "full" and (cfg.dropout_role or cfg.dropout_weight):  # with both at 0 the gate runs both
            run_role, run_weight = dropout_gate(cfg.dropout_role, cfg.dropout_weight, rng.stream("dropout", t))
        run_role = run_role or state.record is None  # a weight step needs a structure to work on

        best_contribution = None
        if run_role:
            state.matrix_swarm, state.record = role_step(
                state.matrix_swarm, state.expert_swarm.positions, identity, utility,
                cfg.sparsity, cfg.role_hp, cfg.top_p, rng, t, state.record,
            )
            state.best_utility = max(state.best_utility, state.record.utility)
        if run_weight:
            state.expert_swarm, report = weight_step(
                state.expert_swarm, state.record.dag, utility, cfg.weight_hp, cfg.assignments_per_step, rng, t
            )
            best_contribution = float(np.max(report.scores))
            state.best_utility = max(state.best_utility, max(report.utilities))

        calls = utility.evaluator_calls - calls_before
        if calls > budget:
            raise RuntimeError(f"evaluator budget exceeded: {calls} > {budget} calls in iteration {t}")
        state.stall = 0 if state.best_utility > previous_best else state.stall + 1
        state.iteration = t + 1
        trace.rows.append(
            TraceRow(
                iteration=t,
                ran_role=run_role,
                ran_weight=run_weight,
                best_role_utility=float(state.record.utility),
                best_utility=float(state.best_utility),
                best_contribution=best_contribution,
                evaluator_calls=calls,
                wall_time_s=time.perf_counter() - started,
            )
        )
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state.to_checkpoint(config))

    return OptimizedSystem(
        dag=state.record.dag,
        assignment=identity,
        expert_params=state.expert_swarm.positions.copy(),
        best_utility=float(state.best_utility),
        best_role_utility=float(state.record.utility),
    ), trace
