"""Expert pools: an ``(n, d)`` array of parameter vectors with a diversity spec.

A pool of ``a`` distinct experts each repeated ``b`` times has a * b rows;
repeats start as value copies. Weight optimization moves every expert only
within the affine hull of the a distinct ones, so copies drift apart only
when a >= 2, and with a = 1 no expert ever moves. Pools persist as a
manifest plus one JSON file per expert, repeats included.
"""
from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from .utilities import json_array, json_field, json_object, read_json

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


def build_pool(
    distinct: int,
    repeats: int,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``distinct`` rows drawn uniform(-1, 1), each repeated ``repeats`` times in a row."""
    if distinct < 1 or repeats < 1 or dim < 0:
        raise ValueError("distinct and repeats must be >= 1 and dim >= 0")
    return np.repeat(rng.uniform(-1.0, 1.0, (distinct, dim)), repeats, axis=0)


def save_pool(pool: np.ndarray, directory: str | Path) -> None:
    """One expert file per row and the manifest; a pool ``load_pool`` could not read back raises ``ValueError`` first."""
    if pool.ndim != 2 or not pool.size:
        raise ValueError(f"a saved pool must be an (n, d) array with n, d >= 1, got shape {pool.shape}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for k, vec in enumerate(pool):
        name = f"expert_{k:03d}.json"
        (directory / name).write_text(json.dumps(vec.tolist(), sort_keys=True))
        files.append(name)
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_experts": len(pool),
        "dim": pool.shape[1],
        "files": files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_pool(directory: str | Path) -> np.ndarray:
    """The ``(n, d)`` pool; a malformed manifest or expert file, or expert files of different lengths, raise ``ValueError``.

    ``files`` may name only plain file names inside ``directory``.
    """
    directory = Path(directory)
    manifest = json_object(read_json(directory / MANIFEST_NAME), "pool manifest", "format_version", version=FORMAT_VERSION)
    read = partial(json_field, manifest, "pool manifest")
    n_experts, dim, files = read("n_experts", kinds=(int,)), read("dim", kinds=(int,)), read("files", kinds=(list,))
    for name in files:
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ValueError(f"pool manifest entry {name!r} is not a plain file name")
    experts = [json_array(read_json(directory / name), f"expert file {name}", 1) for name in files]
    if len(experts) != n_experts or len({len(expert) for expert in experts}) != 1:
        raise ValueError("expert files must hold manifest n_experts vectors of one length")
    pool = np.array(experts)
    if pool.shape[1] != dim:
        raise ValueError(f"pool manifest dim {dim!r} does not match expert width {pool.shape[1]}")
    return pool
