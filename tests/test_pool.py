from __future__ import annotations

import json
import re

import numpy as np
import pytest

from dagswarm import RngFactory, build_pool, load_pool, save_pool


def test_build_pool_structure():
    pool = build_pool(3, 2, 4, RngFactory(0).stream("init_experts"))
    assert pool.shape == (6, 4)
    assert np.all(np.abs(pool) <= 1.0)
    # repeats are value copies of their base vector
    assert np.array_equal(pool[0], pool[1])
    assert not np.array_equal(pool[0], pool[2])
    # but independent storage: mutating one must not leak into the other
    pool[0, 0] = 99.0
    assert pool[1, 0] != 99.0


@pytest.mark.parametrize("distinct,repeats,dim", [(1, 1, 1), (3, 2, 4), (10, 1, 6), (2, 5, 7)])
def test_build_pool_matches_per_row_draws(distinct, repeats, dim):
    """One (distinct, dim) draw gives the same rows and generator state as one draw per distinct expert."""
    for seed in range(20):
        rng, reference_rng = RngFactory(seed).stream("init_experts"), RngFactory(seed).stream("init_experts")
        bases = [reference_rng.uniform(-1, 1, dim) for _ in range(distinct)]
        reference = [bases[k] for k in range(distinct) for _ in range(repeats)]
        assert np.array_equal(build_pool(distinct, repeats, dim, rng), reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_build_pool_validation():
    rng = RngFactory(0).stream("init_experts")
    with pytest.raises(ValueError):
        build_pool(0, 1, 4, rng)
    with pytest.raises(ValueError):
        build_pool(1, 0, 4, rng)
    with pytest.raises(ValueError, match="^distinct and repeats must be >= 1 and dim >= 0$"):
        build_pool(1, 1, -1, rng)
    assert build_pool(2, 2, 0, rng).shape == (4, 0)  # the experts of a task that reads no expert vector


def test_save_load_roundtrip(tmp_path):
    pool = build_pool(2, 2, 3, RngFactory(5).stream("init_experts"))
    save_pool(pool, tmp_path / "pool")
    manifest_path = tmp_path / "pool" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) == {"format_version", "n_experts", "dim", "files"}
    assert manifest["format_version"] == 1 and manifest["dim"] == 3
    assert len(manifest["files"]) == manifest["n_experts"] == 4  # one file per expert, repeats included
    assert np.array_equal(load_pool(tmp_path / "pool"), pool)
    # manifests that still carry the pool spec keys load the same
    manifest_path.write_text(json.dumps({**manifest, "distinct": 2, "repeats": 2}))
    assert np.array_equal(load_pool(tmp_path / "pool"), pool)


@pytest.mark.parametrize("pool", [
    build_pool(2, 1, 0, RngFactory(0).stream("init_experts")), np.zeros((0, 3)), np.zeros(3), np.zeros((2, 3, 1)),
], ids=["width-0", "no-rows", "1-d", "3-d"])
def test_save_rejects_a_pool_load_cannot_read_before_writing_a_file(tmp_path, pool):
    with pytest.raises(ValueError, match=re.escape(f"a saved pool must be an (n, d) array with n, d >= 1, got shape {pool.shape}")):
        save_pool(pool, tmp_path / "pool")
    assert not (tmp_path / "pool").exists()


def test_load_rejects_bad_version(tmp_path):
    pool = build_pool(1, 1, 2, RngFactory(0).stream("init_experts"))
    save_pool(pool, tmp_path / "pool")
    manifest_path = tmp_path / "pool" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_pool(tmp_path / "pool")


def test_load_rejects_count_mismatch(tmp_path):
    pool = build_pool(2, 1, 2, RngFactory(0).stream("init_experts"))
    save_pool(pool, tmp_path / "pool")
    manifest_path = tmp_path / "pool" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["n_experts"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_pool(tmp_path / "pool")


@pytest.mark.parametrize("contents", [[[0.1, 0.2], [0.1, 0.2, 0.3]], [0.1, 0.2]])
def test_load_rejects_expert_files_that_are_not_vectors_of_one_length(tmp_path, contents):
    save_pool(build_pool(2, 1, 2, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    for k, value in enumerate(contents):
        (tmp_path / "pool" / f"expert_{k:03d}.json").write_text(json.dumps(value))
    with pytest.raises(ValueError):
        load_pool(tmp_path / "pool")


def saved_manifest(tmp_path, **changes):
    """A saved two-expert width-6 pool whose manifest gets ``changes``; a value of None drops the key."""
    save_pool(build_pool(2, 1, 6, RngFactory(0).stream("init_experts")), tmp_path / "pool")
    manifest_path = tmp_path / "pool" / "manifest.json"
    manifest = {**json.loads(manifest_path.read_text()), **changes}
    manifest_path.write_text(json.dumps({key: value for key, value in manifest.items() if value is not None}))
    return tmp_path / "pool"


@pytest.mark.parametrize("key", ["format_version", "n_experts", "dim", "files"])
def test_load_names_a_missing_manifest_field(tmp_path, key):
    with pytest.raises(ValueError, match=f"pool manifest has no '{key}' field"):
        load_pool(saved_manifest(tmp_path, **{key: None}))


@pytest.mark.parametrize("manifest", [[1], "pool", 3, None])
def test_load_rejects_a_manifest_that_is_not_an_object(tmp_path, manifest):
    directory = saved_manifest(tmp_path)
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="pool manifest root must be a JSON object"):
        load_pool(directory)


def test_load_checks_dim_against_the_expert_width(tmp_path):
    with pytest.raises(ValueError, match="pool manifest dim 99 does not match expert width 6"):
        load_pool(saved_manifest(tmp_path, dim=99))


def test_load_rejects_files_that_are_not_a_list(tmp_path):
    with pytest.raises(ValueError, match="^pool manifest field 'files' cannot be read: 'expert_000.json' is a str$"):
        load_pool(saved_manifest(tmp_path, files="expert_000.json"))


@pytest.mark.parametrize("key,value", [("n_experts", 2.0), ("dim", 6.0), ("n_experts", "2"), ("dim", True)])
def test_load_reads_the_manifest_counts_as_exact_integers(tmp_path, key, value):
    with pytest.raises(ValueError) as caught:
        load_pool(saved_manifest(tmp_path, **{key: value}))
    assert str(caught.value) == f"pool manifest field {key!r} cannot be read: {value!r} is a {type(value).__name__}"


@pytest.mark.parametrize("entry", ["../outside.json", "ABSOLUTE", "sub/expert.json", "..", ".", "", 7])
def test_load_accepts_only_plain_file_names(tmp_path, entry):
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps([0.5] * 6))
    (tmp_path / "pool" / "sub").mkdir(parents=True)
    (tmp_path / "pool" / "sub" / "expert.json").write_text(json.dumps([0.5] * 6))
    entry = str(outside) if entry == "ABSOLUTE" else entry
    with pytest.raises(ValueError, match=re.escape(f"pool manifest entry {entry!r} is not a plain file name")):
        load_pool(saved_manifest(tmp_path, files=["expert_000.json", entry]))


def test_load_names_an_expert_value_that_is_no_json_number(tmp_path):
    directory = saved_manifest(tmp_path, dim=3)
    (directory / "expert_000.json").write_text(json.dumps([0.5, 1.0, 2]))
    (directory / "expert_001.json").write_text(json.dumps(["0.5", True, 2]))
    with pytest.raises(ValueError) as caught:
        load_pool(directory)
    assert str(caught.value) == "expert file expert_001.json element [0] is '0.5', a str, not int or float"
