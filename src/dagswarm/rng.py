"""Deterministic random stream derivation.

Every stochastic component draws from its own stream, derived from the run
seed plus a purpose label and integer coordinates (iteration, particle, ...).
Streams are independent of consumption order elsewhere, so checkpoint resume
and cross-mode comparisons see identical draws without tracking generator
cursors.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stable purpose codes; never renumber, only append.
_PURPOSES = {
    "init_matrices": 0,
    "init_experts": 1,
    "decode": 2,
    "role_pso": 3,
    "assignments": 4,
    "weight_pso": 5,
    "dropout": 6,
    "task": 7,
    "sweep": 8,
}

# numpy's SeedSequence constants: hash steps (A), generate_state (B) and mix (L, R) multipliers.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hash(values: np.ndarray, start: int, mult: int, steps: int) -> np.ndarray:
    """``steps`` SeedSequence hash steps from constant ``start``, step j on row j of ``values``, in one pass."""
    consts = np.array([start * pow(mult, j, 1 << 32) & _MASK32 for j in range(steps + 1)], dtype=np.uint64)[:, None]
    values = (values ^ consts[:-1]) * consts[1:] & _MASK32
    return values ^ values >> 16


class _FixedState(ISeedSequence):
    """Hands PCG64 one precomputed ``generate_state(4, uint64)`` row."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _spawn_key(purpose: str, coords: tuple) -> tuple[int, ...]:
    if purpose not in _PURPOSES:
        raise ValueError(f"unknown rng purpose: {purpose!r}")
    return (_PURPOSES[purpose],) + tuple(int(k) for k in coords)


class RngFactory:
    """Dispenses named substreams of a single root seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: str, *key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=_spawn_key(purpose, key)))

    def streams(self, purpose: str, *prefix: int, count: int) -> list[np.random.Generator]:
        """``[self.stream(purpose, *prefix, i) for i in range(count)]``, bit for bit, in one batch."""
        key = _spawn_key(purpose, prefix)
        shared = np.random.SeedSequence(self.seed, spawn_key=key)
        # numpy mixes the shared words; the last, the index i, is mixed in here. A spawn key pads the run
        # entropy to the pool's 4 words, and mixing m words advances the hash constant 4m times.
        n_words = [max(-(-value.bit_length() // 32), 1) for value in (self.seed, *key)]
        start = _INIT_A * pow(_MULT_A, 4 * (max(n_words[0], 4) + sum(n_words[1:])), 1 << 32)
        value = _hash(np.arange(count, dtype=np.uint64), start, _MULT_A, 4)  # rows: the 4 pool words
        pool = (_MIX_L * shared.pool.astype(np.uint64)[:, None] - _MIX_R * value) & _MASK32
        pool ^= pool >> 16
        # generate_state(4, uint64): 8 uint32 words from the pool cycled twice, paired little-endian.
        value = _hash(np.concatenate([pool, pool]), _INIT_B, _MULT_B, 8)
        state = np.ascontiguousarray((value[0::2] | value[1::2] << 32).T)
        return [np.random.Generator(np.random.PCG64(_FixedState(row))) for row in state]
