"""Post-hoc analysis: collaboration buckets, gain, ablation consistency.

Problems are grouped by how many component experts solve them
individually; bucket n holds the problems exactly n experts got right.
The collaborative gain weighs each bucket's excess system accuracy over
the expected accuracy n / N. Bucket 0 sits outside the sum and is
reported as the solved-from-zero rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .utilities import json_field


@dataclass(frozen=True)
class BucketTable:
    n_experts: int
    counts: tuple[int, ...]
    correct: tuple[int, ...]

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError("n_experts must be >= 1")
        if len(self.counts) != self.n_experts + 1 or len(self.correct) != self.n_experts + 1:
            raise ValueError("counts and correct must have one entry per bucket 0..N")
        for n, (total, right) in enumerate(zip(self.counts, self.correct)):
            if not 0 <= right <= total:
                raise ValueError(f"bucket {n}: system-correct count {right} outside [0, {total}]")

    @property
    def dataset_size(self) -> int:
        return sum(self.counts)

    def accuracy(self, n: int) -> float:
        """System accuracy on bucket n; an empty bucket reports the
        expected accuracy n / N so its gain contribution is zero."""
        if self.counts[n] == 0:
            return n / self.n_experts
        return self.correct[n] / self.counts[n]

    def to_dict(self) -> dict:
        return {
            "n_experts": self.n_experts,
            "dataset_size": self.dataset_size,
            "buckets": [
                {
                    "n": n,
                    "count": self.counts[n],
                    "system_correct": self.correct[n],
                    "accuracy": self.accuracy(n),
                    "expected_accuracy": n / self.n_experts,
                }
                for n in range(self.n_experts + 1)
            ],
        }


def bucketize(per_expert_correct, system_correct) -> BucketTable:
    expert = np.asarray(per_expert_correct, dtype=bool)
    system = np.asarray(system_correct, dtype=bool)
    if expert.ndim != 2 or system.ndim != 1 or expert.shape[0] != system.shape[0]:
        raise ValueError("per_expert_correct must be |D| x N and system_correct length |D|")
    if expert.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    n = expert.shape[1]
    bucket_of = expert.sum(axis=1)
    counts = np.bincount(bucket_of, minlength=n + 1)
    right = np.bincount(bucket_of, weights=system.astype(float), minlength=n + 1)
    return BucketTable(n, tuple(int(c) for c in counts), tuple(int(round(r)) for r in right))


def collaborative_gain(table: BucketTable) -> float:
    """Bucket-weighted excess of system accuracy over n / N, for n >= 1."""
    size = table.dataset_size
    if size == 0:
        raise ValueError("dataset must be non-empty")
    total = 0.0
    for n in range(1, table.n_experts + 1):
        expected = n / table.n_experts
        total += (table.counts[n] / size) * (table.accuracy(n) - expected)
    return total


ABLATION_FIELDS = ("wo_role", "wo_weight", "role_baseline_avg", "weight_baseline_avg")


def ablation_consistent(
    wo_role: float, wo_weight: float, role_baseline_avg: float, weight_baseline_avg: float
) -> bool:
    """Whether the ablation ordering agrees with the baseline ordering.

    True when the weaker ablation corresponds to the stronger baseline
    pool, in either direction; exact ties in either pair give False.
    """
    values = (wo_role, wo_weight, role_baseline_avg, weight_baseline_avg)
    if not all(math.isfinite(v) for v in values):
        raise ValueError("ablation inputs must be finite")
    forward = wo_role < wo_weight and role_baseline_avg > weight_baseline_avg
    backward = wo_role > wo_weight and role_baseline_avg < weight_baseline_avg
    return forward or backward


def analysis_report(table: BucketTable, ablation: dict | None = None) -> dict:
    """The report of ``table``; an ``ablation`` that lacks one of ``ABLATION_FIELDS`` or holds a non-number raises ``ValueError`` naming it."""
    report = {
        "format_version": 1,
        "bucket_table": table.to_dict(),
        "collaborative_gain": collaborative_gain(table),
        "solved_from_zero_rate": table.accuracy(0),
    }
    if ablation is not None:
        values = {key: json_field(ablation, "ablation file", key, float, kinds=(int, float)) for key in ABLATION_FIELDS}
        report["ablation"] = {**values, "consistent": ablation_consistent(**values)}
    return report

