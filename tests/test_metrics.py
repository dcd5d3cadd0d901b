from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from dagswarm import (
    BucketTable,
    RunTrace,
    TraceRow,
    ablation_consistent,
    analysis_report,
    bucketize,
    collaborative_gain,
)


def test_bucketize_hand_case():
    # expert-correct counts {0, 1, 1, 2} over two experts
    table = bucketize([[0, 0], [1, 0], [0, 1], [1, 1]], [1, 1, 0, 1])
    assert table.counts == (1, 2, 1)
    assert table.correct == (1, 1, 1)
    assert table.dataset_size == 4


def test_bucketize_all_wrong():
    table = bucketize([[0, 0], [0, 0]], [0, 0])
    assert table.counts == (2, 0, 0)
    assert table.accuracy(0) == 0.0
    assert analysis_report(table)["solved_from_zero_rate"] == 0.0


def test_bucketize_permutation_invariant():
    rng = np.random.default_rng(0)
    expert = rng.integers(0, 2, (40, 3)).astype(bool)
    system = rng.integers(0, 2, 40).astype(bool)
    perm = rng.permutation(40)
    assert bucketize(expert, system).counts == bucketize(expert[perm], system[perm]).counts


def test_bucketize_validation():
    with pytest.raises(ValueError):
        bucketize([[0, 1]], [0, 1])
    with pytest.raises(ValueError):
        bucketize(np.zeros((0, 2)), np.zeros(0))


def test_gain_hand_case_zero_with_b0_rate_one():
    # buckets (|B0|=1, Acc 1), (|B1|=2, Acc 0.5), (|B2|=1, Acc 1):
    # (2/4)(0.5-0.5) + (1/4)(1-1) = 0
    table = BucketTable(2, (1, 2, 1), (1, 1, 1))
    assert collaborative_gain(table) == 0.0
    assert analysis_report(table)["solved_from_zero_rate"] == 1.0


def test_gain_zero_when_accuracy_meets_expectation():
    for counts in [(0, 2, 4), (3, 8, 4), (0, 10, 0)]:
        correct = (0, counts[1] // 2, counts[2])  # Acc(B_n) = n/N for N=2
        table = BucketTable(2, counts, correct)
        assert collaborative_gain(table) == pytest.approx(0.0)


def test_gain_known_positive_case():
    # B_1 only: 4 problems all solved by the system -> (4/4)(1 - 1/2) = 0.5
    table = BucketTable(2, (0, 4, 0), (0, 4, 0))
    assert collaborative_gain(table) == pytest.approx(0.5)


def test_reported_reference_gains_within_range():
    for gain in (0.143, 0.184, 0.101, 0.426):
        assert -1.0 <= gain <= 1.0


def test_gain_bounds_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        expert = rng.integers(0, 2, (int(rng.integers(1, 30)), n)).astype(bool)
        system = rng.integers(0, 2, expert.shape[0]).astype(bool)
        gain = collaborative_gain(bucketize(expert, system))
        assert -1.0 <= gain <= 1.0


def test_bucket_table_validation():
    with pytest.raises(ValueError):
        BucketTable(2, (1, 1), (0, 0))  # missing bucket entry
    with pytest.raises(ValueError):
        BucketTable(2, (1, 1, 1), (2, 0, 0))  # correct exceeds count
    with pytest.raises(ValueError, match="n_experts must be >= 1"):
        BucketTable(0, (1,), (0,))
    with pytest.raises(ValueError):
        collaborative_gain(BucketTable(1, (0, 0), (0, 0)))  # empty dataset


def test_ablation_consistency_rules():
    assert ablation_consistent(0.24, 0.36, 0.53, 0.54) is False
    assert ablation_consistent(0.1, 0.2, 0.5, 0.4) is True
    assert ablation_consistent(0.2, 0.1, 0.4, 0.5) is True
    assert ablation_consistent(0.2, 0.2, 0.4, 0.5) is False
    assert ablation_consistent(0.1, 0.2, 0.5, 0.5) is False
    with pytest.raises(ValueError):
        ablation_consistent(float("nan"), 0.2, 0.4, 0.5)


def test_analysis_report_layout():
    table = bucketize([[0, 1], [1, 1]], [1, 0])
    report = analysis_report(
        table,
        {"wo_role": 0.1, "wo_weight": 0.2, "role_baseline_avg": 0.5, "weight_baseline_avg": 0.4},
    )
    assert report["format_version"] == 1
    assert report["bucket_table"]["dataset_size"] == 2
    assert len(report["bucket_table"]["buckets"]) == 3
    assert report["ablation"]["consistent"] is True
    assert "collaborative_gain" in report and "solved_from_zero_rate" in report


def test_trace_csv_round_trips():
    trace = RunTrace(
        [
            TraceRow(0, True, True, 0.5, 0.6, 0.55, 32, 0.01),
            TraceRow(1, True, False, 0.7, 0.7, None, 16, 0.01),
        ]
    )
    text = trace.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["iteration"] == "0"
    assert float(rows[0]["best_utility"]) == 0.6
    assert rows[1]["best_contribution"] == ""
    assert rows[1]["ran_weight"] == "0"
