"""RPE and cumulative-curve tests against a plain-matrix oracle."""
from __future__ import annotations

import numpy as np
import pytest

from madlo.evaluation import (
    RpeConfig,
    compute_rpe,
    cumulative_curve,
    curve_csv,
    rpe_report_csv,
)
from madlo.geometry import Isometry3, exp_se3
from madlo.motion import StampedPose


def oracle_rpe(est_mats, gt_mats, lengths):
    """Reference RPE on 4x4 matrices: linear scans and np.linalg.inv only."""
    n = len(gt_mats)
    dist = [0.0]
    for k in range(1, n):
        dist.append(dist[-1] + float(np.linalg.norm(
            gt_mats[k][:3, 3] - gt_mats[k - 1][:3, 3])))
    records = []
    for i in range(n):
        for length in lengths:
            j = None
            for k in range(i, n):
                if dist[k] - dist[i] >= length:
                    j = k
                    break
            if j is None:
                continue
            gt_rel = np.linalg.inv(gt_mats[i]) @ gt_mats[j]
            est_rel = np.linalg.inv(est_mats[i]) @ est_mats[j]
            err = np.linalg.inv(gt_rel) @ est_rel
            path = dist[j] - dist[i]
            records.append((i, length, path,
                            100.0 * float(np.linalg.norm(err[:3, 3])) / path))
    return records


def walk_trajectory(rng, n, scale=0.3):
    poses, x = [], Isometry3.identity()
    for k in range(n):
        x = x @ exp_se3(rng.uniform(-scale, scale, size=6))
        poses.append(StampedPose(x, float(k)))
    return poses


def straight_line(n, spacing=1.0, scale=1.0):
    return [
        StampedPose(Isometry3(np.eye(3), np.array([scale * spacing * k, 0.0, 0.0])),
                    float(k))
        for k in range(n)
    ]


def perturb(traj, rng, scale):
    return [StampedPose(sp.pose @ exp_se3(rng.uniform(-scale, scale, size=6)), sp.stamp)
            for sp in traj]


# -------------------------------------------------------------------- RPE


def test_rpe_zero_when_est_equals_gt():
    rng = np.random.default_rng(110)
    gt = walk_trajectory(rng, 60)
    report = compute_rpe(gt, gt, RpeConfig(lengths=(2.0, 5.0)))
    assert report.records
    assert max(r.trans_err_pct for r in report.records) < 1e-9
    assert report.overall < 1e-9


def test_rpe_one_percent_drift():
    gt = straight_line(850)
    est = straight_line(850, scale=1.01)
    report = compute_rpe(est, gt)
    assert abs(report.overall - 1.0) < 1e-9
    assert max(abs(r.trans_err_pct - 1.0) for r in report.records) < 1e-9
    assert set(report.per_length) == {float(v) for v in range(100, 900, 100)}


def test_rpe_matches_plain_matrix_oracle():
    rng = np.random.default_rng(111)
    gt = walk_trajectory(rng, 30)
    est = perturb(gt, rng, 0.05)
    cfg = RpeConfig(lengths=(2.0, 5.0))
    report = compute_rpe(est, gt, cfg)
    expected = oracle_rpe([sp.pose.matrix() for sp in est],
                          [sp.pose.matrix() for sp in gt], cfg.lengths)
    assert len(report.records) == len(expected)
    for rec, (i, length, path, err) in zip(report.records, expected):
        assert rec.start == i and rec.length == length
        assert abs(rec.path_length - path) < 1e-9
        assert abs(rec.trans_err_pct - err) < 1e-9


def test_rpe_picks_smallest_endpoint_reaching_length():
    gt = straight_line(5, spacing=0.6)
    report = compute_rpe(gt, gt, RpeConfig(lengths=(1.0,)))
    # from frame 0 the cumulative path is 0.6, 1.2, ... -> endpoint is frame 2
    assert abs(report.records[0].path_length - 1.2) < 1e-12


def test_rpe_rotation_error_recorded_internally():
    gt = straight_line(3)
    est_poses = [sp for sp in gt]
    est_poses[2] = StampedPose(
        Isometry3(exp_se3(np.r_[0.0, 0.0, 0.0, 0.0, 0.0, 0.1]).rotation,
                  np.array([2.0, 0.0, 0.0])),
        est_poses[2].stamp)
    report = compute_rpe(est_poses, gt, RpeConfig(lengths=(2.0,)))
    rec = report.records[0]
    assert rec.trans_err_pct < 1e-12
    assert abs(rec.rot_err_deg_per_m - np.degrees(0.1) / 2.0) < 1e-12


def test_rpe_skips_lengths_past_trajectory_end():
    gt = straight_line(20)
    report = compute_rpe(gt, gt, RpeConfig(lengths=(5.0, 1000.0)))
    assert set(report.per_length) == {5.0}
    assert all(r.length == 5.0 for r in report.records)


def test_rpe_gauge_invariance():
    rng = np.random.default_rng(112)
    gt = walk_trajectory(rng, 40)
    est = perturb(gt, rng, 0.05)
    gauge = exp_se3(np.array([10.0, -4.0, 2.0, 0.4, 0.8, -0.2]))
    gt_g = [StampedPose(gauge @ sp.pose, sp.stamp) for sp in gt]
    est_g = [StampedPose(gauge @ sp.pose, sp.stamp) for sp in est]
    cfg = RpeConfig(lengths=(2.0, 4.0))
    a = compute_rpe(est, gt, cfg)
    b = compute_rpe(est_g, gt_g, cfg)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert abs(ra.trans_err_pct - rb.trans_err_pct) < 1e-9


def test_rpe_validation():
    gt = straight_line(10)
    short = straight_line(9)
    with pytest.raises(ValueError):
        compute_rpe(short, gt)
    with pytest.raises(ValueError):
        compute_rpe(straight_line(1), straight_line(1))
    for bad in ((), (-1.0,), (5.0, 5.0), (5.0, 2.0)):
        with pytest.raises(ValueError):
            RpeConfig(lengths=bad)


# ------------------------------------------------------------------ curve


def test_curve_single_zero_error():
    curve, auc = cumulative_curve([0.0])
    assert auc == 10.0
    assert (curve[:, 1] == 1).all()
    assert curve[0, 0] == 0.0 and abs(curve[-1, 0] - 10.0) < 1e-9


def test_curve_auc_two_and_four():
    _, auc = cumulative_curve([2.0, 4.0])
    assert auc == 14.0


def test_curve_failed_sequence_contributes_nothing():
    _, auc = cumulative_curve([17903.09])
    assert auc == 0.0
    _, auc = cumulative_curve([0.0, 17903.09])
    assert auc == 10.0


def test_curve_counts_step_up_at_errors():
    curve, auc = cumulative_curve([1.0, 3.0, 3.0, 12.0])
    assert auc == (10.0 - 1.0) + 2 * (10.0 - 3.0)
    thresholds, counts = curve[:, 0], curve[:, 1]
    assert (counts[thresholds < 1.0] == 0).all()
    assert (counts[(thresholds >= 1.001) & (thresholds < 2.999)] == 1).all()
    assert (counts[thresholds >= 3.001] == 3).all()
    assert counts[-1] == 3


def test_auc_monotone_as_errors_grow():
    rng = np.random.default_rng(113)
    errors = rng.uniform(0, 12, size=15)
    _, auc = cumulative_curve(errors)
    for i in range(len(errors)):
        grown = errors.copy()
        grown[i] += rng.uniform(0.1, 5.0)
        _, worse = cumulative_curve(grown)
        assert worse <= auc + 1e-12


def test_auc_all_zero_is_ten_per_sequence():
    _, auc = cumulative_curve(np.zeros(7))
    assert auc == 70.0


def test_curve_validation():
    with pytest.raises(ValueError):
        cumulative_curve([])
    with pytest.raises(ValueError):
        cumulative_curve([1.0, -0.5])


# -------------------------------------------------------------------- CSV


def test_report_csv_shape():
    report = compute_rpe(straight_line(850, scale=1.01), straight_line(850))
    text = rpe_report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "length,mean_err_pct"
    assert lines[1].startswith("100,")
    assert lines[-1].startswith("overall,")
    assert abs(float(lines[-1].split(",")[1]) - 1.0) < 1e-9


def test_curve_csv_shape():
    curve, _ = cumulative_curve([2.0, 4.0])
    lines = curve_csv(curve).strip().splitlines()
    assert lines[0] == "threshold,count"
    assert lines[1] == "0,0"
    assert lines[-1] == "10,2"
