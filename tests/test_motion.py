"""Velocity estimation, pose prediction and deskew tests.

Constant-velocity ground truth comes in two flavors used deliberately:

* ``screw_history``: a one-parameter subgroup pose(t) = X0 exp(t xi). Every
  relative motion is exp(dt xi); translation grows linearly with dt only
  when v is parallel to omega (or omega = 0), where the fit and the
  predictor are simultaneously exact.
* ``model_history``: poses constructed backwards from the last one so each
  relative motion is exactly (exp(dt w), dt v) -- the estimator's noise-free
  generative model for arbitrary (v, w).
"""
from __future__ import annotations

import numpy as np
import pytest

from madlo.geometry import SMALL_ANGLE, Isometry3, PointCloud, exp_se3
from madlo.motion import StampedPose, deskew, estimate_velocity, predict_pose


def screw_history(x0: Isometry3, v, w, stamps):
    xi = np.concatenate([v, w])
    return [StampedPose(x0 @ exp_se3(t * xi), t) for t in stamps]


def model_history(last: Isometry3, v, w, stamps):
    out = []
    for t in stamps[:-1]:
        dt = stamps[-1] - t
        rel = Isometry3(exp_se3(np.r_[0.0, 0.0, 0.0, dt * np.asarray(w)]).rotation,
                        dt * np.asarray(v))
        out.append(StampedPose(last @ rel.inverse(), t))
    out.append(StampedPose(last, stamps[-1]))
    return out


# ------------------------------------------------------------- estimation


def test_stationary_history_gives_zero():
    hist = [StampedPose(Isometry3.identity(), 0.1 * i) for i in range(10)]
    vel = estimate_velocity(hist)
    assert np.array_equal(vel[:3], np.zeros(3))
    assert np.array_equal(vel[3:], np.zeros(3))


def test_short_history_gives_zero():
    assert np.array_equal(estimate_velocity([])[:3], np.zeros(3))
    one = [StampedPose(Isometry3.identity(), 0.0)]
    assert np.array_equal(estimate_velocity(one)[3:], np.zeros(3))


def test_estimate_exact_on_generative_model():
    rng = np.random.default_rng(81)
    v, w = np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 0.2])
    stamps = [0.1 * i for i in range(10)]
    last = exp_se3(rng.normal(size=6))
    vel = estimate_velocity(model_history(last, v, w, stamps))
    assert np.abs(vel[:3] - v).max() < 1e-6
    assert np.abs(vel[3:] - w).max() < 1e-6


def test_estimate_exact_on_pure_translation_screw():
    v, w = np.array([0.8, -0.3, 0.1]), np.zeros(3)
    stamps = [0.1 * i for i in range(10)]
    vel = estimate_velocity(screw_history(Isometry3.identity(), v, w, stamps))
    assert np.abs(vel[:3] - v).max() < 1e-9
    assert np.abs(vel[3:]).max() < 1e-9


def test_estimate_exact_on_screw_motion():
    # v parallel to omega: relative translations grow linearly, both exact
    v, w = np.array([0.0, 0.0, 0.6]), np.array([0.0, 0.0, 0.3])
    stamps = [0.1 * i for i in range(10)]
    x0 = exp_se3(np.array([1.0, 2.0, 0.5, 0.2, -0.1, 0.4]))
    vel = estimate_velocity(screw_history(x0, v, w, stamps))
    assert np.abs(vel[:3] - v).max() < 1e-9
    assert np.abs(vel[3:] - w).max() < 1e-9


def test_estimate_two_pose_window():
    v, w = np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.5])
    hist = model_history(Isometry3.identity(), v, w, [0.0, 0.25])
    vel = estimate_velocity(hist)
    assert np.abs(vel[:3] - v).max() < 1e-9
    assert np.abs(vel[3:] - w).max() < 1e-9


def test_estimate_rejects_non_increasing_stamps():
    hist = [StampedPose(Isometry3.identity(), 0.0), StampedPose(Isometry3.identity(), 0.0)]
    with pytest.raises(ValueError):
        estimate_velocity(hist)


# ------------------------------------------------------------- prediction


def test_predict_zero_velocity_keeps_pose():
    rng = np.random.default_rng(82)
    x = exp_se3(rng.normal(size=6))
    y = predict_pose(x, np.zeros(6), 0.1)
    assert np.abs(y.matrix() - x.matrix()).max() < 1e-15


def test_predict_pure_translation():
    vel = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    y = predict_pose(Isometry3.identity(), vel, 0.5)
    assert np.abs(y.translation - np.array([0.5, 0.0, 0.0])).max() < 1e-12


def test_predict_closes_loop_with_estimator():
    # estimate from a screw history, integrate one step, compare to truth
    v, w = np.array([0.0, 0.9, 0.0]), np.array([0.0, 0.45, 0.0])
    dt = 0.1
    stamps = [dt * i for i in range(10)]
    x0 = exp_se3(np.array([0.3, -1.0, 2.0, 0.1, 0.2, -0.3]))
    hist = screw_history(x0, v, w, stamps)
    vel = estimate_velocity(hist)
    pred = predict_pose(hist[-1].pose, vel, dt)
    truth = x0 @ exp_se3((stamps[-1] + dt) * np.concatenate([v, w]))
    assert np.abs(pred.matrix() - truth.matrix()).max() < 1e-6


# ---------------------------------------------------------------- deskew


def test_deskew_zero_velocity_is_bitwise_noop():
    rng = np.random.default_rng(83)
    cloud = PointCloud(rng.normal(size=(100, 3)), rel_times=rng.uniform(0, 1, 100))
    out = deskew(cloud, np.zeros(6), 0.1)
    assert np.array_equal(out.points, cloud.points)


def test_deskew_anchor_point_unchanged():
    cloud = PointCloud(np.array([[3.0, -1.0, 2.0]]), rel_times=np.array([1.0]))
    vel = np.array([5.0, 1.0, -2.0, 0.4, 0.1, -0.8])
    out = deskew(cloud, vel, 0.1)
    assert np.array_equal(out.points, cloud.points)


def test_deskew_matches_per_point_exp_oracle():
    # each point is moved by its own scalar exp_se3((s - 1) T xi)
    rng = np.random.default_rng(86)
    period = 0.1
    twists = [np.concatenate([rng.normal(scale=10.0, size=3),
                              rng.normal(size=3) * rng.uniform(0.0, 20.0)]) for _ in range(8)]
    twists.append(np.array([4.0, -1.0, 0.5, 0.0, 0.0, 0.0]))  # omega = 0
    # |alpha omega| below SMALL_ANGLE, and straddling it
    for scale in (0.5, 10.0):
        axis = rng.normal(size=3)
        twists.append(np.concatenate([[2.0, 1.0, -3.0],
                                      scale * SMALL_ANGLE / period * axis / np.linalg.norm(axis)]))
    for xi in twists:
        pts = rng.normal(scale=30.0, size=(300, 3))
        s = rng.uniform(0.0, 1.0, 300)
        s[:10] = 1.0
        out = deskew(PointCloud(pts, rel_times=s), xi, period)
        want = np.stack([exp_se3((si - 1.0) * period * xi).apply(p) for si, p in zip(s, pts)])
        assert np.abs(out.points - want).max() < 1e-12
        assert out.points[:10].tobytes() == pts[:10].tobytes()


def test_deskew_matches_snapshot_of_spinning_sensor():
    rng = np.random.default_rng(84)
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 0.0, 0.5])
    period = 0.1
    xi = np.concatenate([v, w])
    wall = np.column_stack(
        [np.full(300, 5.0), rng.uniform(-3, 3, 300), rng.uniform(-1, 2, 300)]
    )
    s = rng.uniform(0.0, 1.0, 300)
    s[0] = 1.0
    skewed = np.stack(
        [
            (exp_se3(si * period * xi)).inverse().apply(p)
            for si, p in zip(s, wall)
        ]
    )
    snapshot = exp_se3(period * xi).inverse().apply(wall)
    out = deskew(PointCloud(skewed, rel_times=s), xi, period)
    assert np.abs(out.points - snapshot).max() < 1e-6


def test_deskew_inverts_with_negated_twist():
    rng = np.random.default_rng(85)
    cloud = PointCloud(rng.normal(scale=5.0, size=(200, 3)),
                       rel_times=rng.uniform(0, 1, 200))
    vel = np.array([1.0, -0.5, 0.2, 0.3, 0.2, -0.4])
    back = deskew(deskew(cloud, vel, 0.1), -vel, 0.1)
    assert np.abs(back.points - cloud.points).max() < 1e-9
