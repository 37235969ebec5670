"""Constant-velocity motion model: estimation, prediction, deskewing.

The body-frame velocity at time k is fit by least squares over the relative
motions from the recent pose window: with dt_i = stamp_k - stamp_i and
(R_i, t_i) = pose_i^-1 pose_k, each pair contributes dt_i * v ~ t_i and
dt_i * omega ~ Log(R_i), giving the closed-form minimizer

    v = sum(dt_i t_i) / sum(dt_i^2),   omega = sum(dt_i Log(R_i)) / sum(dt_i^2)

The same twist deskews the following sweep: a point captured at scan
fraction s is carried to the end-of-sweep frame by exp((s - 1) T [v, w]),
so the last-fired point is the anchor and stays put.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import SMALL_ANGLE, Isometry3, PointCloud, exp_se3, log_so3, skew


@dataclass(frozen=True)
class StampedPose:
    pose: Isometry3
    stamp: float


@dataclass(frozen=True)
class VelocityEstimate:
    v: np.ndarray        # m/s, body frame at the window's last pose
    omega: np.ndarray    # rad/s

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float).reshape(3))

    @classmethod
    def zero(cls) -> "VelocityEstimate":
        return cls(np.zeros(3), np.zeros(3))


def estimate_velocity(history: Sequence[StampedPose]) -> VelocityEstimate:
    """Fit the constant body twist explaining the recent pose window.

    Fewer than two poses give zero velocity. Stamps must strictly increase.
    """
    if len(history) < 2:
        return VelocityEstimate.zero()
    stamps = [sp.stamp for sp in history]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("pose stamps must be strictly increasing")
    last = history[-1]
    num_v = np.zeros(3)
    num_w = np.zeros(3)
    den = 0.0
    for sp in history[:-1]:
        dt = last.stamp - sp.stamp
        rel = sp.pose.inverse() @ last.pose
        num_v += dt * rel.translation
        num_w += dt * log_so3(rel.rotation)
        den += dt * dt
    return VelocityEstimate(num_v / den, num_w / den)


def predict_pose(last_pose: Isometry3, vel: VelocityEstimate, dt: float) -> Isometry3:
    """Integrate the body twist forward: pose . exp(dt [v, omega])."""
    return last_pose @ exp_se3(np.concatenate([dt * vel.v, dt * vel.omega]))


def deskew(cloud: PointCloud, vel: VelocityEstimate, scan_period: float) -> PointCloud:
    """Motion-compensate one sweep into its end-of-scan frame.

    The cloud must carry per-point capture fractions (``rel_times``); a
    point at s = 1 is bitwise unchanged by construction.
    """
    # exp(alpha [v, w]) with alpha = (s - 1) T and W = [w]_x, t = |alpha w|:
    # R p + t = p + alpha v + a W p + b (W^2 p + W v) + c W^2 v, where
    # a = alpha sin(t)/t, b = alpha^2 (1 - cos t)/t^2, c = alpha^3 (t - sin t)/t^3
    alpha = (cloud.rel_times - 1.0) * scan_period
    w = skew(vel.omega)
    ww = w @ w
    t = np.abs(alpha) * np.linalg.norm(vel.omega)
    small = t < SMALL_ANGLE
    ts = np.where(small, 1.0, t)  # avoid 0/0; overwritten below for small angles
    sin, t2, a2 = np.sin(ts), ts * ts, alpha * alpha
    a = alpha * np.where(small, 1.0, sin / ts)
    b = a2 * np.where(small, 0.5, (1.0 - np.cos(ts)) / t2)
    c = a2 * alpha * np.where(small, 1.0 / 6.0, (ts - sin) / (t2 * ts))
    p = cloud.points
    pts = p + alpha[:, None] * vel.v
    pts += a[:, None] * (p @ w.T)
    pts += b[:, None] * (p @ ww.T + w @ vel.v)
    pts += c[:, None] * (ww @ vel.v)
    return PointCloud(pts, rel_times=cloud.rel_times)
