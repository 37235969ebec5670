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

from .geometry import Isometry3, PointCloud, exp_se3, log_so3, skew, so3_series


@dataclass(frozen=True)
class StampedPose:
    pose: Isometry3
    stamp: float


def estimate_velocity(history: Sequence[StampedPose]) -> np.ndarray:
    """Fit the constant body twist [v, omega] explaining the recent pose window.

    Fewer than two poses give the zero twist. Stamps must strictly increase.
    """
    if len(history) < 2:
        return np.zeros(6)
    stamps = [sp.stamp for sp in history]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise ValueError("pose stamps must be strictly increasing")
    last = history[-1]
    num = np.zeros(6)
    den = 0.0
    for sp in history[:-1]:
        dt = last.stamp - sp.stamp
        rel = sp.pose.inverse() @ last.pose
        num[:3] += dt * rel.translation
        num[3:] += dt * log_so3(rel.rotation)
        den += dt * dt
    return num / den


def predict_pose(last_pose: Isometry3, twist: np.ndarray, dt: float) -> Isometry3:
    """Integrate the body twist forward: pose . exp(dt [v, omega])."""
    return last_pose @ exp_se3(dt * twist)


def deskew(cloud: PointCloud, twist: np.ndarray, scan_period: float) -> PointCloud:
    """Motion-compensate one sweep into its end-of-scan frame by the body
    twist [v, omega].

    The cloud must carry per-point capture fractions (``rel_times``); a
    point at s = 1 is bitwise unchanged by construction.
    """
    # exp(alpha [v, w]) with alpha = (s - 1) T and W = [w]_x, t = |alpha w|:
    # R p + t = p + alpha v + a W p + b (W^2 p + W v) + c W^2 v, where
    # a = alpha sin(t)/t, b = alpha^2 (1 - cos t)/t^2, c = alpha^3 (t - sin t)/t^3
    v, omega = twist[:3], twist[3:]
    alpha = (cloud.rel_times - 1.0) * scan_period
    w = skew(omega)
    ww = w @ w
    a, b, c = so3_series(np.abs(alpha) * np.linalg.norm(omega))
    a2 = alpha * alpha
    a, b, c = alpha * a, a2 * b, a2 * alpha * c
    p = cloud.points
    pts = p + alpha[:, None] * v
    pts += a[:, None] * (p @ w.T)
    pts += b[:, None] * (p @ ww.T + w @ v)
    pts += c[:, None] * (ww @ v)
    return PointCloud(pts, rel_times=cloud.rel_times)
