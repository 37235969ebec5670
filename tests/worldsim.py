"""Synthetic planar worlds and scan sampling shared across the test suite.

Scenes are lists of rectangular panels (origin, u, v, u_len, v_len). Scans
sample panel surfaces area-weighted, crop to sensor range, and express the
points in the sensor frame, mimicking an idealized noise-free LiDAR.
"""
from __future__ import annotations

import numpy as np

from madlo.geometry import Isometry3, PointCloud, exp_se3


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def panel(origin, u, v, u_len, v_len):
    return (np.asarray(origin, dtype=float), _unit(u), _unit(v), float(u_len), float(v_len))


def sample_panels(rng: np.random.Generator, panels, n: int) -> np.ndarray:
    """n surface points distributed over the panels proportionally to area."""
    areas = np.array([ul * vl for (_, _, _, ul, vl) in panels])
    counts = rng.multinomial(n, areas / areas.sum())
    chunks = []
    for (origin, u, v, ul, vl), c in zip(panels, counts):
        if c == 0:
            continue
        a = rng.uniform(0.0, ul, size=c)
        b = rng.uniform(0.0, vl, size=c)
        chunks.append(origin + a[:, None] * u + b[:, None] * v)
    return np.vstack(chunks) if chunks else np.zeros((0, 3))


def big_room_panels(size: float = 60.0, height: float = 8.0):
    """Three mutually orthogonal walls plus a floor, tens of meters across."""
    ex, ey, ez = np.eye(3)
    return [
        panel([0, 0, 0], ey, ez, size, height),       # wall x = 0
        panel([0, 0, 0], ex, ez, size, height),       # wall y = 0
        panel([0, 0, height], ex, ey, size, size),    # ceiling z = height
        panel([0, 0, 0], ex, ey, size, size),         # floor z = 0
    ]


def room_cloud(rng: np.random.Generator, n: int = 12000, size: float = 60.0,
               height: float = 8.0) -> np.ndarray:
    return sample_panels(rng, big_room_panels(size, height), n)


def corridor_panels(length: float = 80.0, half_width: float = 3.0, height: float = 3.0,
                    fin_every: float = 6.0, fin_depth: float = 1.2):
    """Long corridor: floor, two side walls, and transverse fins that pin the
    along-axis direction (pure infinite planes would leave it unobservable)."""
    ex, ey, ez = np.eye(3)
    panels = [
        panel([0, -half_width, 0], ex, ey, length, 2 * half_width),      # floor
        panel([0, -half_width, 0], ex, ez, length, height),              # wall y = -w
        panel([0, +half_width, 0], ex, ez, length, height),              # wall y = +w
    ]
    x = fin_every
    while x < length:
        panels.append(panel([x, -half_width, 0], ey, ez, fin_depth, height))
        panels.append(panel([x, half_width - fin_depth, 0], ey, ez, fin_depth, height))
        x += fin_every
    return panels


def floor_only_panels(length: float = 80.0, half_width: float = 3.0):
    ex, ey, _ = np.eye(3)
    return [panel([0, -half_width, 0], ex, ey, length, 2 * half_width)]


def scan_cloud(rng: np.random.Generator, panels, pose: Isometry3, n: int = 2500,
               max_range: float = 30.0) -> PointCloud:
    """Sensor-frame point cloud of the world seen from ``pose``."""
    pts = sample_panels(rng, panels, int(n * 1.6))
    keep = np.linalg.norm(pts - pose.translation, axis=1) <= max_range
    pts = pts[keep]
    if len(pts) > n:
        # sample_panels returns points grouped by panel; a plain [:n] would
        # systematically drop the trailing panels, not thin the scan.
        pts = pts[rng.choice(len(pts), size=n, replace=False)]
    return PointCloud(pose.inverse().apply(pts))


def random_small_isometry(rng: np.random.Generator, max_angle_deg: float,
                          max_translation: float) -> Isometry3:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(0.0, max_angle_deg))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = rng.uniform(0.0, max_translation) * direction
    return Isometry3(exp_se3(np.r_[0.0, 0.0, 0.0, angle * axis]).rotation, t)


def rotation_angle_deg(r: np.ndarray) -> float:
    c = np.clip((np.trace(r) - 1.0) * 0.5, -1.0, 1.0)
    return float(np.rad2deg(np.arccos(c)))
