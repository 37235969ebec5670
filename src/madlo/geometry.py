"""Minimal 3D geometry kernel: SO(3)/SE(3) maps, rigid transforms, point clouds.

Conventions used across the package:

* points are float64 ndarrays of shape (3,) or (N, 3)
* rotations are 3x3 orthonormal matrices with det +1
* twists are 6-vectors (rho, theta): the translational part comes first,
  matching the column order of registration Jacobians
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# below this angle the closed-form sin/cos coefficients are replaced by
# their Taylor expansions to avoid 0/0
SMALL_ANGLE = 1e-8
# tolerance on ||R^T R - I||_inf when a rotation is taken from user input
ORTHONORMAL_TOL = 1e-6
# compositions between polar re-orthonormalizations of the rotation block
RENORM_PERIOD = 256


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]_x such that skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp_so3(theta: np.ndarray) -> np.ndarray:
    """Rodrigues formula: axis-angle vector to rotation matrix.

    R = I + sin(t)/t [theta]_x + (1 - cos(t))/t^2 [theta]_x^2,  t = ||theta||
    """
    theta = np.asarray(theta, dtype=float)
    t = float(np.linalg.norm(theta))
    w = skew(theta)
    if t < SMALL_ANGLE:
        return np.eye(3) + w + 0.5 * (w @ w)
    return np.eye(3) + (np.sin(t) / t) * w + ((1.0 - np.cos(t)) / (t * t)) * (w @ w)


def _check_rotation(r: np.ndarray) -> None:
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ORTHONORMAL_TOL or np.linalg.det(r) < 0.0:
        raise ValueError(f"matrix is not a rotation (orthonormality error {err:.2e})")


def log_so3(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle vector with norm in [0, pi].

    Rejects non-orthonormal input. Near pi the sin-based formula loses the
    axis, so it is recovered from the dominant column of R + I instead.
    """
    r = np.asarray(r, dtype=float)
    _check_rotation(r)
    cos_t = np.clip((np.trace(r) - 1.0) * 0.5, -1.0, 1.0)
    t = float(np.arccos(cos_t))
    s = _vee(r - r.T) * 0.5  # == sin(t) * axis
    if t < SMALL_ANGLE:
        return s
    if t > np.pi - 1e-4:
        # the symmetric part minus cos(t) I equals (1 - cos(t)) n n^T exactly,
        # so its largest column gives the axis without the O(sin t) noise of
        # the antisymmetric part; the angle is recovered from |sin t| which
        # stays well-conditioned where arccos is not
        b = 0.5 * (r + r.T) - cos_t * np.eye(3)
        col = b[:, int(np.argmax(np.sum(b * b, axis=0)))]
        axis = col / np.linalg.norm(col)
        if np.dot(axis, s) < 0.0:
            axis = -axis
        t = np.pi - float(np.arcsin(np.clip(np.linalg.norm(s), 0.0, 1.0)))
        return t * axis
    return (t / np.sin(t)) * s


class Isometry3:
    """Rigid transform R, t acting on points as R @ p + t.

    Long composition chains re-orthonormalize the rotation block every
    RENORM_PERIOD products (polar projection via SVD) so the orthonormality
    drift stays far below 1e-9.
    """

    __slots__ = ("rotation", "translation", "_age")

    def __init__(self, rotation=None, translation=None, _age: int = 0, _trusted: bool = False):
        r = np.eye(3) if rotation is None else np.array(rotation, dtype=float)
        t = np.zeros(3) if translation is None else np.array(translation, dtype=float).reshape(3)
        if not _trusted:
            _check_rotation(r)
        self.rotation = r
        self.translation = t
        self._age = _age

    @classmethod
    def identity(cls) -> "Isometry3":
        return cls()

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Isometry3") -> "Isometry3":
        r = self.rotation @ other.rotation
        t = self.rotation @ other.translation + self.translation
        age = self._age + other._age + 1
        if age >= RENORM_PERIOD:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
            age = 0
        return Isometry3(r, t, _age=age, _trusted=True)

    def __matmul__(self, other: "Isometry3") -> "Isometry3":
        return self.compose(other)

    def inverse(self) -> "Isometry3":
        rt = self.rotation.T
        return Isometry3(rt, -(rt @ self.translation), _age=self._age, _trusted=True)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or a stack of (N, 3) points."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def __repr__(self) -> str:
        return f"Isometry3(t={np.array2string(self.translation, precision=4)})"


def _v_matrix(theta: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): t of exp_se3 is V(theta) @ rho."""
    t = float(np.linalg.norm(theta))
    w = skew(theta)
    if t < SMALL_ANGLE:
        return np.eye(3) + 0.5 * w + (w @ w) / 6.0
    a = (1.0 - np.cos(t)) / (t * t)
    b = (t - np.sin(t)) / (t * t * t)
    return np.eye(3) + a * w + b * (w @ w)


def exp_se3(xi) -> Isometry3:
    """Twist to rigid transform: R = exp(theta), t = V(theta) @ rho."""
    v = np.asarray(xi, dtype=float).reshape(6)
    rho, theta = v[:3], v[3:]
    r = exp_so3(theta)
    return Isometry3(r, _v_matrix(theta) @ rho, _trusted=True)


@dataclass(frozen=True)
class PointCloud:
    """Sensor-frame point set, optionally tagged with per-point scan fractions.

    rel_times[i] in [0, 1] is the fraction of the scan period at which point
    i was captured (1 = end of sweep).
    """

    points: np.ndarray
    rel_times: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN/Inf")
        object.__setattr__(self, "points", pts)
        if self.rel_times is not None:
            rt = np.asarray(self.rel_times, dtype=float).reshape(-1)
            if rt.shape[0] != pts.shape[0]:
                raise ValueError("rel_times length must match points")
            if not ((rt >= 0.0) & (rt <= 1.0)).all():  # NaN fails both
                raise ValueError("rel_times must lie in [0, 1]")
            object.__setattr__(self, "rel_times", rt)

    def __len__(self) -> int:
        return self.points.shape[0]


def eig_sym3_batch(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a (N,3,3) stack of symmetric matrices.

    Eigenvalues come out ascending. Eigenvector columns are sign-normalized
    (largest-magnitude component positive) so repeated decompositions are
    reproducible.
    """
    vals, vecs = np.linalg.eigh(ms)
    idx = np.argmax(np.abs(vecs), axis=1)  # (N,3) row of max |component| per column
    picked = np.take_along_axis(vecs, idx[:, None, :], axis=1)[:, 0, :]
    flip = np.where(picked < 0.0, -1.0, 1.0)
    return vals, vecs * flip[:, None, :]
