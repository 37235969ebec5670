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

# below this angle log_so3 returns the sine vector as the angle, and
# so3_series its limits (1, 1/2, 1/6) to the last bit
SMALL_ANGLE = 1e-8
# below this angle so3_series takes Taylor series: its closed forms cancel,
# losing about 3e-16 / t^2 of (1 - cos t) and (t - sin t), while the series
# terms it drops (t^6 / 7!) stay under a rounding step
SERIES_ANGLE = 1e-3
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


def so3_series(t):
    """The coefficients of the SO(3)/SE(3) exponential at angles ``t``.

    Elementwise (sin t / t, (1 - cos t) / t^2, (t - sin t) / t^3); below
    SERIES_ANGLE their Taylor series to the t^4 term, so t = 0 never divides.
    """
    t = np.asarray(t, dtype=float)
    series = t < SERIES_ANGLE
    ts = np.where(series, 1.0, t)  # avoid 0/0; overwritten below for small angles
    sin, t2 = np.sin(ts), ts * ts
    s2 = np.where(series, t * t, 0.0)
    return (np.where(series, 1.0 - s2 / 6.0 * (1.0 - s2 / 20.0), sin / ts),
            np.where(series, 0.5 - s2 / 24.0 * (1.0 - s2 / 30.0), (1.0 - np.cos(ts)) / t2),
            np.where(series, 1.0 / 6.0 - s2 / 120.0 * (1.0 - s2 / 42.0),
                     (ts - sin) / (t2 * ts)))


def _check_rotation(r: np.ndarray) -> None:
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    # every comparison with NaN is False, and det of a NaN matrix warns
    if not np.isfinite(r).all():
        raise ValueError("rotation has a non-finite entry")
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

    def __matmul__(self, other: "Isometry3") -> "Isometry3":
        r = self.rotation @ other.rotation
        t = self.rotation @ other.translation + self.translation
        age = self._age + other._age + 1
        if age >= RENORM_PERIOD:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
            age = 0
        return Isometry3(r, t, _age=age, _trusted=True)

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


def exp_se3(xi) -> Isometry3:
    """Twist (rho, theta) to rigid transform R, V rho, where W = [theta]_x,
    (a, b, c) = so3_series(|theta|) and

    R = I + a W + b W^2,   V = I + b W + c W^2
    """
    v = np.asarray(xi, dtype=float).reshape(6)
    rho, theta = v[:3], v[3:]
    a, b, c = so3_series(np.linalg.norm(theta))
    w = skew(theta)
    ww = w @ w
    r = np.eye(3) + a * w + b * ww
    return Isometry3(r, (np.eye(3) + b * w + c * ww) @ rho, _trusted=True)


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


# eig_sym3 scales each matrix to a largest entry in [0.5, 1); there, a matrix
# whose deviatoric part A - tr(A)/3 I has a root mean square entry below this
# is a multiple of the identity, and a pair of eigenvalues less than twice
# this apart is repeated
REPEATED_TOL = 1e-12


def eig_sym3(m: np.ndarray) -> np.ndarray:
    """Closed-form eigenvectors of F symmetric 3x3 matrices.

    ``m`` is (6, F): the rows xx, xy, xz, yy, yz, zz. Returns the eigenvectors
    as (3, 3, F): ``vecs[j]`` belongs to the j-th smallest eigenvalue and
    holds one row per axis.

    The eigenvalues are trigonometric (Smith 1961). The end eigenvalue
    (smallest or largest) that lies farther from the middle one is accurate,
    and its eigenvector is the longest of the three cross products of rows
    of A - lambda I, the columns of its adjugate (Kopp, arXiv
    physics/0610206). The other two eigenvectors diagonalize A restricted to
    the plane normal to it, in a fixed basis of that plane: the axis least
    aligned with the first vector, made orthogonal to it, and their cross
    product. Near a repeated eigenvalue that keeps the accuracy of LAPACK's
    ``eigh``, which the trigonometric value of the repeated pair does not
    have, and a repeated pair gets the fixed basis. A multiple of the
    identity, the zero matrix included, gets the identity basis, as from
    ``eigh``. Every vector is sign-normalized (largest-magnitude component
    positive) so repeated decompositions agree.
    """
    m = np.asarray(m, dtype=float)
    # scaling by a power of two is exact, and with the largest entry in
    # [0.5, 1) no product below overflows or underflows
    _, e = np.frexp(np.abs(m).max(axis=0))
    xx, xy, xz, yy, yz, zz = np.ldexp(m, -e)
    # B = A - q I has the eigenvectors of A and eigenvalues 2 p cos(...)
    q = (xx + yy + zz) / 3.0
    a, d, g = xx - q, yy - q, zz - q
    p = np.sqrt((a * a + d * d + g * g + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    det = a * (d * g - yz * yz) - xy * (xy * g - yz * xz) + xz * (xy * yz - d * xz)
    r = np.clip(det / np.maximum(2.0 * p * p * p, np.finfo(float).tiny), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    # phi in [0, pi/3]: below pi/6 the largest eigenvalue is the farther end
    upper = phi < np.pi / 6.0
    lam = 2.0 * p * np.cos(np.where(upper, phi, phi + 2.0 * np.pi / 3.0))

    ma, md, mg = a - lam, d - lam, g - lam
    a01, a02, a12 = xz * yz - xy * mg, xy * yz - xz * md, xy * xz - ma * yz
    cols = np.array([[md * mg - yz * yz, a01, a02],
                     [a01, ma * mg - xz * xz, a12],
                     [a02, a12, ma * md - xy * xy]])  # (column, axis, F)
    sq = np.einsum("ckf,ckf->cf", cols, cols)
    best = np.argmax(sq, axis=0)
    u = np.take_along_axis(cols, best[None, None], axis=0)[0]
    iso = p <= REPEATED_TOL
    u /= np.sqrt(np.where(iso, 1.0, np.take_along_axis(sq, best[None], axis=0)[0]))

    # the axis with the smallest |component| of u is at most 1/sqrt(3) along
    # it, so what is left of it after removing u is never short
    k = np.argmin(np.abs(u), axis=0)
    s = np.eye(3)[:, k] - np.take_along_axis(u, k[None], axis=0) * u
    s /= np.sqrt(np.einsum("kf,kf->f", s, s))
    t = np.array([u[1] * s[2] - u[2] * s[1], u[2] * s[0] - u[0] * s[2], u[0] * s[1] - u[1] * s[0]])
    bs = np.array([a * s[0] + xy * s[1] + xz * s[2],
                   xy * s[0] + d * s[1] + yz * s[2],
                   xz * s[0] + yz * s[1] + g * s[2]])
    b11 = np.einsum("kf,kf->f", s, bs)
    b12 = np.einsum("kf,kf->f", t, bs)
    b22 = (a * t[0] + 2.0 * (xy * t[1] + xz * t[2])) * t[0] + (d * t[1] + 2.0 * yz * t[2]) * t[1] \
        + g * t[2] * t[2]
    # the Jacobi rotation that diagonalizes [[b11, b12], [b12, b22]], whose
    # eigenvalues are (b11 + b22) / 2 -+ rad; a repeated pair keeps (s, t)
    rad = np.hypot(0.5 * (b11 - b22), b12)
    theta = np.where(rad > REPEATED_TOL, 0.5 * np.arctan2(2.0 * b12, b11 - b22), 0.0)
    cos, sin = np.cos(theta), np.sin(theta)
    big, small = cos * s + sin * t, cos * t - sin * s
    vecs = np.array([np.where(upper, small, u), np.where(upper, big, small), np.where(upper, u, big)])
    vecs[:, :, iso] = np.eye(3)[:, :, None]
    # sign rule: the first component of largest magnitude is positive
    ax, ay, az = np.abs(vecs[:, 0]), np.abs(vecs[:, 1]), np.abs(vecs[:, 2])
    picked = np.where((ax >= ay) & (ax >= az), vecs[:, 0], np.where(ay >= az, vecs[:, 1], vecs[:, 2]))
    vecs *= np.where(picked < 0.0, -1.0, 1.0)[:, None]
    return vecs
