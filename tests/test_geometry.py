"""Geometry kernel tests.

Oracles here are deliberately independent of the implementation: rotations
are cross-checked through quaternions, the twist-translation coupling through
numeric quadrature of the rotation integral.
"""
from __future__ import annotations

import numpy as np
import pytest

from madlo.geometry import (
    Isometry3,
    PointCloud,
    eig_sym3,
    exp_se3,
    exp_so3,
    log_so3,
    skew,
)


# ---------------------------------------------------------------- oracles


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def rot_from_quat(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rot(r: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the most stable of the four extractions
    tr = np.trace(r)
    cand = [tr, r[0, 0], r[1, 1], r[2, 2]]
    k = int(np.argmax(cand))
    if k == 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
    elif k == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
    elif k == 2:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
    return np.array(q)


def axis_angle_from_quat(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    vn = np.linalg.norm(q[1:])
    if vn < 1e-300:
        return np.zeros(3)
    return 2.0 * np.arctan2(vn, q[0]) * q[1:] / vn


def v_matrix_quadrature(theta: np.ndarray, steps: int = 20001) -> np.ndarray:
    """V(theta) = integral over s in [0,1] of exp(s * theta), via Simpson."""
    s = np.linspace(0.0, 1.0, steps)
    samples = np.stack([rot_from_quat(quat_from_axis_angle(theta, si * np.linalg.norm(theta)))
                        if np.linalg.norm(theta) > 0 else np.eye(3) for si in s])
    w = np.ones(steps)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (s[1] - s[0]) / 3.0
    return h * np.einsum("n,nij->ij", w, samples)


# ------------------------------------------------------------- exp / log


def test_exp_se3_zero_twist_is_identity():
    x = exp_se3(np.zeros(6))
    assert np.array_equal(x.rotation, np.eye(3))
    assert np.array_equal(x.translation, np.zeros(3))


def test_exp_so3_quarter_turn_about_z():
    r = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(r - expected).max() < 1e-12


def test_exp_so3_matches_quaternion_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, np.pi)
        r = exp_so3(angle * axis)
        r_oracle = rot_from_quat(quat_from_axis_angle(axis, angle))
        assert np.abs(r - r_oracle).max() < 1e-12


def test_exp_se3_translation_matches_quadrature_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho = rng.normal(size=3)
        theta = rng.normal(size=3)
        theta *= rng.uniform(0.3, 2.5) / np.linalg.norm(theta)
        t = exp_se3(np.concatenate([rho, theta])).translation
        t_oracle = v_matrix_quadrature(theta) @ rho
        assert np.abs(t - t_oracle).max() < 1e-9


def test_log_so3_identity_is_zero():
    assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))


def test_log_so3_quarter_turn():
    r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(log_so3(r) - np.array([0.0, 0.0, np.pi / 2])).max() < 1e-12


def test_log_so3_near_pi_matches_quaternion_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = np.pi - 1e-6
        r = rot_from_quat(quat_from_axis_angle(axis, angle))
        got = log_so3(r)
        want = axis_angle_from_quat(quat_from_rot(r))
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() < 1e-6
        assert abs(np.linalg.norm(got) - angle) < 1e-6


def test_log_so3_rejects_non_orthonormal():
    r = np.eye(3)
    r[0, 1] = 1e-3
    with pytest.raises(ValueError):
        log_so3(r)


# ------------------------------------------------------------- Isometry3


def test_isometry_apply_matches_homogeneous_matrix():
    rng = np.random.default_rng(16)
    x = exp_se3(rng.normal(size=6))
    pts = rng.normal(size=(50, 3))
    hom = np.hstack([pts, np.ones((50, 1))]) @ x.matrix().T
    assert np.abs(x.apply(pts) - hom[:, :3]).max() < 1e-12
    assert np.abs(x.apply(pts[0]) - hom[0, :3]).max() < 1e-12


def test_isometry_inverse_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = exp_se3(rng.normal(size=6))
        y = x @ x.inverse()
        assert np.abs(y.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(y.translation).max() < 1e-12


def test_isometry_rejects_non_rotation():
    with pytest.raises(ValueError):
        Isometry3(np.eye(3) * 1.001)
    # every comparison with NaN is False, so a NaN entry needs its own check
    for bad in (np.nan, np.inf):
        r = np.eye(3)
        r[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Isometry3(r)


def test_long_composition_chain_stays_orthonormal():
    step = exp_se3(np.array([0.01, -0.02, 0.003, 0.01, 0.02, -0.015]))
    x = Isometry3.identity()
    for _ in range(10000):
        x = x @ step
    assert np.abs(x.rotation.T @ x.rotation - np.eye(3)).max() < 1e-9


# ------------------------------------------------------------------ eigen


def pack(ms: np.ndarray) -> np.ndarray:
    """(F, 3, 3) symmetric matrices as the (6, F) rows xx, xy, xz, yy, yz, zz."""
    return np.stack([ms[:, 0, 0], ms[:, 0, 1], ms[:, 0, 2], ms[:, 1, 1], ms[:, 1, 2], ms[:, 2, 2]])


def random_rotations(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[:, :, 0] *= np.linalg.det(q)[:, None]
    return q


def check_eig_sym3(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_sym3 on (F, 3, 3) matrices against LAPACK's eigh; returns the
    eigenvalues (F, 3) and the eigenvectors as matrix columns (F, 3, 3)."""
    vals, vecs = eig_sym3(pack(ms))
    vals, vecs = vals.T, vecs.transpose(2, 1, 0)
    assert np.isfinite(vals).all() and np.isfinite(vecs).all()
    ref_vals, ref_vecs = np.linalg.eigh(ms)
    lmax = np.abs(ref_vals).max(axis=1)
    assert (vals[:, 0] <= vals[:, 1]).all() and (vals[:, 1] <= vals[:, 2]).all()
    assert (np.abs(vals - ref_vals).max(axis=1) <= 1e-12 * lmax).all()
    assert np.abs(vecs.transpose(0, 2, 1) @ vecs - np.eye(3)).max() < 1e-12
    residual = ms @ vecs - vecs * vals[:, None, :]
    assert (np.abs(residual).max(axis=(1, 2)) <= 1e-8 * lmax).all()
    # sign rule: the first largest-magnitude component of each vector is positive
    k = np.argmax(np.abs(vecs), axis=1)
    assert (np.take_along_axis(vecs, k[:, None, :], axis=1) > 0.0).all()
    # an end vector is defined where its eigenvalue stands apart
    gaps = np.diff(ref_vals, axis=1)
    cos = np.abs(np.einsum("fkj,fkj->fj", vecs, ref_vecs))
    for j, gap in ((0, gaps[:, 0]), (2, gaps[:, 1])):
        apart = gap > 1e-4 * lmax
        assert (1.0 - cos[apart, j] <= 1e-12).all()
    return vals, vecs


def test_eig_sym3_diagonal_case():
    vals, vecs = check_eig_sym3(np.diag([3.0, 1.0, 2.0])[None])
    assert np.abs(vals[0] - [1.0, 2.0, 3.0]).max() < 1e-12
    # the smallest eigenvalue belongs to the y axis; sign normalization makes it +e_y
    assert np.abs(vecs[0] - [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).max() < 1e-12


def test_eig_sym3_reconstruction_and_order():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(200, 3, 3))
    psd = rng.random(200) < 0.7
    ms = np.where(psd[:, None, None], a @ a.transpose(0, 2, 1), 0.5 * (a + a.transpose(0, 2, 1)))
    vals, vecs = check_eig_sym3(ms)
    # V diag(vals) V^T gives the matrix back
    assert np.abs((vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1) - ms).max() < 1e-12 * np.abs(ms).max()


def test_eig_sym3_batch_matches_scalar():
    # each matrix of a batch against LAPACK on that matrix alone
    rng = np.random.default_rng(20)
    a = rng.normal(size=(40, 3, 3))
    ms = a @ a.transpose(0, 2, 1)
    vals, vecs = check_eig_sym3(ms)
    for i in range(40):
        v1, w1 = np.linalg.eigh(ms[i])
        w1 *= np.where(w1[np.argmax(np.abs(w1), axis=0), [0, 1, 2]] < 0.0, -1.0, 1.0)
        assert np.abs(vals[i] - v1).max() < 1e-12
        assert np.abs(vecs[i] - w1).max() < 1e-12


def test_eig_sym3_zero_and_multiples_of_identity_get_identity_basis():
    ms = np.array([np.zeros((3, 3)), 2.5 * np.eye(3), 1e-30 * np.eye(3)])
    vals, vecs = check_eig_sym3(ms)
    assert np.array_equal(vecs, np.broadcast_to(np.eye(3), (3, 3, 3)))
    assert np.array_equal(vals, [[0.0] * 3, [2.5] * 3, [1e-30] * 3])
    # what LAPACK gives for these, so one-point nodes keep their basis
    assert np.array_equal(np.linalg.eigh(np.zeros((3, 3)))[1], np.eye(3))


def test_eig_sym3_rank_deficient_and_repeated():
    rng = np.random.default_rng(22)
    r = random_rotations(rng, 400)
    scale = rng.uniform(1e-4, 1e2, size=(400, 1, 1))
    for diag in ([0.0, 0.0, 1.0], [0.0, 1.0, 3.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]):
        ms = scale * (r * diag) @ r.transpose(0, 2, 1)
        vals, vecs = check_eig_sym3(ms)
        assert np.abs(vals - scale[:, :, 0] * diag).max(axis=1).max() <= 1e-12 * scale.max()
    # the rank-1 and the repeated ones: the single end lies along its axis
    for diag, j in (([0.0, 0.0, 1.0], 2), ([1.0, 1.0, 2.0], 2), ([1.0, 2.0, 2.0], 0)):
        vecs = check_eig_sym3((r * diag) @ r.transpose(0, 2, 1))[1]
        assert (1.0 - np.abs(np.einsum("fk,fk->f", vecs[:, :, j], r[:, :, j])) <= 1e-12).all()


def test_eig_sym3_covariances_far_from_origin():
    # point sets 100 m out, as a scan's nodes are: volumes, planes, lines, pairs
    rng = np.random.default_rng(23)
    ms = []
    for _ in range(300):
        n = int(rng.integers(2, 40))
        spread = rng.uniform(1e-3, 1.0, size=3) * (rng.random(3) < 0.8)
        pts = (rng.normal(size=(n, 3)) * spread) @ random_rotations(rng, 1)[0].T
        pts += rng.uniform(-100.0, 100.0, size=3) + 100.0
        d = pts - pts.mean(axis=0)
        ms.append(d.T @ d / n)
    check_eig_sym3(np.array(ms))


def test_eig_sym3_scales_by_powers_of_two_exactly():
    # no overflow or underflow at the ends of the float range
    rng = np.random.default_rng(24)
    a = rng.normal(size=(50, 3, 3))
    ms = pack(a @ a.transpose(0, 2, 1))
    vals, vecs = eig_sym3(ms)
    for e in (-900, -300, 300, 900):
        v, w = eig_sym3(np.ldexp(ms, e))
        assert np.array_equal(w, vecs) and np.array_equal(v, np.ldexp(vals, e))


def test_skew_matches_cross_product():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.abs(skew(a) @ b - np.cross(a, b)).max() < 1e-12


# ------------------------------------------------------------ PointCloud


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), rel_times=np.array([0.0]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), rel_times=np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((2, 3)), rel_times=np.array([np.nan, 0.5]))
    cloud = PointCloud(np.zeros((4, 3)), rel_times=np.linspace(0.0, 1.0, 4))
    assert len(cloud) == 4
