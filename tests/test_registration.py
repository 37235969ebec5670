"""Registration tests: gating, residual/Jacobian, and full ICP behavior."""
from __future__ import annotations

import math

import numpy as np
import pytest

from madlo import registration
from madlo.geometry import Isometry3, exp_se3
from madlo.madtree import KdTree, TreeParams, build_tree, transform_tree
from madlo.registration import (
    DegenerateRegistrationError,
    RegistrationParams,
    _accumulate,
    _LeafCache,
    associate,
    gate_radius,
    huber_weight,
    icp,
    point_to_plane,
)
from worldsim import random_small_isometry, room_cloud, rotation_angle_deg


def oracle_path(tree, q):
    """Nodes from the root to the leaf that ``q`` descends to."""
    path = [0]
    while tree.left[path[-1]] >= 0:
        i = path[-1]
        go_right = np.dot(tree.directions[i], q - tree.mus[i]) > 0.0
        path.append(int(tree.left[i]) + go_right)
    return path


@pytest.fixture(scope="module")
def room():
    rng = np.random.default_rng(51)
    pts = room_cloud(rng, 12000)
    return pts, build_tree(pts)


# ------------------------------------------------------------ primitives


def test_gate_radius_values():
    mu_q = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
    assert gate_radius(mu_q, 0.2, 0.02) == pytest.approx([0.2, 0.4, 2.2])


def test_huber_weight_values():
    assert huber_weight(0.05, 0.1) == pytest.approx(1.0)
    assert huber_weight(0.1, 0.1) == pytest.approx(1.0)
    assert huber_weight(0.2, 0.1) == pytest.approx(0.5)
    assert huber_weight(-0.2, 0.1) == pytest.approx(0.5)
    # the edges are exact: 1 at zero and at the kernel width, 0 at infinity
    e = np.array([0.0, -0.0, 0.1, -0.1, np.inf, -np.inf])
    assert huber_weight(e, 0.1).tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]


def valid_leaf_mus(tree):
    return tree.leaf_mus()[tree.leaf_valid()]


def land(tree, wq):
    """Leaf ids of the queries and those leaves' centroids, normals and validity."""
    ids = tree.descend(wq)
    return ids, tree.mus[ids], tree.normals[ids], tree.valid[ids]


def test_associate_identity_self_match(room):
    pts, tree = room
    scan = build_tree(pts)
    mus_q = valid_leaf_mus(scan)[::50]
    _, mu_l, _, valid = land(tree, mus_q)
    acc = associate(mus_q, gate_radius(mus_q, 0.2, 0.02), mu_l, valid)
    assert acc.all()
    assert np.abs(mu_l - mus_q).max() < 1e-12


def test_associate_rejects_far_query(room):
    pts, tree = room
    scan = build_tree(pts)
    mus_q = valid_leaf_mus(scan)[:1]
    wq = mus_q + np.array([500.0, 0.0, 0.0])
    _, mu_l, _, valid = land(tree, wq)
    acc = associate(wq, gate_radius(mus_q, 0.2, 0.02), mu_l, valid)
    assert not acc.any()


def test_associate_matches_brute_replay(room):
    pts, tree = room
    rng = np.random.default_rng(52)
    scan = build_tree(pts)
    params = RegistrationParams()
    leaves = valid_leaf_mus(scan)
    pick = rng.choice(len(leaves), size=500, replace=False)
    pose = random_small_isometry(rng, 3.0, 0.3)
    mus_q = leaves[pick]
    wq = pose.apply(mus_q)
    ids, mu_l, _, valid = land(tree, wq)
    acc = associate(wq, gate_radius(mus_q, 0.2, params.b_ratio), mu_l, valid)
    for k in range(len(pick)):
        want_idx = oracle_path(tree, wq[k])[-1]
        r = 0.2 + np.linalg.norm(mus_q[k]) * params.b_ratio
        want_acc = bool(tree.valid[want_idx]) and np.linalg.norm(tree.mus[want_idx] - wq[k]) <= r
        assert ids[k] == want_idx
        assert acc[k] == want_acc


def test_residual_zero_at_coincidence(room):
    pts, tree = room
    valid = tree.leaf_valid()
    mu, normal = tree.leaf_mus()[valid][:1], tree.normals[tree.leaf_ids][valid][:1]
    e, jac = point_to_plane(mu, mu, normal)
    assert abs(e[0]) < 1e-12
    assert np.abs(jac[0, :3] - normal[0]).max() < 1e-12


def test_residual_hand_case():
    # model leaf: plane through origin with normal +x; query 0.3 m off-plane
    pts_m = np.array([[0.0, y, z] for y in (0.0, 0.05, 0.1) for z in (0.0, 0.05, 0.1)])
    model = build_tree(pts_m)
    pts_q = pts_m + np.array([0.3, 0.0, 0.0])
    query = build_tree(pts_q)
    _, mu_l, n_l, _ = land(model, query.mus[:1])
    e, jac = point_to_plane(query.mus[:1], mu_l, n_l)
    assert e[0] == pytest.approx(0.3, abs=1e-12)
    assert np.abs(jac[0, :3] - np.array([1.0, 0.0, 0.0])).max() < 1e-9


def test_jacobian_matches_central_differences(room):
    pts, tree = room
    rng = np.random.default_rng(53)
    valid = tree.leaf_valid()
    mus, normals = tree.leaf_mus()[valid], tree.normals[tree.leaf_ids][valid]
    step = 1e-6
    q = mus[rng.integers(len(mus), size=300)]
    m = rng.integers(len(mus), size=300)
    mu_l, n_l = mus[m], normals[m]
    poses = [random_small_isometry(rng, 20.0, 2.0) for _ in range(300)]

    def residuals(deltas):
        wq = np.array([(exp_se3(d) @ x).apply(p) for d, x, p in zip(deltas, poses, q)])
        return point_to_plane(wq, mu_l, n_l)

    _, jac = residuals(np.zeros((300, 6)))
    fd = np.zeros((300, 6))
    for k in range(6):
        d = np.zeros((300, 6))
        d[:, k] = step
        fd[:, k] = (residuals(d)[0] - residuals(-d)[0]) / (2.0 * step)
    for i in range(300):
        assert np.linalg.norm(fd[i] - jac[i]) < 1e-5 * max(1.0, np.linalg.norm(jac[i]))


def test_point_to_plane_matches_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(65)
    wq = rng.uniform(-80.0, 80.0, size=(500, 3))
    mu_l = wq + rng.normal(scale=0.1, size=(500, 3))
    n_l = rng.normal(size=(500, 3))
    n_l /= np.linalg.norm(n_l, axis=1)[:, None]
    want = np.hstack([n_l, np.cross(wq, n_l)])
    e, jac = point_to_plane(wq, mu_l, n_l)
    assert jac.tobytes() == want.tobytes()
    assert e.tobytes() == np.einsum("ni,ni->n", n_l, wq - mu_l).tobytes()
    buf = np.full((600, 6), np.nan)
    _, into = point_to_plane(wq, mu_l, n_l, buf[:500])
    assert np.shares_memory(into, buf) and into.tobytes() == want.tobytes()


def test_accumulate_matches_per_row_fsum_oracle():
    """H and b against per-row exact sums over the accepted pairs: each entry
    within 1e-12 of the sum of its terms' magnitudes; no accepted row gives
    exact zeros."""
    rng = np.random.default_rng(69)
    n, rho = 700, 0.1
    wq = rng.uniform(-60.0, 60.0, size=(n, 3))
    mu_l = wq + rng.normal(scale=0.15, size=(n, 3))
    n_l = rng.normal(size=(n, 3))
    n_l /= np.linalg.norm(n_l, axis=1)[:, None]
    radii = rng.uniform(0.1, 0.4, size=n)
    valid = rng.random(n) < 0.8
    jac = np.full((n, 6), np.nan)
    h, b, acc, cost = _accumulate(wq, radii, mu_l, n_l, valid, jac, rho)
    rows, kept = [], []
    for k in range(n):
        diff = [float(x) - float(y) for x, y in zip(wq[k], mu_l[k])]
        if not (valid[k] and math.sqrt(math.fsum(x * x for x in diff)) <= radii[k]):
            continue
        nk, qk = [float(x) for x in n_l[k]], [float(x) for x in wq[k]]
        e = math.fsum(x * y for x, y in zip(nk, diff))
        cross = [qk[1] * nk[2] - qk[2] * nk[1], qk[2] * nk[0] - qk[0] * nk[2],
                 qk[0] * nk[1] - qk[1] * nk[0]]
        w = 1.0 if abs(e) <= rho else rho / abs(e)
        rows.append((nk + cross, w, e))
        kept.append(k)
    assert 0 < len(kept) < n and np.array_equal(np.flatnonzero(acc), kept)
    for i in range(6):
        terms = [j[i] * w * e for j, w, e in rows]
        assert abs(b[i] - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
        for j in range(6):
            terms = [w * r[i] * r[j] for r, w, _ in rows]
            assert abs(h[i, j] - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
    assert cost == pytest.approx(math.fsum(
        0.5 * e * e if abs(e) <= rho else rho * (abs(e) - 0.5 * rho) for _, _, e in rows),
        rel=1e-12)
    h, b, acc, cost = _accumulate(wq, radii, mu_l, n_l, np.zeros(n, dtype=bool), jac, rho)
    assert not acc.any() and cost == 0.0
    assert h.shape == (6, 6) and b.shape == (6,) and not h.any() and not b.any()


# ------------------------------------------------------ forest and cache


def assert_cache_is_full_descent(cache, model, wq):
    for t, tree in enumerate(model):
        ids = tree.descend(wq)
        assert cache.mu_l[t].tobytes() == tree.mus[ids].tobytes()
        assert cache.n_l[t].tobytes() == tree.normals[ids].tobytes()
        assert np.array_equal(cache.valid[t], tree.valid[ids])




def test_leaf_cache_matches_full_descent():
    """Over random forests and rigid motion sequences the cached leaves and
    their landing data are those of a full descent and gather, bit for bit:
    zero steps, shrinking random motions, translations that put a query
    within 1e-12 m of a split plane on its path, and queries that start
    exactly on interior centroids; the last forest sits 1e4 m from the
    origin, where the slack, which scales with the largest coordinate, is
    widest."""
    rng = np.random.default_rng(62)
    for i in range(4):
        model = [build_tree(room_cloud(rng, n, size=20.0)) for n in (3000, 600, 3000)]
        for tree in model[1:]:
            transform_tree(tree, random_small_isometry(rng, 2.0, 0.3))
        offset = np.full(3, 1e4 if i == 3 else 0.0)
        if i == 3:
            for tree in model:
                transform_tree(tree, Isometry3(np.eye(3), offset))
        interior = np.flatnonzero(model[0].left >= 0)
        mus_q = np.vstack([rng.uniform(-1.0, 21.0, size=(400, 3)) + offset,
                           model[0].mus[rng.choice(interior, size=40)]])
        cache = _LeafCache(model)
        pose = Isometry3.identity()
        for k in range(15):
            wq = pose.apply(mus_q)
            cache.update(wq)
            assert_cache_is_full_descent(cache, model, wq)
            if k % 3 == 0:
                continue  # zero step: the same queries again
            if k % 3 == 1:
                pose = random_small_isometry(rng, 1.0 / k, 0.2 / k) @ pose
                continue
            tree = model[int(rng.integers(len(model)))]
            j = int(rng.integers(len(mus_q)))
            node = int(rng.choice(oracle_path(tree, wq[j])[:-1]))
            d = tree.directions[node]
            gap = float(np.dot(d, wq[j] - tree.mus[node])) - rng.choice([-1e-12, 1e-12])
            pose = Isometry3(np.eye(3), -gap * d) @ pose


def test_leaf_cache_zero_step_descends_only_zero_margins(monkeypatch):
    """Repeated queries descend again only where they sit on a split plane:
    one walk per pass over both trees' zero-margin rows."""
    rng = np.random.default_rng(63)
    model = [build_tree(room_cloud(rng, n, size=20.0)) for n in (3000, 1000)]
    on_planes = np.vstack([t.mus[t.left >= 0][:30] for t in model])
    wq = np.vstack([rng.uniform(-1.0, 21.0, size=(300, 3)), on_planes])
    zero = 0
    for t, tree in enumerate(model):
        margin = np.empty(len(wq))
        tree.descend(wq, margin)
        zero += int((margin == 0.0).sum())
        assert (margin[300 + 30 * t:330 + 30 * t] == 0.0).all()
    descended = []
    original = KdTree.descend

    def counting(self, queries, margin=None, start=None):
        descended.append(len(queries))
        return original(self, queries, margin, start)

    monkeypatch.setattr(KdTree, "descend", counting)
    cache = _LeafCache(model)
    for _ in range(5):
        cache.update(wq)
    assert descended == [len(wq)] * 2 + [zero] * 4
    monkeypatch.undo()
    assert_cache_is_full_descent(cache, model, wq)


def test_leaf_cache_slack_catches_a_rounded_sign_flip(monkeypatch):
    """A query on the root plane, then moved by a few ulps: its computed
    projection is 1.1e-16 and then -1.1e-16, a flip larger than the
    computed step of 7.9e-17, so margin minus step stays above zero while a
    full descent changes leaf. The slack re-descends it; without the slack
    the cache keeps the wrong leaf. The tree is two leaves either side of a
    root plane through (0.1, -0.2, 0.3) with normal (1, 2, 3) / sqrt(14)."""
    d = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    mu = np.array([0.1, -0.2, 0.3])
    tree = KdTree()
    tree.mus = np.asfortranarray([mu, mu - 0.5 * d, mu + 0.5 * d])
    tree.directions = np.asfortranarray([d, d, d])
    tree.normals = np.array([d, d, d])
    tree.valid = np.ones(3, dtype=bool)
    tree.left = np.array([1, -1, -1])
    tree.depth = 1
    q = np.array([[float.fromhex(x) for x in
                   ("0x1.5749be113cb61p-1", "0x1.3f411aecb515dp-3", "-0x1.04f420708567bp-3")]])
    moved = np.array([[float.fromhex(x) for x in
                       ("0x1.5749be113cb61p-1", "0x1.3f411aecb515bp-3", "-0x1.04f420708567dp-3")]])
    margin = np.empty(1)
    assert tree.descend(q, margin)[0] == 2 and tree.descend(moved)[0] == 1
    step = np.sqrt(np.einsum("ni,ni->n", moved - q, moved - q))
    assert margin[0] - step[0] > 0.0
    cache = _LeafCache([tree])
    for wq in (q, moved):
        cache.update(wq)
        assert_cache_is_full_descent(cache, [tree], wq)
    monkeypatch.setattr(registration, "CACHE_SLACK", 0.0)
    cache = _LeafCache([tree])
    cache.update(q)
    cache.update(moved)
    assert np.array_equal(cache.mu_l[0], tree.mus[[2]])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_leaf_cache_non_finite_step_descends_again():
    rng = np.random.default_rng(64)
    model = [build_tree(room_cloud(rng, 3000, size=20.0)) for _ in range(2)]
    wq = rng.uniform(-1.0, 21.0, size=(200, 3))
    cache = _LeafCache(model)
    cache.update(wq)
    for bad in (np.nan, np.inf, -np.inf):
        moved = wq.copy()
        moved[::7] = bad
        for queries in (moved, wq):
            cache.update(queries)
            assert_cache_is_full_descent(cache, model, queries)


# ------------------------------------------------------------------- icp


def test_icp_self_registration_is_identity(room):
    pts, tree = room
    scan = build_tree(pts)
    res = icp([tree], scan, Isometry3.identity())
    assert np.abs(res.pose.translation).max() < 1e-9
    assert rotation_angle_deg(res.pose.rotation) < 1e-7
    assert res.matched_fraction == pytest.approx(1.0)
    # Huber cost of the last pass: 0.5 e^2 summed over the accepted pairs
    assert res.cost_history[-1] < 1e-15


def test_icp_recovers_random_offsets(room):
    pts, tree = room
    rng = np.random.default_rng(54)
    params = RegistrationParams(max_iterations=30)
    for _ in range(20):
        true = random_small_isometry(rng, 5.0, 0.5)
        scan = build_tree(true.inverse().apply(pts))
        res = icp([tree], scan, Isometry3.identity(), params)
        t_err = np.linalg.norm(res.pose.translation - true.translation)
        r_err = rotation_angle_deg(res.pose.rotation.T @ true.rotation)
        assert t_err < 1e-3
        assert r_err < 0.1
        assert res.iterations <= 30


def test_icp_single_plane_is_degenerate():
    rng = np.random.default_rng(55)
    n = 4000
    plane = np.column_stack([rng.uniform(0, 30, n), rng.uniform(0, 30, n), np.zeros(n)])
    tree = build_tree(plane)
    scan = build_tree(plane)
    with pytest.raises(DegenerateRegistrationError) as exc:
        icp([tree], scan, Isometry3.identity())
    res = exc.value.result
    lam = np.linalg.eigvalsh(res.information)
    assert (lam < 1e-9 * lam[-1]).sum() >= 3  # x, y translation and yaw are free
    assert res.matched_fraction > 0.9


def test_icp_empty_model_rejected(room):
    pts, tree = room
    with pytest.raises(ValueError):
        icp([], tree, Isometry3.identity())


def test_icp_gauge_consistency(room):
    """Pre-moving the scan by the guess and starting from identity must land
    on the same world alignment: search and residuals only see world-frame
    leaf statistics."""
    pts, tree = room
    rng = np.random.default_rng(56)
    for _ in range(5):
        true = random_small_isometry(rng, 3.0, 0.3)
        scan_pts = true.inverse().apply(pts)
        guess = random_small_isometry(rng, 1.0, 0.1) @ true
        res_a = icp([tree], build_tree(scan_pts), guess)
        scan_b = build_tree(scan_pts)
        transform_tree(scan_b, guess)
        res_b = icp([tree], scan_b, Isometry3.identity())
        total_b = res_b.pose @ guess
        assert np.abs(total_b.translation - res_a.pose.translation).max() < 1e-9
        assert np.abs(total_b.rotation - res_a.pose.rotation).max() < 1e-9


def test_icp_cost_mostly_monotonic(room):
    pts, tree = room
    rng = np.random.default_rng(57)
    ok = 0
    trials = 20
    for _ in range(trials):
        true = random_small_isometry(rng, 2.0, 0.1)
        scan = build_tree(true.inverse().apply(pts))
        res = icp([tree], scan, Isometry3.identity())
        c = np.array(res.cost_history)
        if np.all(np.diff(c) <= 1e-9 * max(1.0, c[0])):
            ok += 1
    assert ok >= 0.9 * trials


def test_icp_information_symmetric_psd(room):
    pts, tree = room
    rng = np.random.default_rng(58)
    for _ in range(5):
        true = random_small_isometry(rng, 3.0, 0.2)
        scan = build_tree(true.inverse().apply(pts))
        res = icp([tree], scan, Isometry3.identity())
        h = res.information
        assert np.abs(h - h.T).max() < 1e-9
        lam = np.linalg.eigvalsh(h)
        assert lam[0] > -1e-9 * lam[-1]
        assert 0.0 <= res.matched_fraction <= 1.0


def test_icp_ignores_invalid_scan_leaves():
    # dense three-plane corner, plus two isolated junk points that form a
    # leaf with no usable normal; p must still come out exactly 1
    rng = np.random.default_rng(60)
    n = 3000
    floor = np.column_stack([rng.uniform(0, 2, n), rng.uniform(0, 2, n), np.zeros(n)])
    wall_x = np.column_stack([np.zeros(n), rng.uniform(0, 2, n), rng.uniform(0, 2, n)])
    wall_y = np.column_stack([rng.uniform(0, 2, n), np.zeros(n), rng.uniform(0, 2, n)])
    corner = np.vstack([floor, wall_x, wall_y])
    tree = build_tree(corner)
    extra = np.array([[50.0, 50.0, 50.0], [50.0, 50.0, 55.0]])
    scan = build_tree(np.vstack([corner, extra]))
    assert not bool(scan.leaf_valid().all())
    res = icp([tree], scan, Isometry3.identity())
    assert res.matched_fraction == pytest.approx(1.0)


def test_icp_without_valid_scan_leaves_is_degenerate(room):
    # two points 87 m apart: one leaf, too small to carry a normal
    _, tree = room
    scan = build_tree(np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]]))
    assert not scan.leaf_valid().any()
    with pytest.raises(DegenerateRegistrationError) as exc:
        icp([tree], scan, Isometry3.identity())
    assert exc.value.result.matched_fraction == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_icp_scan_with_only_an_invalid_leaf_has_no_information(room):
    """No valid scan leaf means no queries: the cache walks nothing and the
    one pass finds no information, without a warning."""
    pts, tree = room
    model = [tree, build_tree(pts[::3])]
    scan = build_tree(np.array([[1.0, 2.0, 3.0], [1.1, 2.0, 3.0]]))
    assert scan.num_leaves == 1 and not scan.leaf_valid().any()
    with pytest.raises(DegenerateRegistrationError) as exc:
        icp(model, scan, Isometry3.identity())
    res = exc.value.result
    assert (res.reason, res.iterations, res.matched_fraction) == ("no_information", 1, 0.0)


def test_icp_reports_why_it_stopped(room):
    pts, tree = room
    rng = np.random.default_rng(68)
    assert icp([tree], build_tree(pts), Isometry3.identity()).reason == "converged"
    true = random_small_isometry(rng, 3.0, 0.3)
    scan = build_tree(true.inverse().apply(pts))
    capped = icp([tree], scan, Isometry3.identity(), RegistrationParams(max_iterations=2))
    assert (capped.reason, capped.iterations) == ("iteration_cap", 2)
    # a pass takes longer than the budget; under load it may run out before the first
    try:
        timed = icp([tree], scan, Isometry3.identity(),
                    RegistrationParams(max_iterations=10**6, time_budget_ms=1e-2))
    except DegenerateRegistrationError as err:
        timed = err.result
    assert timed.reason == "time_budget" and timed.iterations <= 1
    far = build_tree(room_cloud(rng, 3000) + 1000.0)  # nothing within the gate
    with pytest.raises(DegenerateRegistrationError) as exc:
        icp([tree], far, Isometry3.identity())
    assert exc.value.result.reason == "no_information"


def test_icp_converges_on_known_rigid_motion(room):
    """The loop stops on the pose's own units before the cap, on the truth
    to within 1e-3 m and 1e-4 rad."""
    pts, tree = room
    rng = np.random.default_rng(70)
    params = RegistrationParams()
    for _ in range(10):
        true = random_small_isometry(rng, 5.0, 0.5)
        res = icp([tree], build_tree(true.inverse().apply(pts)), Isometry3.identity(), params)
        assert res.reason == "converged" and res.iterations < params.max_iterations
        assert np.linalg.norm(res.pose.translation - true.translation) < 1e-3
        assert np.deg2rad(rotation_angle_deg(res.pose.rotation.T @ true.rotation)) < 1e-4


def test_icp_multi_tree_matches_single_tree_reduction(room):
    """Handing the same tree twice must give the single-tree pose bit for bit
    and exactly twice its information: each tree's terms are summed in order."""
    pts, tree = room
    rng = np.random.default_rng(59)
    true = random_small_isometry(rng, 3.0, 0.3)
    scan_pts = true.inverse().apply(pts)
    res_one = icp([tree], build_tree(scan_pts), Isometry3.identity())
    res_two = icp([tree, tree], build_tree(scan_pts), Isometry3.identity())
    assert np.array_equal(res_one.pose.rotation, res_two.pose.rotation)
    assert np.array_equal(res_one.pose.translation, res_two.pose.translation)
    assert np.array_equal(2.0 * res_one.information, res_two.information)
    assert res_one.iterations == res_two.iterations


def test_registration_params_validation():
    nan, inf = float("nan"), float("inf")
    for bad in (dict(b_ratio=0.0), dict(b_ratio=nan), dict(b_ratio=inf), dict(rho_ker=-0.1),
                dict(rho_ker=nan), dict(rho_ker=inf), dict(time_budget_ms=0.0),
                dict(time_budget_ms=-5.0), dict(time_budget_ms=nan)):
        with pytest.raises(ValueError):
            RegistrationParams(**bad)
    for bad in (0, -1, None, True):
        with pytest.raises(ValueError):
            RegistrationParams(max_iterations=bad)
