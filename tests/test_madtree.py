"""Tree construction and search tests.

The strongest oracle here is ``ref_leaves``: a tiny recursive builder written
independently of the production level-synchronous code. Structural equality
against it pins down the split predicate, both leaf rules, and normal
propagation in one shot.
"""
from __future__ import annotations

import numpy as np
import pytest

from madlo.geometry import Isometry3, PointCloud, exp_se3
from madlo.madtree import KdTree, TreeParams, build_tree, transform_tree


# ---------------------------------------------------------------- oracles


def eig_ref(cov: np.ndarray) -> np.ndarray:
    """Ascending-eigenvalue basis with the same sign convention."""
    _, vecs = np.linalg.eigh(cov)
    vecs = vecs.copy()
    for j in range(3):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vecs


def ref_leaves(pts: np.ndarray, b_max: float, b_min: float):
    """Recursive reference build; returns leaves as (point-index-set, normal,
    valid) tuples in left-to-right order."""
    out = []

    def rec(sel: np.ndarray, inherits: bool, n_p):
        p = pts[sel]
        mu = p.mean(axis=0)
        d = p - mu
        cov = (d.T @ d) / len(p)
        vecs = eig_ref(0.5 * (cov + cov.T))
        y = d @ vecs
        ext = np.sort(y.max(axis=0) - y.min(axis=0))
        go_right = (d @ vecs[:, 2]) > 0.0
        degenerate = not go_right.any() or go_right.all()
        if ext[2] < b_max or len(p) < 3 or degenerate:
            normal = np.array(n_p) if inherits else vecs[:, 0]
            out.append((sel, normal, inherits or len(p) >= 3))
            return
        if not inherits and ext[0] < b_min:
            inherits, n_p = True, vecs[:, 0]
        rec(sel[~go_right], inherits, n_p)
        rec(sel[go_right], inherits, n_p)

    rec(np.arange(len(pts)), False, None)
    return out


def oracle_descend(tree: KdTree, q: np.ndarray):
    """Leaf of ``q`` and the smallest |d . (q - mu)| over the interior nodes
    of its path, summed left to right in plain Python floats."""
    x, y, z = (float(c) for c in q)
    i = 0
    margin = float("inf")
    while tree.left[i] >= 0:
        dx, dy, dz = tree.directions[i].tolist()
        mx, my, mz = tree.mus[i].tolist()
        proj = dx * (x - mx) + dy * (y - my) + dz * (z - mz)
        margin = min(margin, abs(proj))
        i = int(tree.right[i]) if proj > 0.0 else int(tree.left[i])
    return i, margin


def random_scene(rng: np.random.Generator, n: int) -> np.ndarray:
    """Mixture of planar patches and volumetric blobs, meters-scale."""
    kinds = rng.integers(0, 3, size=n)
    pts = rng.uniform(-4.0, 4.0, size=(n, 3))
    pts[kinds == 0, 2] = rng.normal(0.0, 0.005, size=int((kinds == 0).sum()))
    pts[kinds == 1, 0] = 2.0 + rng.normal(0.0, 0.005, size=int((kinds == 1).sum()))
    return pts


# ------------------------------------------------------------- structure


def test_build_matches_recursive_reference():
    rng = np.random.default_rng(31)
    params = TreeParams()
    for trial in range(25):
        n = int(rng.integers(5, 400))
        pts = random_scene(rng, n)
        tree = build_tree(pts, params)
        ref = ref_leaves(pts, params.b_max, params.b_min)
        assert tree.num_leaves == len(ref)
        for leaf_id, (sel, normal, valid) in zip(tree.leaf_ids, ref):
            got = np.sort(tree.leaf_point_indices(leaf_id))
            assert np.array_equal(got, np.sort(sel))
            assert bool(tree.valid[leaf_id]) == valid
            if valid:
                assert np.abs(tree.normals[leaf_id] - normal).max() < 1e-9


def test_flat_plane_leaf_normals():
    rng = np.random.default_rng(32)
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)])
    tree = build_tree(pts)
    assert tree.num_leaves > 1
    assert tree.leaf_valid().all()
    normals = tree.leaf_normals()
    assert np.abs(np.abs(normals[:, 2]) - 1.0).max() < 1e-6
    assert np.abs(normals[:, :2]).max() < 1e-6


def test_leaf_pca_matches_svd_oracle():
    rng = np.random.default_rng(33)
    # dense enough that leaves routinely hold >= 3 points
    plane = np.column_stack(
        [rng.uniform(0, 2, 1500), rng.uniform(0, 2, 1500), rng.normal(0, 0.005, 1500)]
    )
    wall = np.column_stack(
        [rng.normal(1.0, 0.005, 800), rng.uniform(0, 2, 800), rng.uniform(0, 2, 800)]
    )
    pts = np.vstack([plane, wall])
    # b_min ~ 0 shuts off normal propagation: every valid leaf is its own fit
    tree = build_tree(pts, TreeParams(b_max=0.2, b_min=1e-9))
    checked = 0
    for leaf_id in tree.leaf_ids:
        sel = tree.leaf_point_indices(leaf_id)
        # sub-3-point leaves only ever get donated normals, skip them
        if len(sel) < 3 or not tree.valid[leaf_id]:
            continue
        p = pts[sel] - pts[sel].mean(axis=0)
        _, _, vt = np.linalg.svd(p, full_matrices=True)
        assert abs(np.dot(tree.normals[leaf_id], vt[2])) > 1.0 - 1e-6
        checked += 1
    assert checked >= 30


def test_tiny_cluster_is_single_leaf():
    pts = np.array([[0.0, 0.0, 0.0], [0.03, 0.01, 0.0], [0.0, 0.02, 0.04]])
    tree = build_tree(pts)
    assert tree.num_leaves == 1
    assert tree.left[0] < 0
    assert np.abs(tree.mus[0] - pts.mean(axis=0)).max() < 1e-12
    assert tree.valid[0]


def test_two_distant_points_leaf_despite_extent():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    tree = build_tree(pts)
    assert tree.num_leaves == 1
    assert not tree.valid[0]
    assert tree.counts[0] == 2


def test_tree_root_single_point():
    tree = build_tree(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(tree.mus[0], [1.0, 2.0, 3.0])
    assert np.array_equal(tree.bboxes[0], np.zeros(3))


def test_tree_root_rejects_empty():
    # the array form is in test_build_rejects_empty_and_nan
    with pytest.raises(ValueError, match="empty"):
        build_tree(PointCloud(np.zeros((0, 3))))


def test_tree_root_two_point_hand_case():
    # points (0,0,0) and (2,0,0): mean (1,0,0), all spread along x
    tree = build_tree(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert np.array_equal(tree.mus[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tree.directions[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tree.bboxes[0], [0.0, 0.0, 2.0])


def test_tree_root_matches_two_pass_oracle():
    rng = np.random.default_rng(18)
    pts = rng.normal(scale=4.0, size=(500, 3)) + np.array([10.0, -40.0, 3.0])
    tree = build_tree(pts)
    mu_o = np.zeros(3)
    for p in pts:
        mu_o += p
    mu_o /= len(pts)
    cov_o = np.zeros((3, 3))
    for p in pts:
        d = p - mu_o
        cov_o += np.outer(d, d)
    cov_o /= len(pts)
    vecs = eig_ref(cov_o)
    assert np.abs(tree.mus[0] - mu_o).max() < 1e-10
    assert np.abs(tree.normals[0] - vecs[:, 0]).max() < 1e-9
    assert np.abs(tree.directions[0] - vecs[:, 2]).max() < 1e-9


def test_parallel_planes_never_share_a_leaf():
    rng = np.random.default_rng(34)
    n = 1500
    a = np.column_stack([rng.uniform(0, 3, n), rng.uniform(0, 3, n), np.zeros(n)])
    b = a.copy()
    b[:, 2] = 5.0
    pts = np.vstack([a, b])
    tree = build_tree(pts)
    for leaf_id in tree.leaf_ids:
        z = pts[tree.leaf_point_indices(leaf_id), 2]
        assert z.max() - z.min() < 1.0  # all from one plane


def test_flat_slab_propagates_root_normal_everywhere():
    rng = np.random.default_rng(35)
    pts = np.column_stack(
        [rng.uniform(0, 2, 800), rng.uniform(0, 2, 800), rng.uniform(0, 0.02, 800)]
    )
    tree = build_tree(pts)
    assert tree.left[0] >= 0
    assert tree.bboxes[0, 0] < tree.params.b_min
    root_n = tree.normals[0]
    for leaf_id in tree.leaf_ids:
        assert np.array_equal(tree.normals[leaf_id], root_n)
        assert tree.valid[leaf_id]


# ---------------------------------------------------------------- search


def test_search_well_separated_clusters():
    rng = np.random.default_rng(36)
    centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
    pts = np.vstack([c + rng.normal(0, 0.03, size=(40, 3)) for c in centers])
    tree = build_tree(pts)
    assert np.array_equal(tree.descend(tree.leaf_mus()), tree.leaf_ids)


def test_search_single_leaf_tree():
    pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.01, 0.0]])
    tree = build_tree(pts)
    queries = np.array([[0, 0, 0], [100, -3, 9], [-1e6, 0, 0]], dtype=float)
    assert np.array_equal(tree.descend(queries), np.zeros(3, dtype=np.int64))


def test_search_matches_descent_oracle():
    rng = np.random.default_rng(37)
    pts = random_scene(rng, 800)
    tree = build_tree(pts)
    queries = rng.uniform(-5.0, 5.0, size=(1000, 3))
    batch = tree.descend(queries)
    for k, q in enumerate(queries):
        assert int(batch[k]) == oracle_descend(tree, q)[0]


def test_search_ties_go_left():
    # (0,0,0), (1,0,0), (3,0,0): the root splits along +x at mean 4/3; the
    # left child holds the first two points, the right child the third
    tree = build_tree(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    assert tree.num_nodes == 3 and np.array_equal(tree.directions[0], [1.0, 0.0, 0.0])
    mu = tree.mus[0]
    q = np.array([mu, mu + [1e-12, 0.0, 0.0], mu - [1e-12, 0.0, 0.0]])
    assert np.array_equal(tree.descend(q), [tree.left[0], tree.right[0], tree.left[0]])


def test_search_queries_on_interior_centroids_match_oracle():
    # a query on an interior node's centroid projects to exactly 0 there
    rng = np.random.default_rng(47)
    for _ in range(5):
        tree = build_tree(random_scene(rng, 600))
        queries = tree.mus[tree.left >= 0]
        assert len(queries) > 10
        batch = tree.descend(queries)
        for k, q in enumerate(queries):
            assert int(batch[k]) == oracle_descend(tree, q)[0]


def test_descend_margin_matches_oracle():
    # random queries, queries on interior centroids (margin 0) and queries
    # 1e-12 m either side of a split plane
    rng = np.random.default_rng(61)
    for _ in range(5):
        tree = build_tree(random_scene(rng, int(rng.integers(200, 1200))))
        interior = np.flatnonzero(tree.left >= 0)
        picked = rng.choice(interior, size=20)
        side = rng.choice([-1.0, 1.0], size=(20, 1))
        near = tree.mus[picked] + 1e-12 * side * tree.directions[picked]
        queries = np.vstack([rng.uniform(-5.0, 5.0, size=(300, 3)),
                             tree.mus[interior[:50]], near])
        margin = np.full(len(queries), np.nan)
        ids = tree.descend(queries, margin)
        assert np.array_equal(ids, tree.descend(queries))
        for k, q in enumerate(queries):
            leaf, want = oracle_descend(tree, q)
            assert int(ids[k]) == leaf
            assert margin[k] == want
        assert (margin[300:350] == 0.0).all()


def test_descend_margin_of_single_leaf_tree_is_inf():
    tree = build_tree(np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.01, 0.0]]))
    margin = np.zeros(2)
    assert np.array_equal(tree.descend(np.array([[0.0, 0.0, 0.0], [5.0, 1.0, 2.0]]), margin),
                          [0, 0])
    assert np.isinf(margin).all()


def test_descent_is_deterministic():
    rng = np.random.default_rng(38)
    pts = random_scene(rng, 500)
    tree = build_tree(pts)
    q = rng.uniform(-5, 5, size=(50, 3))
    assert np.array_equal(tree.descend(q), tree.descend(q))


# ------------------------------------------------------------- transform


def test_transform_identity_is_bitwise_noop():
    rng = np.random.default_rng(39)
    tree = build_tree(random_scene(rng, 300))
    mus, normals, dirs = tree.mus.copy(), tree.normals.copy(), tree.directions.copy()
    transform_tree(tree, Isometry3.identity())
    assert np.array_equal(tree.mus, mus)
    assert np.array_equal(tree.normals, normals)
    assert np.array_equal(tree.directions, dirs)


def test_transform_round_trip():
    rng = np.random.default_rng(40)
    tree = build_tree(random_scene(rng, 300))
    mus, bboxes = tree.mus.copy(), tree.bboxes.copy()
    x = exp_se3(np.array([1.0, -2.0, 0.5, 0.3, -0.2, 0.9]))
    transform_tree(tree, x)
    assert np.array_equal(tree.bboxes, bboxes)  # extents are rigid invariants
    transform_tree(tree, x.inverse())
    assert np.abs(tree.mus - mus).max() < 1e-9
    assert np.abs(np.linalg.norm(tree.leaf_normals(), axis=1) - 1.0).max() < 1e-9


def test_transform_matches_row_major_products_bitwise():
    rng = np.random.default_rng(48)
    tree = build_tree(random_scene(rng, 400))
    mus = np.ascontiguousarray(tree.mus)
    dirs = np.ascontiguousarray(tree.directions)
    x = exp_se3(np.array([3.0, -1.0, 0.25, -0.4, 0.7, 1.9]))
    transform_tree(tree, x)
    rt = x.rotation.T
    assert np.array_equal(tree.mus, mus @ rt + x.translation)
    assert np.array_equal(tree.directions, dirs @ rt)
    # descend reads them by column, before and after a move
    assert tree.mus.flags.f_contiguous and tree.directions.flags.f_contiguous
    assert build_tree(random_scene(rng, 50)).mus.flags.f_contiguous


def test_search_on_moved_tree_matches_oracle():
    rng = np.random.default_rng(49)
    tree = build_tree(random_scene(rng, 800))
    queries = rng.uniform(-5.0, 5.0, size=(500, 3))
    x = exp_se3(np.array([0.5, 2.0, -1.0, 0.2, -0.6, 0.4]))
    for move in (x, x.inverse()):
        transform_tree(tree, move)
        queries = move.apply(queries)
        batch = tree.descend(queries)
        for k, q in enumerate(queries):
            assert int(batch[k]) == oracle_descend(tree, q)[0]


def test_search_equivariance_under_rigid_motion():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pts = random_scene(rng, 200)
        tree = build_tree(pts)
        x = exp_se3(rng.normal(size=6))
        q = rng.uniform(-5, 5, size=3)
        before = tree.mus[tree.descend(q)[0]].copy()
        transform_tree(tree, x)
        after = tree.mus[tree.descend(x.apply(q))[0]]
        assert np.abs(after - x.apply(before)).max() < 1e-9


# ------------------------------------------------------------ invariants


def test_leaves_partition_the_cloud():
    rng = np.random.default_rng(42)
    pts = random_scene(rng, 700)
    tree = build_tree(pts)
    seen = np.concatenate([tree.leaf_point_indices(i) for i in tree.leaf_ids])
    assert len(seen) == len(pts)
    assert np.array_equal(np.sort(seen), np.arange(len(pts)))
    assert int(tree.counts[tree.leaf_ids].sum()) == len(pts)


def test_children_are_numbered_after_their_parent():
    # descend's fixed-depth walk relies on this numbering
    rng = np.random.default_rng(50)
    for _ in range(10):
        tree = build_tree(random_scene(rng, int(rng.integers(5, 1500))))
        nodes = np.arange(tree.num_nodes)
        interior = tree.left >= 0
        assert np.all(tree.left[interior] > nodes[interior])
        assert np.all(tree.right[interior] > nodes[interior])
        assert np.array_equal(tree.right[interior], tree.left[interior] + 1)
        assert np.all(tree.left[~interior] == -1)
        assert np.all(tree.right[~interior] == -1)


def test_build_is_deterministic():
    rng = np.random.default_rng(43)
    pts = random_scene(rng, 400)
    t1, t2 = build_tree(pts), build_tree(pts)
    assert np.array_equal(t1.mus, t2.mus)
    assert np.array_equal(t1.left, t2.left)
    assert np.array_equal(t1.point_order, t2.point_order)


def test_bbox_extents_sorted_everywhere():
    rng = np.random.default_rng(44)
    tree = build_tree(random_scene(rng, 600))
    b = tree.bboxes
    assert np.all(b[:, 0] <= b[:, 1]) and np.all(b[:, 1] <= b[:, 2])
    # interior nodes must all have had room to split
    interior = tree.left >= 0
    assert np.all(tree.counts[interior] >= 3)


def test_noisy_plane_normal_quality():
    rng = np.random.default_rng(45)
    n = 10000  # 400 points / m^2 over 5 m x 5 m
    pts = np.column_stack(
        [rng.uniform(0, 5, n), rng.uniform(0, 5, n), rng.normal(0, 0.01, n)]
    )
    tree = build_tree(pts)
    normals = tree.leaf_mus(), tree.leaf_normals()[tree.leaf_valid()]
    cos = np.abs(tree.leaf_normals()[tree.leaf_valid()][:, 2])
    good = cos > np.cos(np.deg2rad(5.0))
    assert good.mean() >= 0.95


def test_depth_bound():
    rng = np.random.default_rng(46)
    for n in (50, 500, 3000):
        pts = rng.uniform(-6.0, 6.0, size=(n, 3))
        tree = build_tree(pts)
        extent = float((pts.max(axis=0) - pts.min(axis=0)).max())
        bound = np.ceil(np.log2(n)) + np.ceil(np.log2(extent / tree.params.b_max)) + 8
        assert tree.depth <= bound


def test_tree_params_validation():
    with pytest.raises(ValueError):
        TreeParams(b_max=0.1, b_min=0.2)
    with pytest.raises(ValueError):
        TreeParams(b_max=-1.0)


def test_build_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        build_tree(np.array([[np.nan, 0.0, 0.0]]))

