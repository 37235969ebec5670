"""Tree construction and search tests.

The strongest oracle here is ``ref_leaves``: a tiny recursive builder written
independently of the production level-synchronous code. Structural equality
against it pins down the split predicate, both leaf rules, and normal
propagation in one shot.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from madlo.geometry import Isometry3, PointCloud, exp_se3
from madlo.madtree import (
    VOXELS_PER_LEAF,
    KdTree,
    TreeParams,
    _pack_cells,
    build_tree,
    stack_trees,
    thin_cloud,
    transform_tree,
)
from worldsim import room_cloud


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
        i = int(tree.left[i]) + (proj > 0.0)
    return i, margin


def node_sums(tree: KdTree, pts: np.ndarray, weights=None) -> np.ndarray:
    """Sum of ``weights`` (default: a count) over the build points under each
    node: a leaf sums the points that descend to it, an interior node its two
    children (numbered after it)."""
    sums = np.bincount(tree.descend(pts), weights=weights, minlength=tree.num_nodes)
    for i in np.flatnonzero(tree.left >= 0)[::-1]:
        sums[i] = sums[tree.left[i]] + sums[tree.left[i] + 1]
    return sums


def node_points(tree: KdTree, pts: np.ndarray) -> list:
    """The build points under each node, gathered like ``node_sums``: a leaf
    holds the points that descend to it, an interior node its children's."""
    members = [[] for _ in range(tree.num_nodes)]
    for k, leaf in enumerate(tree.descend(pts)):
        members[leaf].append(k)
    for i in np.flatnonzero(tree.left >= 0)[::-1]:
        members[i] = members[tree.left[i]] + members[tree.left[i] + 1]
    return [pts[np.array(m, dtype=np.int64)] for m in members]


def extents(p: np.ndarray, normal: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Sorted extents of the points ``p`` along an orthonormal basis that
    holds ``normal`` and ``direction``: the node's oriented bounding box."""
    basis = np.array([normal, np.cross(direction, normal), direction])
    return np.sort(np.ptp(p @ basis.T, axis=0))


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
        # a build point descends to the leaf that owns it; each reference leaf
        # is matched to the tree leaf that owns its first point
        owner = tree.descend(pts)
        matched = [int(owner[sel[0]]) for sel, _, _ in ref]
        assert np.array_equal(np.sort(matched), np.sort(tree.leaf_ids))
        for leaf_id, (sel, normal, valid) in zip(matched, ref):
            assert np.array_equal(np.flatnonzero(owner == leaf_id), np.sort(sel))
            assert bool(tree.valid[leaf_id]) == valid
            if valid:
                assert np.abs(tree.normals[leaf_id] - normal).max() < 1e-9


def test_flat_plane_leaf_normals():
    rng = np.random.default_rng(32)
    pts = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)])
    tree = build_tree(pts)
    assert tree.num_leaves > 1
    assert tree.leaf_valid().all()
    normals = tree.normals[tree.leaf_ids]
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
    owner = tree.descend(pts)
    for leaf_id in tree.leaf_ids:
        sel = np.flatnonzero(owner == leaf_id)
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
    assert node_sums(tree, pts)[0] == 2


def test_tree_root_single_point():
    tree = build_tree(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(tree.mus[0], [1.0, 2.0, 3.0])
    # a zero covariance gets the identity basis
    assert np.array_equal(tree.normals[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tree.directions[0], [0.0, 0.0, 1.0])


def test_tree_root_rejects_empty():
    # the array form is in test_build_rejects_empty_and_nan
    with pytest.raises(ValueError, match="empty"):
        build_tree(PointCloud(np.zeros((0, 3))))


def test_tree_root_two_point_hand_case():
    # points (0,0,0) and (2,0,0): mean (1,0,0), all spread along x
    tree = build_tree(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert np.array_equal(tree.mus[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tree.directions[0], [1.0, 0.0, 0.0])


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
    owner = tree.descend(pts)
    for leaf_id in tree.leaf_ids:
        z = pts[owner == leaf_id, 2]
        assert z.max() - z.min() < 1.0  # all from one plane


def test_flat_slab_propagates_root_normal_everywhere():
    rng = np.random.default_rng(35)
    pts = np.column_stack(
        [rng.uniform(0, 2, 800), rng.uniform(0, 2, 800), rng.uniform(0, 0.02, 800)]
    )
    tree = build_tree(pts)
    assert tree.left[0] >= 0
    assert extents(pts, tree.normals[0], tree.directions[0])[0] < tree.params.b_min
    # every node, interior or leaf, stores the normal its leaves use
    assert (tree.normals == tree.normals[0]).all()
    assert tree.valid.all()


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
    assert np.array_equal(tree.descend(q), tree.left[0] + np.array([0, 1, 0]))


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


def test_descend_from_start_nodes_walks_each_stacked_tree():
    """Trees of different depth, a one-leaf tree among them: a query started
    at a tree's first node lands at that tree's own leaf plus the offset,
    with the same margin bit for bit."""
    rng = np.random.default_rng(66)
    model = [build_tree(room_cloud(rng, 3000, size=20.0)),
             build_tree(np.array([[1.0, 2.0, 3.0], [1.1, 2.0, 3.0]])),
             build_tree(room_cloud(rng, 300, size=20.0)),
             build_tree(room_cloud(rng, 8000, size=40.0))]
    assert model[1].depth == 0 and len({t.depth for t in model}) == 4
    forest, first = stack_trees(model)
    assert forest.depth == max(t.depth for t in model)
    assert list(first) == list(np.cumsum([0] + [t.num_nodes for t in model[:-1]]))
    wq = rng.uniform(-1.0, 41.0, size=(500, 3))
    tree_of = rng.integers(len(model), size=len(wq))
    margin = np.empty(len(wq))
    got = forest.descend(wq, margin, first[tree_of])
    for t, tree in enumerate(model):
        rows = tree_of == t
        want_margin = np.empty(int(rows.sum()))
        want = tree.descend(wq[rows], want_margin)
        assert np.array_equal(got[rows], want + first[t])
        assert margin[rows].tobytes() == want_margin.tobytes()
    assert (margin[tree_of == 1] == np.inf).all()
    assert np.array_equal(forest.descend(wq, start=first[0]), model[0].descend(wq))
    for t, tree in enumerate(model):
        nodes = slice(first[t], first[t] + tree.num_nodes)
        assert forest.normals[nodes].tobytes() == tree.normals.tobytes()
        assert np.array_equal(forest.valid[nodes], tree.valid)
    assert len(forest.normals) == len(forest.valid) == len(forest.left)
    # its leaves are the trees' leaves, tree after tree
    assert np.array_equal(forest.leaf_ids,
                          np.concatenate([t.leaf_ids + f for t, f in zip(model, first)]))


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
    pts = random_scene(rng, 300)
    tree = build_tree(pts)
    mus = tree.mus.copy()
    x = exp_se3(np.array([1.0, -2.0, 0.5, 0.3, -0.2, 0.9]))
    transform_tree(tree, x)
    transform_tree(tree, x.inverse())
    assert np.abs(tree.mus - mus).max() < 1e-9
    assert np.abs(np.linalg.norm(tree.normals[tree.leaf_ids], axis=1) - 1.0).max() < 1e-9


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
    # every build point descends to a leaf, every leaf owns at least one, and
    # the points a node owns average to its centroid
    rng = np.random.default_rng(42)
    pts = random_scene(rng, 700)
    tree = build_tree(pts)
    assert np.all(tree.left[tree.descend(pts)] == -1)
    counts = node_sums(tree, pts)
    assert np.all(counts[tree.leaf_ids] >= 1)
    assert counts[0] == len(pts)
    sums = np.stack([node_sums(tree, pts, pts[:, k]) for k in range(3)], axis=1)
    assert np.abs(sums / counts[:, None] - tree.mus).max() < 1e-9


def test_wide_levels_partition_the_cloud():
    # a level with more than 32767 interior nodes has partition keys too wide
    # for 16 bits; its points must still reach their own nodes
    rng = np.random.default_rng(54)
    pts = rng.uniform(0.0, 100.0, size=(1 << 18, 3))
    tree = build_tree(pts)
    interior = tree.left >= 0
    node_depth = np.zeros(tree.num_nodes, dtype=np.int64)
    for i in np.flatnonzero(interior):
        node_depth[tree.left[i]:tree.left[i] + 2] = node_depth[i] + 1
    assert np.bincount(node_depth[interior]).max() > 32767
    counts = node_sums(tree, pts)
    assert np.all(counts[tree.leaf_ids] >= 1)
    sums = np.stack([node_sums(tree, pts, pts[:, k]) for k in range(3)], axis=1)
    assert np.abs(sums / counts[:, None] - tree.mus).max() < 1e-9


def test_tree_stores_nothing_per_point():
    # leaves keep statistics only: no array grows with the input cloud
    rng = np.random.default_rng(51)
    for n in (40, 700, 3000):
        pts = random_scene(rng, n)
        tree = build_tree(pts)
        assert n not in (tree.num_nodes, tree.num_leaves)
        for name in KdTree.__slots__:
            value = getattr(tree, name)
            if isinstance(value, np.ndarray):
                assert value.shape[0] in (tree.num_nodes, tree.num_leaves), name


def test_children_are_numbered_after_their_parent():
    # descend's fixed-depth walk relies on this numbering
    rng = np.random.default_rng(50)
    for _ in range(10):
        tree = build_tree(random_scene(rng, int(rng.integers(5, 1500))))
        nodes = np.arange(tree.num_nodes)
        interior = tree.left >= 0
        assert np.all(tree.left[interior] > nodes[interior])
        assert np.all(tree.left[~interior] == -1)
        # left and left + 1 name every node but the root exactly once
        children = np.concatenate([tree.left[interior], tree.left[interior] + 1])
        assert np.array_equal(np.sort(children), nodes[1:])


def test_build_is_deterministic():
    rng = np.random.default_rng(43)
    pts = random_scene(rng, 400)
    t1, t2 = build_tree(pts), build_tree(pts)
    assert np.array_equal(t1.mus, t2.mus)
    assert np.array_equal(t1.left, t2.left)
    assert np.array_equal(t1.leaf_ids, t2.leaf_ids)


def test_interior_nodes_had_room_to_split():
    # extents recomputed from the build points under each node: an interior
    # node reached b_max along its basis and held at least 3 points
    rng = np.random.default_rng(44)
    pts = random_scene(rng, 600)
    tree = build_tree(pts)
    members = node_points(tree, pts)
    interior = np.flatnonzero(tree.left >= 0)
    assert len(interior) > 10
    for i in interior:
        ext = extents(members[i], tree.normals[i], tree.directions[i])
        assert ext[2] >= tree.params.b_max
        assert len(members[i]) >= 3


def test_ill_defined_bases_are_finite_unit_and_deterministic():
    # exactly collinear runs (dyadic coordinates), coincident points and a
    # regular tetrahedron, alone and inside a plane: every eigenbasis the
    # build stores is finite and unit, and two builds agree bit for bit
    rng = np.random.default_rng(52)
    line_dir = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    line = np.arange(40)[:, None] * (0.0625 * np.array([1.0, 2.0, -1.0])) + [0.5, -1.0, 2.0]
    coincident = np.full((6, 3), 0.1)
    tetra = 0.5 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    plane = np.column_stack([rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400), np.zeros(400)])
    for pts in (line, line[:3], coincident, tetra, np.vstack([plane, line + [0.0, 0.0, 5.0]])):
        tree, again = build_tree(pts), build_tree(pts)
        for name in ("mus", "normals", "directions", "valid", "left", "leaf_ids"):
            assert getattr(tree, name).tobytes() == getattr(again, name).tobytes(), name
        for vectors in (tree.normals, tree.directions):
            assert np.isfinite(vectors).all()
            assert np.abs(np.linalg.norm(vectors, axis=1) - 1.0).max() < 1e-12
    # a regular tetrahedron's covariance is a multiple of the identity
    tree = build_tree(tetra)
    assert np.array_equal(tree.normals[0], [1.0, 0.0, 0.0])
    assert np.array_equal(tree.directions[0], [0.0, 0.0, 1.0])
    # coincident points: one valid leaf, nothing to split
    assert build_tree(coincident).num_nodes == 1


def test_line_nodes_split_along_the_line_and_donate_a_perpendicular_normal():
    # a node whose points lie on a line has its split direction along the
    # line; its smallest extent is 0 < b_min, so it counts as flat and
    # pushes its normal, one unit vector perpendicular to the line, down to
    # every leaf below it (ROADMAP item 1: the flatness rule)
    line_dir = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    line = np.arange(40)[:, None] * (0.0625 * np.array([1.0, 2.0, -1.0])) + [0.5, -1.0, 2.0]
    tree = build_tree(line)
    interior = np.flatnonzero(tree.left >= 0)
    assert len(interior) > 3
    assert (1.0 - np.abs(tree.directions[interior] @ line_dir) < 1e-12).all()
    assert np.abs(tree.normals @ line_dir).max() < 1e-12
    leaves = tree.leaf_ids
    assert tree.valid[leaves].all()
    assert (tree.normals[leaves] == tree.normals[0]).all()
    # inside a wider cloud, the nodes that hold only line points do the same
    rng = np.random.default_rng(53)
    plane = np.column_stack([rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400), np.zeros(400)])
    pts = np.vstack([plane, line + [0.0, 0.0, 5.0]])
    tree = build_tree(pts)
    members = node_points(tree, pts)
    on_line = [i for i in np.flatnonzero(tree.left >= 0)
               if (np.abs(np.cross(members[i] - line[0] - [0.0, 0.0, 5.0], line_dir)) < 1e-9).all()]
    assert len(on_line) > 3
    assert (1.0 - np.abs(tree.directions[on_line] @ line_dir) < 1e-12).all()


def test_noisy_plane_normal_quality():
    rng = np.random.default_rng(45)
    n = 10000  # 400 points / m^2 over 5 m x 5 m
    pts = np.column_stack(
        [rng.uniform(0, 5, n), rng.uniform(0, 5, n), rng.normal(0, 0.01, n)]
    )
    tree = build_tree(pts)
    cos = np.abs(tree.normals[tree.leaf_ids][tree.leaf_valid()][:, 2])
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
    with pytest.raises(ValueError):
        TreeParams(b_max=np.inf)


def test_build_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        build_tree(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        build_tree(np.array([[np.nan, 0.0, 0.0]]))



# ---------------------------------------------------------------- thinning


def thin_oracle(pts: np.ndarray, edge: float) -> list:
    """Index of the first point of each voxel floor(p / edge), in input
    order: one dict over the cells as Python integers, which never wrap."""
    first = {}
    for i, p in enumerate(pts.tolist()):
        first.setdefault(tuple(math.floor(x / edge) for x in p), i)
    return sorted(first.values())


def check_thin(pts: np.ndarray, b_max: float) -> PointCloud:
    """thin_cloud keeps exactly the oracle's points, each with its own time
    (all times distinct, so a point kept from the wrong index shows)."""
    rel = np.random.default_rng(len(pts)).permutation(len(pts)) / max(len(pts), 1)
    out = thin_cloud(PointCloud(pts, rel_times=rel), TreeParams(b_max=b_max, b_min=b_max / 2))
    keep = thin_oracle(pts, b_max / VOXELS_PER_LEAF)
    assert out.points.tobytes() == pts[keep].tobytes()
    assert out.rel_times.tobytes() == rel[keep].tobytes()
    return out


def test_thin_cloud_keeps_the_first_point_of_each_voxel():
    rng = np.random.default_rng(140)
    for trial in range(30):
        n = int(rng.integers(2, 400))
        # scattered, with negative coordinates, at 0.05 m voxels
        dense = rng.uniform(-1.0, 1.0, size=(n, 3)) * rng.uniform(0.05, 3.0)
        # every coordinate on a voxel face (0.5 m voxels) or one float below it
        faces = rng.integers(-6, 7, size=(n, 3)) * 0.5
        below = rng.random((n, 3)) < 0.2
        faces[below] = np.nextafter(faces[below], -np.inf)
        # repeated points, shuffled in, and one far point that moves every
        # axis's smallest cell
        dup = rng.permutation(np.concatenate([dense, dense[: n // 2]]))
        far = np.concatenate([dense, [[-3.7e4, 2.1e5, -9.9e3]]])
        check_thin(dense, 0.2)
        check_thin(faces, 2.0)
        check_thin(dup, 0.2)
        check_thin(far, 0.2)


def test_thin_cloud_faces_belong_to_the_voxel_above():
    pts = np.array([[0.5, 0.0, 0.0], [np.nextafter(0.5, 0.0), 0.0, 0.0],
                    [0.75, 0.25, 0.25], [0.0, 0.0, -0.5], [0.0, 0.0, -0.25]])
    out = thin_cloud(PointCloud(pts), TreeParams(b_max=2.0, b_min=1.0))
    # 0.5 and 0.75 share [0.5, 1); -0.5 and -0.25 share [-0.5, 0)
    assert out.points.tobytes() == pts[[0, 1, 3]].tobytes()


def test_thin_cloud_returns_the_cloud_when_nothing_repeats():
    one = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    assert thin_cloud(one) is one
    spread = PointCloud(np.arange(30.0).reshape(10, 3))
    assert thin_cloud(spread) is spread


def test_thin_cloud_keys_stay_exact_past_any_fixed_width_packing():
    # 0.5 m voxels; cells 2^21 apart collide in a 21-bit field per axis
    rng = np.random.default_rng(141)
    local = rng.uniform(-1.0, 1.0, size=(60, 3))
    step = 0.5 * 2.0 ** 21
    wide_x = [local + [k * step, 0.0, 0.0] for k in (0, 1, 2 ** 21, -(2 ** 20))]
    wide_all = [local + np.array(o) * step for o in
                ((0, 0, 0), (1, 1, 1), (-1, 2, 0), (3, -2, 5), (2 ** 20, 0, -(2 ** 20)))]
    # cells past int64 (|cell| >= 2^63) and past 2^53, where floats are sparse
    huge = [local, local * 1e17 + 5e18, local - 2.0 ** 63]
    cases = [(np.concatenate(wide_x), False), (np.concatenate(wide_all), True),
             (np.concatenate(huge), True)]
    for pts, fallback in cases:
        pts = np.concatenate([pts, pts[::3]])  # some voxels twice
        cells = np.floor(pts.T / (2.0 / VOXELS_PER_LEAF))
        # x alone spans more than 2^21 cells in the first case, every axis in the others
        spans = cells.max(axis=1) - cells.min(axis=1)
        assert np.count_nonzero(spans > 2.0 ** 21) == (3 if fallback else 1)
        # the first case packs one int64 key, the others group the cells
        assert (_pack_cells(cells) is None) == fallback
        out = check_thin(pts, 2.0)
        assert len(out) < len(pts)
