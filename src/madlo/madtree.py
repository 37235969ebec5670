"""PCA kd-tree whose leaves are small planar surface patches.

Every node carries the centroid and the covariance eigenbasis (smallest-
spread axis = surface normal, largest-spread axis = splitting direction) of
its point subset. The extents of the subset along that basis (its oriented
bounding box) decide the splits and are then dropped. Splitting recurses
until the largest extent drops below ``b_max``; very flat ancestors
(smallest extent below ``b_min``) push their normal down to every
descendant, which rescues leaves too sparse to estimate one themselves.
Leaves are the nodes without children, in node order.

The build is level-synchronous: each pass computes statistics for every node
of one depth with batched array ops over one contiguous block of those nodes'
points, then gathers the interior nodes' points, split side by side, into
the next level's block, so cost stays near O(N log N) with small constants.
The eigenbases come in closed form (``geometry.eig_sym3``) from the six
moment rows, with no LAPACK call; the per-point rows live in buffers made
once per build that every level reuses; and the split is a stable sort of
16-bit keys, which numpy does by radix, while a level has fewer than 32768
interior nodes.

``thin_cloud`` runs before the build (and before deskew): it keeps one point
per voxel of edge ``b_max / VOXELS_PER_LEAF`` on a grid fixed in the sensor
frame, so near-range density, which a leaf's plane does not need, stops
paying for every level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Isometry3, PointCloud, eig_sym3

# nodes with fewer points than this cannot estimate a covariance plane and
# terminate as leaves with an invalid normal unless an ancestor donated one
MIN_SPLIT_POINTS = 3
# thin_cloud keeps one point per voxel of edge b_max / VOXELS_PER_LEAF
VOXELS_PER_LEAF = 4


@dataclass(frozen=True)
class TreeParams:
    """Leaf sizing (meters). b_max bounds leaf extent, b_min marks flatness."""

    b_max: float = 0.2
    b_min: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.b_min < np.inf and 0.0 < self.b_max < np.inf):  # NaN fails too
            raise ValueError("b_min and b_max must be positive and finite")
        if self.b_min >= self.b_max:
            raise ValueError(f"b_min ({self.b_min}) must be below b_max ({self.b_max})")


class KdTree:
    """Struct-of-arrays tree storage; nodes are indexed, root is index 0.

    Every child is numbered after its parent, and a right child right after
    its left sibling, so ``left + 1`` is the right child; a leaf's ``left``
    is -1, and ``leaf_ids`` lists the leaves in node order. ``mus`` and
    ``directions`` are (N, 3) and column-major, so ``descend`` reads each
    axis as one contiguous column. A node's normal is the one its leaves
    use: a flat ancestor's if it has one, else its own.

    Nodes keep only statistics, never the raw points or their order: a
    build point descends to the leaf that owns it.
    """

    __slots__ = (
        "params", "mus", "normals", "directions", "valid", "left", "depth",
    )

    def __init__(self):
        self.params: TreeParams | None = None

    @property
    def num_nodes(self) -> int:
        return self.mus.shape[0]

    @property
    def num_leaves(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    @property
    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.left < 0)

    # leaf statistics as flat arrays, in leaf_ids order
    def leaf_mus(self) -> np.ndarray:
        return self.mus[self.leaf_ids]

    def leaf_valid(self) -> np.ndarray:
        return self.valid[self.leaf_ids]

    def descend(self, queries: np.ndarray, margin: np.ndarray,
                start: np.ndarray | int) -> np.ndarray:
        """Vectorized descent of the (N, 3) ``queries`` from the nodes
        ``start`` (0 walks one tree from its root); returns a node index per
        query and writes into the (N,) float array ``margin`` each query's
        smallest ``|d . (q - mu)|`` over the interior nodes of its path (inf
        for a one-leaf tree): a query that moves by less, give or take
        rounding (``registration.CACHE_SLACK``), keeps its leaf.

        Every query takes exactly ``depth`` steps over the per-axis node
        columns. By the node numbering (see the class docstring),
        ``left + 1`` is the right child and ``maximum`` holds a query that
        has reached its leaf, whose children are -1. Trees stacked into one
        set of arrays (``stack_trees``) are walked together by starting each
        query at its own tree's root.
        """
        q = np.asarray(queries, dtype=float).reshape(-1, 3)
        qx, qy, qz = np.ascontiguousarray(q.T)
        m0, m1, m2 = self.mus.T
        d0, d1, d2 = self.directions.T
        left = self.left
        cur = np.full(q.shape[0], start, dtype=np.int64)
        margin.fill(np.inf)
        for _ in range(self.depth):
            proj = d0.take(cur) * (qx - m0.take(cur))
            proj += d1.take(cur) * (qy - m1.take(cur))
            proj += d2.take(cur) * (qz - m2.take(cur))
            child = left.take(cur)
            # the steps a query takes at its leaf split nothing
            np.minimum(margin, np.abs(proj), out=margin, where=child >= 0)
            cur = np.maximum(child + (proj > 0.0), cur)
        return cur


def thin_cloud(cloud: PointCloud, params: TreeParams = TreeParams()) -> PointCloud:
    """Keep the first point, in input order, of every occupied voxel of edge
    ``b_max / VOXELS_PER_LEAF``, with its time; the cloud itself when no two
    points share a voxel.

    The voxels are the cells ``floor(p / edge)`` of one grid fixed in the
    sensor frame, so where a point falls does not depend on the rest of the
    cloud. Point 0 is always kept.
    """
    n = len(cloud)
    if n < 2:
        return cloud
    # one contiguous row of cells per axis
    cells = np.empty((3, n))
    np.divide(cloud.points.T, params.b_max / VOXELS_PER_LEAF, out=cells)
    np.floor(cells, out=cells)
    keys = _pack_cells(cells)
    if keys is None:
        _, first = np.unique(cells.T, axis=0, return_index=True)
    else:
        # sorted, each voxel's keys form one run that starts at its first point
        keys.sort()
        voxel = keys // n
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(voxel[1:], voxel[:-1], out=starts[1:])
        first = keys[starts] % n
    if first.size == n:
        return cloud
    first.sort()
    rel = None if cloud.rel_times is None else cloud.rel_times[first]
    return PointCloud(cloud.points[first], rel_times=rel)


def _pack_cells(cells: np.ndarray) -> np.ndarray | None:
    """One int64 per column i of the (3, N) integer-valued ``cells``: its
    cells, each axis shifted by its smallest one, then i, packed by mixed
    radix, so the keys order by voxel and then by point, and two points
    share ``key // N`` exactly when they share a voxel. None when the keys
    do not fit one int64."""
    n = cells.shape[1]
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    if not (-2.0 ** 63 < lo.min() and hi.max() < 2.0 ** 63):  # inf fails too
        return None
    sx, sy, sz = (int(h) - int(l) + 1 for l, h in zip(lo, hi))
    if sx * sy * sz * n > 2 ** 63:  # Python ints: the product cannot wrap
        return None
    c = cells.astype(np.int64)
    c -= lo.astype(np.int64)[:, None]
    return ((c[0] * sy + c[1]) * sz + c[2]) * n + np.arange(n)


def build_tree(cloud, params: TreeParams = TreeParams()) -> KdTree:
    """Build the tree over a PointCloud or an (N, 3) array."""
    pts = (cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)).points
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree over an empty cloud")

    # each level holds its nodes' points as one (3, m) block, node after node,
    # one contiguous row per axis so every per-point pass is a flat loop; that
    # block, its centred copy and three rows of work (products d_i * d_j, then
    # offsets y) live at the front of three flat buffers made once per build,
    # and the next level's block is gathered over the centred copy
    points, centred, work = np.empty((3, 3 * n))
    row = np.empty(n)
    m = n
    p = points[:3 * m].reshape(3, m)
    p[:] = pts.T
    lengths = np.array([n], dtype=np.int64)
    inherits = np.array([False])
    inh_n = np.zeros((1, 3))

    mus_l, normals_l, dirs_l, valid_l, left_l = [], [], [], [], []
    allocated = 1
    depth = 0

    while True:
        f = lengths.size
        starts = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(f), lengths)

        def spread(values: np.ndarray) -> np.ndarray:
            """One value per node, repeated over the node's points in ``row``."""
            return values.take(owner, out=row[:m], mode="clip")

        mu = np.add.reduceat(p, starts, axis=1) / lengths
        d = centred[:3 * m].reshape(3, m)
        for k in range(3):
            np.subtract(p[k], spread(mu[k]), out=d[k])
        # covariance from the six distinct products d_i * d_j, three at a time
        w = work[:3 * m].reshape(3, m)
        np.multiply(d[0], d, out=w)
        xx_xy_xz = np.add.reduceat(w, starts, axis=1)
        np.multiply(d[1], d[1:], out=w[:2])
        np.multiply(d[2], d[2], out=w[2])
        moments = np.concatenate([xx_xy_xz, np.add.reduceat(w, starts, axis=1)])
        vecs = eig_sym3(moments / lengths)

        # y[j] = d . vecs[j]: the offsets in each node's eigenbasis
        y = w
        for j in range(3):
            np.multiply(d[0], spread(vecs[j, 0]), out=y[j])
            y[j] += np.multiply(d[1], spread(vecs[j, 1]), out=row[:m])
            y[j] += np.multiply(d[2], spread(vecs[j, 2]), out=row[:m])
        ext = np.maximum.reduceat(y, starts, axis=1) - np.minimum.reduceat(y, starts, axis=1)

        # y[2] is direction . (p - mu), the split predicate
        go_right = y[2] > 0.0
        nr = np.add.reduceat(go_right, starts, dtype=np.int64)
        is_leaf = (ext.max(axis=0) < params.b_max) | (lengths < MIN_SPLIT_POINTS)
        # a split that moves nothing (numerically coincident points) ends here
        is_leaf |= (nr == 0) | (nr == lengths)
        interior = ~is_leaf

        normal = np.where(inherits[:, None], inh_n, vecs[0].T)
        # an interior node holds at least MIN_SPLIT_POINTS points, so is valid
        valid = inherits | (lengths >= MIN_SPLIT_POINTS)

        n_int = int(interior.sum())
        left_ids = np.full(f, -1, dtype=np.int64)
        left_ids[interior] = allocated + 2 * np.arange(n_int, dtype=np.int64)
        allocated += 2 * n_int

        mus_l.append(mu)
        normals_l.append(normal)
        dirs_l.append(vecs[2].copy())
        valid_l.append(valid)
        left_l.append(left_ids)

        if n_int == 0:
            break
        # keep only the interior nodes' points, each node's left side first:
        # a stable sort by (interior rank, side), a leaf's points last; a
        # stable argsort of 16-bit keys is a radix sort
        key_type = np.uint16 if 2 * n_int <= np.iinfo(np.uint16).max else np.int64
        node_key = np.full(f, 2 * n_int, dtype=key_type)
        node_key[interior] = 2 * np.arange(n_int, dtype=key_type)
        key = node_key.take(owner)
        key += go_right
        m_next = int(lengths[interior].sum())
        order = np.argsort(key, kind="stable")[:m_next]
        p = np.take(p, order, axis=1, mode="clip",
                    out=centred[:3 * m_next].reshape(3, m_next))
        points, centred = centred, points
        m = m_next

        # next frontier: interleave (left, right) children per interior node
        inr = nr[interior]
        inl = lengths[interior] - inr
        lengths = np.empty(2 * n_int, dtype=np.int64)
        lengths[0::2], lengths[1::2] = inl, inr

        child_inherits = inherits[interior] | (ext[:, interior].min(axis=0) < params.b_min)
        inherits = np.repeat(child_inherits, 2)
        inh_n = np.repeat(normal[interior], 2, axis=0)
        depth += 1

    tree = KdTree()
    tree.params = params
    # (3, N) rows transposed: column-major (N, 3), one contiguous column per axis
    tree.mus = np.concatenate(mus_l, axis=1).T
    tree.normals = np.concatenate(normals_l)
    tree.directions = np.concatenate(dirs_l, axis=1).T
    tree.valid = np.concatenate(valid_l)
    tree.left = np.concatenate(left_l)
    tree.depth = depth
    return tree


def transform_tree(tree: KdTree, x: Isometry3) -> None:
    """Rigidly move every node in place, no rebuild."""
    rt = x.rotation.T
    # empty_like keeps the column-major layout that descend reads
    mus = np.matmul(tree.mus, rt, out=np.empty_like(tree.mus))
    mus += x.translation
    tree.mus = mus
    tree.normals = tree.normals @ rt
    tree.directions = np.matmul(tree.directions, rt, out=np.empty_like(tree.directions))


def stack_trees(trees: "list[KdTree]"):
    """The trees as one ``KdTree``, each tree's child ids offset by its first
    node and ``depth`` their largest, and each tree's first node in it: a
    query that ``descend`` starts there walks that tree."""
    first = np.cumsum([0] + [t.num_nodes for t in trees[:-1]])
    forest = KdTree()
    # (3, N) rows side by side, transposed: column-major like every tree
    forest.mus = np.concatenate([t.mus.T for t in trees], axis=1).T
    forest.directions = np.concatenate([t.directions.T for t in trees], axis=1).T
    forest.normals = np.concatenate([t.normals for t in trees])
    forest.valid = np.concatenate([t.valid for t in trees])
    forest.left = np.concatenate([np.where(t.left >= 0, t.left + f, -1)
                                  for t, f in zip(trees, first)])
    forest.depth = max(t.depth for t in trees)
    return forest, first
