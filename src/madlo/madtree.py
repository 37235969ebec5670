"""PCA kd-tree whose leaves are small planar surface patches.

Every node carries the centroid, the covariance eigenbasis (smallest-spread
axis = surface normal, largest-spread axis = splitting direction) and the
oriented bounding-box extents of its point subset. Splitting recurses until
the largest extent drops below ``b_max``; very flat ancestors (smallest
extent below ``b_min``) push their normal down to all descendant leaves,
which rescues leaves too sparse to estimate one themselves.

The build is level-synchronous: each pass partitions an index array in place
and computes statistics for every node of one depth with batched array ops,
so cost stays near O(N log N) with small constants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Isometry3, PointCloud, eig_sym3_batch

# nodes with fewer points than this cannot estimate a covariance plane and
# terminate as leaves with an invalid normal unless an ancestor donated one
MIN_SPLIT_POINTS = 3

# where the six distinct covariance entries (xx, xy, xz, yy, yz, zz) land in
# the symmetric 3x3 matrix
_COV_SYM = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])
# a one-point node's covariance is exactly zero, so its eigenbasis is fixed
_SINGLE_POINT_BASIS = eig_sym3_batch(np.zeros((1, 3, 3)))[1][0]


@dataclass(frozen=True)
class TreeParams:
    """Leaf sizing (meters). b_max bounds leaf extent, b_min marks flatness."""

    b_max: float = 0.2
    b_min: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.b_min and 0.0 < self.b_max):
            raise ValueError("b_min and b_max must be positive")
        if self.b_min >= self.b_max:
            raise ValueError(f"b_min ({self.b_min}) must be below b_max ({self.b_max})")


class KdTree:
    """Struct-of-arrays tree storage; nodes are indexed, root is index 0.

    Every child is numbered after its parent, and a right child right after
    its left sibling; a leaf's ``left`` and ``right`` are -1. ``mus`` and
    ``directions`` are (N, 3) and column-major, so ``descend`` reads each
    axis as one contiguous column.

    ``point_order`` is the build permutation of the input cloud: node i owns
    the contiguous slice ``point_order[starts[i] : starts[i] + counts[i]]``.
    Leaves keep only statistics, never the raw points.
    """

    __slots__ = (
        "params", "mus", "normals", "directions", "bboxes",
        "counts", "starts", "valid", "left", "right",
        "point_order", "leaf_ids", "depth",
    )

    def __init__(self):
        self.params: TreeParams | None = None

    @property
    def num_nodes(self) -> int:
        return self.mus.shape[0]

    @property
    def num_leaves(self) -> int:
        return self.leaf_ids.shape[0]

    def leaf_point_indices(self, index: int) -> np.ndarray:
        """Input-cloud row indices owned by node ``index``."""
        s = int(self.starts[index])
        return self.point_order[s : s + int(self.counts[index])]

    # leaf statistics as flat arrays, in left-to-right leaf order
    def leaf_mus(self) -> np.ndarray:
        return self.mus[self.leaf_ids]

    def leaf_normals(self) -> np.ndarray:
        return self.normals[self.leaf_ids]

    def leaf_valid(self) -> np.ndarray:
        return self.valid[self.leaf_ids]

    def descend(self, queries: np.ndarray, margin: np.ndarray | None = None) -> np.ndarray:
        """Vectorized root-to-leaf descent; returns a node index per query.

        Every query takes exactly ``depth`` steps over the per-axis node
        columns. By the node numbering (see the class docstring),
        ``left + 1`` is the right child and ``maximum`` holds a query that
        has reached its leaf, whose children are -1.

        Given an (N,) float array ``margin``, also writes into it each
        query's smallest ``|d . (q - mu)|`` over the interior nodes of its
        path (inf for a one-leaf tree): a query that moves by less, give or
        take rounding (``registration.CACHE_SLACK``), keeps its leaf.
        """
        q = np.asarray(queries, dtype=float).reshape(-1, 3)
        qx, qy, qz = np.ascontiguousarray(q.T)
        m0, m1, m2 = self.mus.T
        d0, d1, d2 = self.directions.T
        left = self.left
        cur = np.zeros(q.shape[0], dtype=np.int64)
        if margin is not None:
            margin.fill(np.inf)
        for _ in range(self.depth):
            proj = d0.take(cur) * (qx - m0.take(cur))
            proj += d1.take(cur) * (qy - m1.take(cur))
            proj += d2.take(cur) * (qz - m2.take(cur))
            child = left.take(cur)
            if margin is not None:
                # the steps a query takes at its leaf split nothing
                np.minimum(margin, np.abs(proj), out=margin, where=child >= 0)
            cur = np.maximum(child + (proj > 0.0), cur)
        return cur


def build_tree(cloud, params: TreeParams = TreeParams()) -> KdTree:
    """Build the tree over a PointCloud or an (N, 3) array."""
    if isinstance(cloud, PointCloud):
        pts = cloud.points
    else:
        pts = np.ascontiguousarray(np.asarray(cloud, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN/Inf")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree over an empty cloud")

    idx = np.arange(n, dtype=np.int64)
    # one contiguous row per axis keeps every per-point pass a flat loop
    cols = np.ascontiguousarray(pts.T)

    # frontier state for the current level
    lo = np.array([0], dtype=np.int64)
    hi = np.array([n], dtype=np.int64)
    inherits = np.array([False])
    inh_n = np.zeros((1, 3))

    mus_l, normals_l, dirs_l, bbox_l = [], [], [], []
    counts_l, starts_l, valid_l, left_l, right_l = [], [], [], [], []
    allocated = 1
    depth = 0

    while lo.size:
        f = lo.size
        lengths = hi - lo
        ends = np.cumsum(lengths)
        starts = ends - lengths
        n_act = int(ends[-1])
        pos = np.repeat(lo - starts, lengths) + np.arange(n_act, dtype=np.int64)
        act_idx = idx[pos]
        p = cols[:, act_idx]

        mu = np.add.reduceat(p, starts, axis=1) / lengths
        d = p - np.repeat(mu, lengths, axis=1)
        # covariance from the six distinct products d_i * d_j
        prods = np.empty((6, n_act))
        np.multiply(d[0], d, out=prods[0:3])
        np.multiply(d[1], d[1:], out=prods[3:5])
        np.multiply(d[2], d[2], out=prods[5])
        moments = np.add.reduceat(prods, starts, axis=1)
        cov = (moments / lengths)[_COV_SYM].T.reshape(f, 3, 3)
        # every one-point node shares the zero matrix's eigenbasis
        single = lengths == 1
        vecs = np.empty((f, 3, 3))
        vecs[single] = _SINGLE_POINT_BASIS
        vecs[~single] = eig_sym3_batch(cov[~single])[1]
        normal_pca = np.ascontiguousarray(vecs[:, :, 0])

        # y[j] = d . vecs[:, j]: the offsets in each node's eigenbasis
        v = np.repeat(vecs.reshape(f, 9).T, lengths, axis=1)
        y = d[0] * v[0:3] + d[1] * v[3:6] + d[2] * v[6:9]
        ext = np.maximum.reduceat(y, starts, axis=1) - np.minimum.reduceat(y, starts, axis=1)
        bbox = np.sort(ext.T, axis=1)

        is_leaf = (bbox[:, 2] < params.b_max) | (lengths < MIN_SPLIT_POINTS)

        # y[2] is direction . (p - mu), the split predicate
        go_right = y[2] > 0.0
        right_before = np.concatenate([[0], np.cumsum(go_right)])
        nr = right_before[ends] - right_before[starts]
        # a split that moves nothing (numerically coincident points) ends here
        is_leaf |= (nr == 0) | (nr == lengths)
        interior = ~is_leaf

        normal = normal_pca.copy()
        take = is_leaf & inherits
        normal[take] = inh_n[take]
        valid = interior | inherits | (lengths >= MIN_SPLIT_POINTS)

        # stable in-place partition of interior segments, left side first
        key = np.repeat(2 * np.arange(f, dtype=np.int64), lengths)
        key += np.where(np.repeat(is_leaf, lengths), False, go_right)
        order = np.argsort(key, kind="stable")
        idx[pos] = act_idx[order]

        n_int = int(interior.sum())
        left_ids = np.full(f, -1, dtype=np.int64)
        right_ids = np.full(f, -1, dtype=np.int64)
        if n_int:
            base = allocated
            child = base + 2 * np.arange(n_int, dtype=np.int64)
            left_ids[interior] = child
            right_ids[interior] = child + 1
            allocated += 2 * n_int

        mus_l.append(mu)
        normals_l.append(normal)
        dirs_l.append(np.ascontiguousarray(vecs[:, :, 2].T))
        bbox_l.append(bbox)
        counts_l.append(lengths)
        starts_l.append(lo)
        valid_l.append(valid)
        left_l.append(left_ids)
        right_l.append(right_ids)

        if n_int == 0:
            break
        # next frontier: interleave (left, right) children per interior node
        ilo, ihi, inl = lo[interior], hi[interior], (lengths - nr)[interior]
        lo = np.empty(2 * n_int, dtype=np.int64)
        hi = np.empty(2 * n_int, dtype=np.int64)
        lo[0::2], hi[0::2] = ilo, ilo + inl
        lo[1::2], hi[1::2] = ilo + inl, ihi

        child_inherits = inherits[interior] | (bbox[interior, 0] < params.b_min)
        child_n = np.where(inherits[interior, None], inh_n[interior], normal_pca[interior])
        inherits = np.repeat(child_inherits, 2)
        inh_n = np.repeat(child_n, 2, axis=0)
        depth += 1

    tree = KdTree()
    tree.params = params
    # (3, N) rows transposed: column-major (N, 3), one contiguous column per axis
    tree.mus = np.concatenate(mus_l, axis=1).T
    tree.normals = np.concatenate(normals_l)
    tree.directions = np.concatenate(dirs_l, axis=1).T
    tree.bboxes = np.concatenate(bbox_l)
    tree.counts = np.concatenate(counts_l)
    tree.starts = np.concatenate(starts_l)
    tree.valid = np.concatenate(valid_l)
    tree.left = np.concatenate(left_l)
    tree.right = np.concatenate(right_l)
    tree.point_order = idx
    tree.depth = depth
    leaf_mask = tree.left < 0
    leaf_ids = np.flatnonzero(leaf_mask)
    tree.leaf_ids = leaf_ids[np.argsort(tree.starts[leaf_ids], kind="stable")]
    return tree


def transform_tree(tree: KdTree, x: Isometry3) -> None:
    """Rigidly move every node in place; extents are invariant, no rebuild."""
    rt = x.rotation.T
    # empty_like keeps the column-major layout that descend reads
    mus = np.matmul(tree.mus, rt, out=np.empty_like(tree.mus))
    mus += x.translation
    tree.mus = mus
    tree.normals = tree.normals @ rt
    tree.directions = np.matmul(tree.directions, rt, out=np.empty_like(tree.directions))

