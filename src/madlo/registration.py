"""Scan-to-model alignment between kd-trees of planar patches.

Each scan leaf centroid is pushed through the current pose estimate, dropped
down every model tree, and paired with the leaf it lands in. A pair
contributes a point-to-plane residual e = n_l . (X mu_q - mu_l) when the
landing leaf has a usable normal and lies within an adaptive gate

    r = b_max + ||mu_q|| * b_ratio

that widens with range, where angular leaf footprints grow. Accumulation is
Huber-reweighted Gauss-Newton on SE(3) with a left-multiplied increment; the
6x6 system matrix doubles as the information matrix of the estimate and is
what keyframe selection consumes downstream. The loop stops once an
increment moves the pose by less than 1e-4 m and 1e-4 rad, each part of
the twist measured in its own unit (KISS-ICP stops on a 1e-4 increment
too).

Model trees are accumulated one after another and reduced in tree order, so
the result is reproducible bit for bit. A tree's H and b are two matrix
products over its accepted rows, J^T W J and J^T W e.

Within one call the trees stay put and the queries move only by the pose
increments, so every query keeps its leaf in each tree across passes, and
is sent down a tree again only once its accumulated motion may have carried
it across a split plane on its path (cached kd-tree search, Nuechter,
Lingemann & Hertzberg, 3DIM 2007, made exact). For each query and tree
the cache keeps the landing leaf's centroid, normal and validity, bit for
bit those of a full descent. The call stacks the trees (centroid, split
direction, normal, validity, offset child id: 81 B per node) into one
forest with ``madtree.stack_trees``. Each pass sends the stale
(tree, query) rows down it with ``KdTree.descend``, each from its own
tree's root, and gathers their landing data from it; on the first pass
every row is stale. The cache costs 57 B per query per tree.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Isometry3, exp_se3
from .madtree import KdTree, stack_trees

# the solve has converged once an increment moves the pose by less than both:
# metres of translation and radians of rotation (xi[:3] and xi[3:])
CONVERGED_TRANSLATION = 1e-4
CONVERGED_ROTATION = 1e-4
# Levenberg term added to the diagonal of H, scaled by trace(H)/6
DAMPING = 1e-6
# information-matrix condition number beyond which the solve is declared
# unobservable (flat or feature-starved geometry)
CONDITION_LIMIT = 1e12
# Slack added to every step of `_LeafCache`, per unit of S: the largest
# |coordinate| of a query so far in the call plus that of any node centroid
# in the forest, so |q_i - mu_i| <= S; S never shrinks within a call. With
# u = 2**-53, |d| <= 1 + 8u (a rotated unit eigenvector) and |d|_1 < 1.74,
# each error below is at most a fixed multiple of u S per step:
#  - proj = d . (q - mu) rounds four times per term, so the computed value is
#    within 4.001u * |d|_1 * S < 7u S of the exact one; once at the last
#    descent and once now, 14u S, which the latest step pays;
#  - a move changes the exact proj by at most (1 + 8u) |q' - q|, and the
#    computed step is low by at most 5u of itself, with |q' - q| <= 2 sqrt(3) S:
#    46u S;
#  - `step += slack` rounds down by at most u (3.47 S + slack), and
#    `remaining -= step` by at most u * remaining <= u * margin <= 1.8u S,
#    since a query is kept only while 0 < remaining <= margin <= 1.74 S:
#    5.3u S.
# So while the computed `remaining` stays above zero after steps with
# 66u S = 33 eps S of slack each, no proj on the query's path has changed
# sign, and proj == 0 (margin 0) always descends again. The slack is twice
# that. For 100 m coordinates it is about 3e-12 m per pass.
CACHE_SLACK = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RegistrationParams:
    b_ratio: float = 0.02        # gate growth per meter of range
    rho_ker: float = 0.1         # Huber kernel width, meters
    max_iterations: int = 15
    time_budget_ms: float | None = None  # anytime cutoff

    def __post_init__(self):
        if not (0.0 < self.b_ratio < np.inf and 0.0 < self.rho_ker < np.inf):  # NaN fails too
            raise ValueError("b_ratio and rho_ker must be positive and finite")
        if self.time_budget_ms is not None and not self.time_budget_ms > 0.0:
            raise ValueError("time_budget_ms must be positive")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, (int, np.integer))
                or self.max_iterations < 1):
            raise ValueError(f"max_iterations must be an int >= 1, got {self.max_iterations!r}")


@dataclass
class RegistrationResult:
    pose: Isometry3
    information: np.ndarray          # weighted system matrix of the last pass
    matched_fraction: float          # valid scan leaves with >= 1 accepted match
    iterations: int
    # why the loop ended: "converged", "iteration_cap", "time_budget" or
    # "no_information" (trace(H) <= 0: nothing matched)
    reason: str
    cost_history: list = field(default_factory=list)


class DegenerateRegistrationError(Exception):
    """Raised when H is rank-deficient; carries the partial result."""

    def __init__(self, result: RegistrationResult):
        super().__init__(
            f"registration information matrix is rank deficient "
            f"(matched fraction {result.matched_fraction:.3f})"
        )
        self.result = result


def gate_radius(mu_q: np.ndarray, b_max: float, b_ratio: float) -> np.ndarray:
    """Acceptance radii around scan leaves with (N, 3) sensor-frame centroids."""
    return b_max + np.linalg.norm(mu_q, axis=1) * b_ratio


def huber_weight(e, rho_ker: float):
    """IRLS weight: 1 inside the kernel, rho_ker/|e| outside."""
    return rho_ker / np.maximum(np.abs(e), rho_ker)


def huber_cost(e, rho_ker: float):
    a = np.abs(e)
    return np.where(a <= rho_ker, 0.5 * a * a, rho_ker * (a - 0.5 * rho_ker))


def associate(wq: np.ndarray, radii: np.ndarray, mu_l: np.ndarray, valid: np.ndarray):
    """Gated association of (N, 3) world-frame query centroids against one
    model tree, given the centroids ``mu_l`` and normal validity ``valid`` of
    the leaves they land in: returns the acceptance mask."""
    diff = wq - mu_l
    dist = np.sqrt(np.einsum("ni,ni->n", diff, diff))
    return (dist <= radii) & valid


def point_to_plane(wq: np.ndarray, mu_l: np.ndarray, n_l: np.ndarray,
                   jac: np.ndarray | None = None):
    """Residuals e = n_l . (X mu_q - mu_l) and their (N, 6) Jacobian rows,
    written into ``jac`` when given.

    ``wq`` holds the already transformed centroids X mu_q. Differentiating
    e(xi) = n_l . (exp(xi) X mu_q - mu_l) at xi = 0 gives n_l for the
    translational columns and cross(X mu_q, n_l) for the rotational ones.
    """
    e = np.einsum("ni,ni->n", n_l, wq - mu_l)
    if jac is None:
        jac = np.empty((wq.shape[0], 6))
    jac[:, :3] = n_l
    # cross(wq, n_l) with np.cross's operations, in its order
    a, n = wq.T, n_l.T
    tmp = np.empty(wq.shape[0])
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.multiply(a[i], n[j], out=jac[:, 3 + k])
        jac[:, 3 + k] -= np.multiply(a[j], n[i], out=tmp)
    return e, jac


def _accumulate(wq: np.ndarray, radii: np.ndarray, mu_l: np.ndarray, n_l: np.ndarray,
                valid: np.ndarray, jac: np.ndarray, rho_ker: float):
    """One tree's Gauss-Newton terms; ``jac`` is scratch with a row per query."""
    acc = associate(wq, radii, mu_l, valid)
    # take on row indices: a boolean mask gathers (N, 3) rows several times slower
    rows = np.flatnonzero(acc)
    e, jac = point_to_plane(wq.take(rows, axis=0), mu_l.take(rows, axis=0),
                            n_l.take(rows, axis=0), jac[:rows.size])
    w = huber_weight(e, rho_ker)
    h = (jac * w[:, None]).T @ jac
    b = jac.T @ (w * e)
    cost = float(huber_cost(e, rho_ker).sum())
    return h, b, acc, cost


class _LeafCache:
    """What every query found in each model tree, kept for one ``icp`` call.

    Row t of each array belongs to tree t: ``mu_l``, ``n_l`` and ``valid``
    hold the centroid, normal and normal validity of the leaf the query
    lands in. ``remaining`` is each query's smallest ``|d . (q - mu)|`` over
    the interior nodes of its path at its last descent, less the steps it
    has taken since. A step of length s moves each such projection by at
    most s (|d| = 1), so a query with ``remaining > 0`` still lands in the
    same leaf; the others are stale. ``remaining`` starts at 0, so on the
    first pass every row is. Stale rows descend the stacked forest again,
    at most N per walk so its temporaries stay N-sized, and only they are
    refreshed. 57 B per query per tree, plus the previous queries and the
    forest.
    """

    def __init__(self, model: "list[KdTree]"):
        self.forest, self.first = stack_trees(model)
        # the largest |coordinate| of any node centroid in the forest
        mus = self.forest.mus
        self.mu_scale = max(float(mus.max()), -float(mus.min()))
        self.q_scale = 0.0
        self.wq_prev = None

    def update(self, wq: np.ndarray) -> None:
        """Land the (N, 3) queries ``wq`` in every tree."""
        n = wq.shape[0]
        self.q_scale = max(self.q_scale, float(np.abs(wq).max(initial=0.0)))
        if self.wq_prev is None:
            shape = (len(self.first), n)
            self.remaining = np.zeros(shape)
            self.mu_l = np.empty(shape + (3,))
            self.n_l = np.empty(shape + (3,))
            self.valid = np.empty(shape, dtype=bool)
        else:
            diff = wq - self.wq_prev
            step = np.sqrt(np.einsum("ni,ni->n", diff, diff))
            step += CACHE_SLACK * (self.q_scale + self.mu_scale)
            self.remaining -= step
        self.wq_prev = wq
        stale = np.flatnonzero(~(self.remaining > 0.0))  # NaN descends too
        forest = self.forest
        for lo in range(0, stale.size, max(n, 1)):
            rows = stale[lo:lo + n]
            tree_of, q = np.divmod(rows, n)
            margin = np.empty(rows.size)
            nodes = forest.descend(wq.take(q, axis=0), margin, self.first[tree_of])
            self.remaining.reshape(-1)[rows] = margin
            # fancy indexing: take along rows of a column-major array is slow
            self.mu_l.reshape(-1, 3)[rows] = forest.mus[nodes]
            self.n_l.reshape(-1, 3)[rows] = forest.normals.take(nodes, axis=0)
            self.valid.reshape(-1)[rows] = forest.valid.take(nodes)


def icp(model: "list[KdTree]", scan: KdTree, guess: Isometry3,
        params: RegistrationParams = RegistrationParams()) -> RegistrationResult:
    """Align a scan tree against the model forest starting from ``guess``.

    Anytime: stops on convergence, iteration cap, or time budget, whichever
    comes first, and reports the state of the last completed pass. Raises
    DegenerateRegistrationError (carrying the partial result) when the final
    system matrix is rank deficient.
    """
    model = list(model)
    if not model:
        raise ValueError("model forest is empty")
    if scan.num_leaves == 0:
        raise ValueError("scan tree has no leaves")

    q_valid = scan.leaf_valid()
    mus_q = scan.leaf_mus()[q_valid]
    n_queries = mus_q.shape[0]
    radii = gate_radius(mus_q, scan.params.b_max, params.b_ratio)

    pose = guess
    h_final = np.zeros((6, 6))
    matched = np.zeros(n_queries, dtype=bool)
    iterations = 0
    cost_history: list[float] = []
    cache = _LeafCache(model)
    jac = np.empty((n_queries, 6))
    start = time.perf_counter()

    while True:
        if iterations >= params.max_iterations:
            reason = "iteration_cap"
            break
        if (params.time_budget_ms is not None
                and (time.perf_counter() - start) * 1e3 >= params.time_budget_ms):
            reason = "time_budget"
            break

        wq = pose.apply(mus_q)
        cache.update(wq)
        h = np.zeros((6, 6))
        b = np.zeros(6)
        matched = np.zeros(n_queries, dtype=bool)
        cost = 0.0
        for t in range(len(model)):  # fixed tree order: deterministic
            ht, bt, acc, ct = _accumulate(wq, radii, cache.mu_l[t], cache.n_l[t],
                                          cache.valid[t], jac, params.rho_ker)
            h += ht
            b += bt
            matched |= acc
            cost += ct

        h_final = h
        cost_history.append(cost)
        iterations += 1

        trace = float(np.trace(h))
        if trace <= 0.0:
            reason = "no_information"
            break
        xi = np.linalg.solve(h + (DAMPING * trace / 6.0) * np.eye(6), -b)
        pose = exp_se3(xi) @ pose
        if (float(np.linalg.norm(xi[:3])) < CONVERGED_TRANSLATION
                and float(np.linalg.norm(xi[3:])) < CONVERGED_ROTATION):
            reason = "converged"
            break

    p = float(matched.sum()) / n_queries if n_queries else 0.0
    result = RegistrationResult(
        pose=pose,
        information=h_final,
        matched_fraction=p,
        iterations=iterations,
        reason=reason,
        cost_history=cost_history,
    )
    eigvals = np.linalg.eigvalsh(h_final)
    if eigvals[-1] <= 0.0 or eigvals[-1] > CONDITION_LIMIT * eigvals[0]:
        raise DegenerateRegistrationError(result)
    return result
