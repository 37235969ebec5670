"""Scan-to-model alignment between kd-trees of planar patches.

Each scan leaf centroid is pushed through the current pose estimate, dropped
down every model tree, and paired with the leaf it lands in. A pair
contributes a point-to-plane residual e = n_l . (X mu_q - mu_l) when the
landing leaf has a usable normal and lies within an adaptive gate

    r = b_max + ||mu_q|| * b_ratio

that widens with range, where angular leaf footprints grow. Accumulation is
Huber-reweighted Gauss-Newton on SE(3) with a left-multiplied increment; the
6x6 system matrix doubles as the information matrix of the estimate and is
what keyframe selection consumes downstream.

Model trees are processed one after another and reduced in tree order, so
the result is reproducible bit for bit.

Within one call the trees stay put and the queries move only by the pose
increments, so each tree keeps every query's leaf across passes and
re-descends a query only once its accumulated motion may have carried it
across a split plane on its path (cached kd-tree search, Nuechter,
Lingemann & Hertzberg, 3DIM 2007, made exact). The cached leaves are those
a full descent would give, bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Isometry3, exp_se3
from .madtree import KdTree

# increment norm below which the solve has converged
CONVERGENCE_EPSILON = 1e-6
# Levenberg term added to the diagonal of H, scaled by trace(H)/6
DAMPING = 1e-6
# information-matrix condition number beyond which the solve is declared
# unobservable (flat or feature-starved geometry)
CONDITION_LIMIT = 1e12
# Slack added to every step of `_LeafCache`, per unit of S: the largest
# |coordinate| of a query so far in the call plus a bound on that of any node
# centroid, so |q_i - mu_i| <= S; S never shrinks within a call. With
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
# that, which also covers the O(n u) relative error of the centroid bound.
# For 100 m coordinates it is about 3e-12 m per pass.
CACHE_SLACK = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RegistrationParams:
    b_ratio: float = 0.02        # gate growth per meter of range
    rho_ker: float = 0.1         # Huber kernel width, meters
    max_iterations: int | None = 15
    time_budget: float | None = None  # seconds, anytime cutoff

    def __post_init__(self):
        if not (self.b_ratio > 0.0 and self.rho_ker > 0.0):  # NaN fails too
            raise ValueError("b_ratio and rho_ker must be positive")
        if self.time_budget is not None and not self.time_budget > 0.0:
            raise ValueError("time_budget must be positive")
        if self.max_iterations is None and self.time_budget is None:
            raise ValueError("need max_iterations or time_budget to terminate")


@dataclass
class RegistrationResult:
    pose: Isometry3
    information: np.ndarray          # weighted system matrix of the last pass
    matched_fraction: float          # valid scan leaves with >= 1 accepted match
    iterations: int
    mean_error: float                # mean |e| over accepted pairs, last pass
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
    a = np.abs(e)
    return np.where(a <= rho_ker, 1.0, rho_ker / np.maximum(a, 1e-300))


def huber_cost(e, rho_ker: float):
    a = np.abs(e)
    return np.where(a <= rho_ker, 0.5 * a * a, rho_ker * (a - 0.5 * rho_ker))


def associate(tree: KdTree, ids: np.ndarray, wq: np.ndarray, radii: np.ndarray):
    """Gated association of (N, 3) world-frame query centroids against one
    model tree, given the leaves ``ids`` they descend to: returns the
    acceptance mask and the landing leaves' centroids and normals."""
    mu_l = tree.mus[ids]
    diff = wq - mu_l
    dist = np.sqrt(np.einsum("ni,ni->n", diff, diff))
    acc = (dist <= radii) & tree.valid[ids]
    return acc, mu_l, tree.normals[ids]


def point_to_plane(wq: np.ndarray, mu_l: np.ndarray, n_l: np.ndarray):
    """Residuals e = n_l . (X mu_q - mu_l) and their (N, 6) Jacobian rows.

    ``wq`` holds the already transformed centroids X mu_q. Differentiating
    e(xi) = n_l . (exp(xi) X mu_q - mu_l) at xi = 0 gives n_l for the
    translational columns and cross(X mu_q, n_l) for the rotational ones.
    """
    e = np.einsum("ni,ni->n", n_l, wq - mu_l)
    jac = np.hstack([n_l, np.cross(wq, n_l)])
    return e, jac


def _accumulate(tree: KdTree, ids: np.ndarray, wq: np.ndarray, radii: np.ndarray,
                rho_ker: float):
    acc, mu_l, n_l = associate(tree, ids, wq, radii)
    e, jac = point_to_plane(wq[acc], mu_l[acc], n_l[acc])
    w = huber_weight(e, rho_ker)
    h = np.einsum("ki,kj->ij", jac * w[:, None], jac)
    b = np.einsum("ki,k->i", jac, w * e)
    cost = float(huber_cost(e, rho_ker).sum())
    abs_sum = float(np.abs(e).sum())
    return h, b, acc, cost, abs_sum, int(acc.sum())


class _LeafCache:
    """Every query's leaf in each model tree, kept for one ``icp`` call.

    For each tree, ``remaining`` is each query's smallest ``|d . (q - mu)|``
    over the interior nodes of its path at its last descent, less the steps
    it has taken since. A step of length s moves each such projection by at
    most s (|d| = 1), so a query with ``remaining > 0`` still lands in the
    same leaf; the others descend again. 16 B per query per tree, plus the
    previous queries.
    """

    def __init__(self, model: "list[KdTree]"):
        self.model = model
        # every node centroid is a mean of its tree's points, which lie
        # within the root's extents of the root centroid
        self.mu_scale = max(float(np.linalg.norm(t.mus[0]) + np.linalg.norm(t.bboxes[0]))
                            for t in model)
        self.q_scale = 0.0
        self.wq_prev = None
        self.ids: list[np.ndarray] = []
        self.remaining: list[np.ndarray] = []

    def leaves(self, wq: np.ndarray) -> "list[np.ndarray]":
        """Leaf ids of the (N, 3) queries ``wq`` in each tree, in tree order."""
        self.q_scale = max(self.q_scale, float(np.abs(wq).max(initial=0.0)))
        if self.wq_prev is None:
            self.remaining = [np.empty(wq.shape[0]) for _ in self.model]
            self.ids = [t.descend(wq, m) for t, m in zip(self.model, self.remaining)]
        else:
            diff = wq - self.wq_prev
            step = np.sqrt(np.einsum("ni,ni->n", diff, diff))
            step += CACHE_SLACK * (self.q_scale + self.mu_scale)
            for tree, ids, remaining in zip(self.model, self.ids, self.remaining):
                remaining -= step
                stale = np.flatnonzero(~(remaining > 0.0))  # NaN descends too
                if stale.size:
                    margin = np.empty(stale.size)
                    ids[stale] = tree.descend(wq[stale], margin)
                    remaining[stale] = margin
        self.wq_prev = wq
        return self.ids


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
    mean_error = 0.0
    iterations = 0
    cost_history: list[float] = []
    cache = _LeafCache(model)
    start = time.perf_counter()

    while True:
        if params.max_iterations is not None and iterations >= params.max_iterations:
            break
        if params.time_budget is not None and time.perf_counter() - start >= params.time_budget:
            break

        wq = pose.apply(mus_q) if n_queries else mus_q
        h = np.zeros((6, 6))
        b = np.zeros(6)
        matched = np.zeros(n_queries, dtype=bool)
        cost = 0.0
        abs_sum = 0.0
        n_acc = 0
        for tree, ids in zip(model, cache.leaves(wq)):  # fixed tree order: deterministic
            ht, bt, acc, ct, at, na = _accumulate(tree, ids, wq, radii, params.rho_ker)
            h += ht
            b += bt
            matched |= acc
            cost += ct
            abs_sum += at
            n_acc += na

        h_final = h
        mean_error = abs_sum / n_acc if n_acc else 0.0
        cost_history.append(cost)
        iterations += 1

        trace = float(np.trace(h))
        if trace <= 0.0:
            break
        xi = np.linalg.solve(h + (DAMPING * trace / 6.0) * np.eye(6), -b)
        pose = exp_se3(xi) @ pose
        if float(np.linalg.norm(xi)) < CONVERGENCE_EPSILON:
            break

    p = float(matched.sum()) / n_queries if n_queries else 0.0
    result = RegistrationResult(
        pose=pose,
        information=h_final,
        matched_fraction=p,
        iterations=iterations,
        mean_error=mean_error,
        cost_history=cost_history,
    )
    eigvals = np.linalg.eigvalsh(h_final)
    if eigvals[-1] <= 0.0 or eigvals[-1] > CONDITION_LIMIT * eigvals[0]:
        raise DegenerateRegistrationError(result)
    return result
