"""Keyframe forest used as the registration model.

Every processed frame becomes a candidate; when scan-to-map overlap drops,
the candidate whose registration carried the most information (largest
det(H), i.e. the tightest pose covariance) is promoted to a keyframe. The
forest holds world-frame trees only and evicts the oldest keyframe beyond
capacity, keeping update cost bounded.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .madtree import KdTree

# keyframes kept in the forest; the oldest beyond this is evicted
CAPACITY = 8
# candidates waiting for promotion; the oldest beyond this is dropped
QUEUE_LIMIT = 64


@dataclass
class Keyframe:
    tree: KdTree                 # world frame
    information: np.ndarray      # 6x6 registration system matrix
    frame_index: int
    degenerate: bool = False     # came out of a rank-deficient solve


def _score(kf: Keyframe) -> float:
    """log det(H) via Cholesky; anything non-PSD (or flagged) scores -inf."""
    if kf.degenerate:
        return -np.inf
    try:
        chol = np.linalg.cholesky(kf.information)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


class LocalMap:
    """Bounded keyframe forest plus the candidate queue feeding it."""

    def __init__(self):
        self.keyframes: list[Keyframe] = []
        self.candidates: deque[Keyframe] = deque(maxlen=QUEUE_LIMIT)

    def trees(self) -> list[KdTree]:
        return [kf.tree for kf in self.keyframes]

    def push_candidate(self, kf: Keyframe) -> None:
        self.candidates.append(kf)

    def install(self, kf: Keyframe) -> None:
        """Unconditional insertion (bootstrap frame)."""
        self.keyframes.append(kf)
        self._evict()

    def select_best(self) -> Keyframe | None:
        """Candidate with maximal det(H); ties go to the most recent frame."""
        best = None
        best_key = (-np.inf, -1)
        for kf in self.candidates:
            key = (_score(kf), kf.frame_index)
            if best is None or key > best_key:
                best, best_key = kf, key
        if best is None or best_key[0] == -np.inf:
            return None
        return best

    def maybe_update(self, matched_fraction: float, p_th: float) -> bool:
        """Promote the best candidate when overlap dropped below p_th.

        Returns True when a keyframe was added. Candidates are cleared only
        on promotion; a queue full of degenerate candidates promotes nothing.
        """
        if matched_fraction >= p_th or not self.candidates:
            return False
        best = self.select_best()
        if best is None:
            return False
        self.keyframes.append(best)
        self._evict()
        self.candidates.clear()
        return True

    def _evict(self) -> None:
        while len(self.keyframes) > CAPACITY:
            oldest = min(range(len(self.keyframes)),
                         key=lambda i: self.keyframes[i].frame_index)
            self.keyframes.pop(oldest)

