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
# only the candidates of this many latest pushes can be promoted
QUEUE_LIMIT = 64


@dataclass
class Keyframe:
    tree: KdTree                 # world frame
    information: np.ndarray      # 6x6 registration system matrix
    frame_index: int
    degenerate: bool = False     # came out of a rank-deficient solve


def _score(kf: Keyframe) -> float:
    """log det(H) via Cholesky; anything non-PSD (or flagged) scores -inf.

    Never NaN: numpy's Cholesky returns NaN for a NaN matrix rather than
    failing, so a factor whose diagonal is not all positive scores -inf too;
    the others have each log in (-inf, inf], so no -inf meets an inf.
    """
    if kf.degenerate:
        return -np.inf
    try:
        diag = np.diag(np.linalg.cholesky(kf.information))
    except np.linalg.LinAlgError:
        return -np.inf
    if not (diag > 0.0).all():
        return -np.inf
    return 2.0 * float(np.sum(np.log(diag)))


class LocalMap:
    """Bounded keyframe forest plus the candidate queue feeding it.

    A push drops every queued candidate that the new one outranks by
    (det(H) score, frame index), i.e. in frame order one whose det(H) is no
    higher: it can never be promoted. The queue therefore ranks from its
    oldest candidate down to its newest, and its head is the best of the
    last ``QUEUE_LIMIT`` pushes (a sliding-window maximum). A score is never
    NaN (see ``_score``), so any two ranks compare.
    """

    def __init__(self):
        self.keyframes: list[Keyframe] = []
        self.candidates: deque[Keyframe] = deque()
        # (score, frame index, push count) of each candidate, in queue order
        self._ranks: deque[tuple[float, int, int]] = deque()
        self._pushes = 0

    def trees(self) -> list[KdTree]:
        return [kf.tree for kf in self.keyframes]

    def push_candidate(self, kf: Keyframe) -> None:
        rank = (_score(kf), kf.frame_index)
        while self._ranks and self._ranks[-1][:2] < rank:
            self._ranks.pop()
            self.candidates.pop()
        self._pushes += 1
        self._ranks.append((*rank, self._pushes))
        self.candidates.append(kf)
        # only the last QUEUE_LIMIT pushes are eligible
        if self._ranks[0][2] <= self._pushes - QUEUE_LIMIT:
            self._ranks.popleft()
            self.candidates.popleft()

    def install(self, kf: Keyframe) -> None:
        """Unconditional insertion (bootstrap frame)."""
        self.keyframes.append(kf)
        self._evict()

    def select_best(self) -> Keyframe | None:
        """Candidate with maximal det(H); ties go to the most recent frame."""
        if not self.candidates or self._ranks[0][0] == -np.inf:
            return None
        return self.candidates[0]

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
        self._ranks.clear()
        return True

    def _evict(self) -> None:
        while len(self.keyframes) > CAPACITY:
            oldest = min(range(len(self.keyframes)),
                         key=lambda i: self.keyframes[i].frame_index)
            self.keyframes.pop(oldest)

