"""Keyframe forest used as the registration model.

Every processed frame becomes a candidate; when scan-to-map overlap drops,
the candidate whose registration carried the most information is promoted
to a keyframe. A candidate's score is the det(H) its frame logs as
``det_H``: the largest is the tightest pose covariance, and a fallback
frame scores -inf, so it is never promoted. The forest holds world-frame
trees only and drops the oldest keyframe beyond capacity, keeping update
cost bounded.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .madtree import KdTree

# keyframes kept in the forest; the oldest beyond this is dropped
CAPACITY = 8
# only the candidates of this many latest pushes can be promoted
QUEUE_LIMIT = 64


@dataclass
class Keyframe:
    tree: KdTree                 # world frame
    frame_index: int
    score: float                 # det(H) of the frame's registration; -inf bars promotion


class LocalMap:
    """Bounded keyframe forest plus the candidate queue feeding it.

    A push drops every queued candidate that the new one outranks by
    (score, frame index), i.e. in frame order one whose score is no higher:
    it can never be promoted. The queue therefore ranks from its oldest
    candidate down to its newest, and its head is the best of the last
    ``QUEUE_LIMIT`` pushes (a sliding-window maximum). Each candidate is
    queued beside its push number, which is all the window needs.

    Keyframes arrive in frame order: ``install`` only bootstraps an empty
    map, and the queue is cleared at each promotion, so a promoted candidate
    is newer than every keyframe. ``keyframes`` is a deque of at most
    ``CAPACITY``, and dropping its first entry drops the oldest keyframe.
    """

    def __init__(self):
        self.keyframes: deque[Keyframe] = deque(maxlen=CAPACITY)
        # (candidate, push number), in queue order
        self.candidates: deque[tuple[Keyframe, int]] = deque()
        self._pushes = 0

    def trees(self) -> list[KdTree]:
        return [kf.tree for kf in self.keyframes]

    def push_candidate(self, kf: Keyframe) -> None:
        rank = (kf.score, kf.frame_index)
        while self.candidates and (self.candidates[-1][0].score,
                                   self.candidates[-1][0].frame_index) < rank:
            self.candidates.pop()
        self._pushes += 1
        self.candidates.append((kf, self._pushes))
        # only the last QUEUE_LIMIT pushes are eligible
        if self.candidates[0][1] <= self._pushes - QUEUE_LIMIT:
            self.candidates.popleft()

    def install(self, kf: Keyframe) -> None:
        """Unconditional insertion (bootstrap frame)."""
        self.keyframes.append(kf)

    def select_best(self) -> Keyframe | None:
        """Candidate with the largest score; ties go to the most recent frame."""
        if not self.candidates or self.candidates[0][0].score == -np.inf:
            return None
        return self.candidates[0][0]

    def maybe_update(self, matched_fraction: float, p_th: float) -> bool:
        """Promote the best candidate when overlap dropped below p_th.

        Returns True when a keyframe was added. Candidates are cleared only
        on promotion; a queue of fallback candidates promotes nothing.
        """
        if matched_fraction >= p_th:
            return False
        best = self.select_best()
        if best is None:
            return False
        self.keyframes.append(best)
        self.candidates.clear()
        return True
