"""Keyframe selection and forest maintenance tests."""
from __future__ import annotations

from collections import deque

import numpy as np

from madlo.localmap import QUEUE_LIMIT, Keyframe, LocalMap
from madlo.madtree import build_tree


def make_tree(rng):
    return build_tree(rng.uniform(0.0, 1.0, size=(30, 3)))


def kf(rng, frame, score=None):
    if score is None:
        score = float(rng.uniform(0.1, 10.0))
    return Keyframe(tree=make_tree(rng), frame_index=frame, score=score)


def queued(m):
    return [c for c, _ in m.candidates]


def test_candidate_queue_is_bounded():
    # falling det(H): no candidate outranks an older one, so only the
    # bound drops any
    rng = np.random.default_rng(61)
    m = LocalMap()
    frames = [kf(rng, i, score=100.0 - i) for i in range(100)]
    for f in frames:
        m.push_candidate(f)
    assert len(m.candidates) == 64
    assert [c.frame_index for c in queued(m)] == list(range(36, 100))


def test_push_drops_candidates_that_cannot_be_promoted():
    rng = np.random.default_rng(73)
    m = LocalMap()
    for i, score in enumerate([1.0, 3.0, 2.0, 2.0, 0.5]):
        m.push_candidate(kf(rng, i, score=score))
    # 0 falls to the higher 1; the first 2.0 to the tie at a later frame
    assert [c.frame_index for c in queued(m)] == [1, 3, 4]
    m.push_candidate(kf(rng, 5, score=-np.inf))
    m.push_candidate(kf(rng, 6, score=-np.inf))
    assert [c.frame_index for c in queued(m)] == [1, 3, 4, 6]


def test_select_best_matches_unpruned_queue_oracle():
    """Over random score sequences with -inf, ties and more pushes than the
    queue holds, interleaved with promotions, the pruned queue promotes what
    a queue of the last QUEUE_LIMIT pushes, searched in full, would."""
    rng = np.random.default_rng(74)
    levels = [0.5, 1.0, 2.0, 3.0]
    tree = make_tree(rng)
    for _ in range(20):
        m = LocalMap()
        oracle = deque(maxlen=QUEUE_LIMIT)
        for i in range(int(rng.integers(1, 3 * QUEUE_LIMIT))):
            if rng.random() < 0.2:
                f = Keyframe(tree, i, -np.inf)
            else:
                f = Keyframe(tree, i, levels[int(rng.integers(len(levels)))])
            m.push_candidate(f)
            oracle.append(f)
            best = max(oracle, key=lambda c: (c.score, c.frame_index))
            want = None if best.score == -np.inf else best
            assert m.select_best() is want
            if rng.random() < 0.05:
                promoted = m.maybe_update(0.0, 0.8)
                assert promoted is (want is not None)
                if promoted:
                    assert m.keyframes[-1] is want
                    oracle.clear()


def test_select_best_single_candidate():
    rng = np.random.default_rng(63)
    m = LocalMap()
    f = kf(rng, 3)
    m.push_candidate(f)
    assert m.select_best() is f


def test_select_best_prefers_larger_determinant():
    rng = np.random.default_rng(64)
    m = LocalMap()
    weak = kf(rng, 0, score=1.0)
    strong = kf(rng, 1, score=2.0)
    m.push_candidate(strong)
    m.push_candidate(weak)
    assert m.select_best() is strong


def test_select_best_matches_lu_determinant_oracle():
    # scores as process_frame logs them: the LU det of a registration's H
    rng = np.random.default_rng(65)
    m = LocalMap()
    frames = []
    for i in range(30):
        a = rng.normal(size=(6, 6)) * rng.uniform(0.5, 3.0)
        frames.append(kf(rng, i, score=float(np.linalg.det(a @ a.T + 0.01 * np.eye(6)))))
        m.push_candidate(frames[-1])
    want = max(frames, key=lambda f: (f.score, f.frame_index))
    assert m.select_best() is want


def test_select_best_tie_breaks_most_recent():
    rng = np.random.default_rng(66)
    m = LocalMap()
    a = kf(rng, 4, score=1.0)
    b = kf(rng, 9, score=1.0)
    m.push_candidate(a)
    m.push_candidate(b)
    assert m.select_best() is b


def test_degenerate_and_indefinite_never_selected():
    # a fallback frame scores -inf; an indefinite H has a negative det,
    # below that of any positive definite one
    rng = np.random.default_rng(67)
    m = LocalMap()
    flagged = kf(rng, 5, score=-np.inf)
    indefinite = kf(rng, 6, score=float(np.linalg.det(np.diag([1.0, 1, 1, 1, 1, -1.0]))))
    weak = kf(rng, 1, score=float(np.linalg.det(1e-3 * np.eye(6))))
    for f in (flagged, indefinite, weak):
        m.push_candidate(f)
    assert m.select_best() is weak


def test_all_degenerate_promotes_nothing():
    rng = np.random.default_rng(68)
    m = LocalMap()
    m.push_candidate(kf(rng, 0, score=-np.inf))
    assert m.select_best() is None
    assert m.maybe_update(0.1, 0.8) is False
    assert len(m.keyframes) == 0
    assert len(m.candidates) == 1  # nothing promoted, queue kept


def test_maybe_update_threshold_semantics():
    rng = np.random.default_rng(69)
    m = LocalMap()
    m.push_candidate(kf(rng, 0))
    assert m.maybe_update(0.8, 0.8) is False    # boundary: no update at p == p_th
    assert len(m.keyframes) == 0
    assert m.maybe_update(0.79, 0.8) is True
    assert len(m.keyframes) == 1
    assert len(m.candidates) == 0               # queue cleared on promotion


def test_maybe_update_empty_queue():
    m = LocalMap()
    assert m.maybe_update(0.0, 0.8) is False


def test_capacity_eviction_drops_oldest():
    rng = np.random.default_rng(70)
    m = LocalMap()
    for i in range(8):
        m.install(kf(rng, i))
    m.push_candidate(kf(rng, 99))
    assert m.maybe_update(0.0, 0.8) is True
    assert len(m.keyframes) == 8
    frames = sorted(f.frame_index for f in m.keyframes)
    assert frames == [1, 2, 3, 4, 5, 6, 7, 99]


def test_no_update_keeps_forest_identical():
    rng = np.random.default_rng(71)
    m = LocalMap()
    m.install(kf(rng, 0))
    before = list(m.trees())
    m.push_candidate(kf(rng, 1))
    m.maybe_update(0.95, 0.8)
    after = m.trees()
    assert all(a is b for a, b in zip(before, after)) and len(after) == 1


def test_selection_is_order_invariant():
    rng = np.random.default_rng(72)
    frames = []
    for i in range(10):
        frames.append(kf(rng, i))
    m1, m2 = LocalMap(), LocalMap()
    for f in frames:
        m1.push_candidate(f)
    for f in reversed(frames):
        m2.push_candidate(f)
    assert m1.select_best() is m2.select_best()

