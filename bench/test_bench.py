"""Tests of the benchmark's own machinery: python3 -m pytest bench"""
from __future__ import annotations

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import scenes  # noqa: E402
from stats import TAIL_BEYOND, percentile, self_time, tail_percentile, union_length  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = scenes.generate("room_burst_5k", 7, tmp_path / "a")
    b = scenes.generate("room_burst_5k", 7, tmp_path / "b")
    c = scenes.generate("room_burst_5k", 8, tmp_path / "c")
    assert a["sha256"] == b["sha256"]
    manifest = Path("manifest.json")
    assert (tmp_path / "a" / manifest).read_bytes() == (tmp_path / "b" / manifest).read_bytes()
    assert a["sha256"]["scans/000000.ply"] != c["sha256"]["scans/000000.ply"]
    assert len(a["sha256"]) == a["frames"] + 2  # scans, times.txt, poses.txt


def test_generated_sequence_matches_its_design(tmp_path):
    m = scenes.generate("room_burst_5k", 3, tmp_path)
    w = scenes.WORKLOADS["room_burst_5k"]
    gt = scenes.read_poses(tmp_path / "poses.txt")
    assert len(gt) == w.frames and json.loads((tmp_path / "manifest.json").read_text()) == m
    assert gt[0] == pytest.approx(np.eye(4))
    steps = [float(np.linalg.norm(gt[k + 1][:3, 3] - gt[k][:3, 3])) for k in range(w.frames - 1)]
    assert steps == pytest.approx([0.2] * (w.frames - 1))
    burst = set(range(*w.burst))
    sizes = m["points_written"]
    others = [sizes[k] for k in range(w.frames) if k not in burst]
    assert max(sizes[k] for k in burst) < 0.3 * min(others)


def test_spinning_scan_times_match_azimuth_synthesis(tmp_path):
    """A stored street sweep carries the firing order synthesize_rel_times
    assumes: s recovered from azimuth equals the firing fraction (modulo one
    sweep: points of the first column may round to just under a full turn)."""
    from madlo.dataset_io import synthesize_rel_times
    from madlo.geometry import PointCloud

    rng = np.random.default_rng(0)
    scene = scenes.street_scene(rng, -40.0, 40.0)
    pose = np.eye(4)
    pose[2, 3] = 1.73
    twist = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.01])
    scanner = scenes.Scanner(16, 360, -24.9, 2.0, 60.0)
    pts, s = scenes.sweep(scene, scanner, rng, rng, pose, twist, 0.3, True)
    synth = synthesize_rel_times(PointCloud(pts)).rel_times
    d = np.mod(synth - (s - s[0]), 1.0)
    assert np.minimum(d, 1.0 - d).max() < 1e-9


@pytest.mark.parametrize("n, expected", [(20, 50), (25, 60), (44, 77), (89, 88), (1000, 99)])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    assert n - math.ceil(p * n / 100) >= TAIL_BEYOND
    assert p == 99 or n - math.ceil((p + 1) * n / 100) < TAIL_BEYOND


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        tail_percentile(TAIL_BEYOND)


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50 and percentile(xs, 90) == 90 and percentile(xs, 100) == 100
    assert percentile([3.0], 1) == 3.0


def test_self_time_counts_overlapping_children_once():
    assert union_length([(1, 4), (3, 6), (8, 12)]) == 9
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0
    # children overlap each other and stick out past the parent's end
    assert self_time(0.0, 10.0, [(1, 4), (3, 6), (8, 12)]) == 3.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(5.0, 6.0, [(0, 1)]) == 1.0


def test_worker_thread_spans_attach_to_the_span_that_caused_them():
    import tracing

    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def work(_):
        barrier.wait(timeout=10)
        with tracer.span("madtree.descend"):
            pass

    with tracer.span("registration.icp"):
        icp_id = tracer.spans[-1]["id"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    descends = [sp for sp in tracer.spans if sp["name"] == "madtree.descend"]
    assert len(descends) == 2
    assert all(sp["parent"] == icp_id for sp in descends)
    assert len({sp["thread"] for sp in descends}) == 2
    assert tracer.spans[icp_id]["parent"] is None


def test_instrument_restores_every_entry_point():
    import madlo.pipeline as pipeline
    import tracing
    from madlo.madtree import KdTree

    before = (pipeline.icp, pipeline.build_tree, pipeline.process_frame, KdTree.descend)
    with tracing.instrument(tracing.Tracer()):
        assert pipeline.icp is not before[0] and KdTree.descend is not before[3]
    assert (pipeline.icp, pipeline.build_tree, pipeline.process_frame, KdTree.descend) == before
