"""End-to-end odometry loop tests on synthetic worlds."""
from __future__ import annotations

import numpy as np
import pytest
from worldsim import big_room_panels, panel, rotation_angle_deg, sample_panels, scan_cloud

from madlo.dataset_io import PointCloud, RunConfig, ScanSource, write_kitti_bin, write_trajectory_kitti
from madlo import pipeline
from madlo.geometry import Isometry3
from madlo.motion import deskew
from madlo.pipeline import (
    OdometryState,
    SequenceAborted,
    process_frame,
    run_sequence,
    validate_config,
)


def config(**overrides) -> RunConfig:
    base = dict(deskew=False, threads=1)
    base.update(overrides)
    return RunConfig(**base)


def room_pose(x=15.0, y=15.0) -> Isometry3:
    return Isometry3(np.eye(3), np.array([x, y, 1.5]))


def corridor_poses(n, step=0.2):
    return [Isometry3(np.eye(3), np.array([2.0 + step * k, 0.0, 1.5]))
            for k in range(n)]


# ------------------------------------------------------------ frame loop


def test_validate_config_rejects_unusable_values():
    validate_config(config())
    nan = float("nan")
    bad = [dict(b_max=-1.0), dict(b_min=0.3), dict(b_ratio=0.0), dict(rho_ker=-0.1),
           dict(p_th=0.0), dict(p_th=1.5), dict(n=1), dict(threads=0),
           dict(scan_period=0.0), dict(min_range=200.0), dict(min_range=-1.0),
           dict(max_iterations=0), dict(b_ratio=nan), dict(rho_ker=nan),
           dict(scan_period=nan), dict(time_budget_ms=nan), dict(time_budget_ms=0.0),
           dict(time_budget_ms=-5.0)]
    for overrides in bad:
        with pytest.raises(ValueError):
            validate_config(config(**overrides))
        with pytest.raises(ValueError):
            OdometryState.initial(config(**overrides))


def test_first_frame_bootstraps_map():
    rng = np.random.default_rng(120)
    state = OdometryState.initial(config())
    out = process_frame(state, scan_cloud(rng, big_room_panels(), room_pose(), n=4000))
    assert np.array_equal(out.pose.matrix(), Isometry3.identity().matrix())
    assert out.matched_fraction == 1.0 and not out.fallback
    assert [kf.frame_index for kf in state.local_map.keyframes] == [0]
    assert len(state.trajectory) == 1


def test_zero_twist_frames_skip_deskew(monkeypatch):
    # frames 0 and 1 run with zero velocity, where deskew would only copy the
    # cloud: it is skipped, and their poses and trees match a run with deskew
    # off byte for byte
    rng = np.random.default_rng(125)
    clouds = [scan_cloud(rng, big_room_panels(), room_pose(15.0 + 0.2 * k), n=3000)
              for k in range(3)]
    deskewed = []

    def counting(cloud, *args):
        deskewed.append(len(cloud))
        return deskew(cloud, *args)

    monkeypatch.setattr(pipeline, "deskew", counting)
    states = [OdometryState.initial(config(deskew=on)) for on in (True, False)]
    for state in states:
        for cloud in clouds[:2]:
            process_frame(state, cloud)
    assert deskewed == []
    for a, b in zip(states[0].trajectory, states[1].trajectory):
        assert a.pose.matrix().tobytes() == b.pose.matrix().tobytes()
    kfs = [sorted([*s.local_map.keyframes, *s.local_map.candidates],
                  key=lambda kf: kf.frame_index) for s in states]
    assert [kf.frame_index for kf in kfs[0]] == [0, 1]
    for kf_a, kf_b in zip(*kfs):
        for name in ("mus", "normals", "directions", "bboxes", "point_order"):
            assert getattr(kf_a.tree, name).tobytes() == getattr(kf_b.tree, name).tobytes()
    process_frame(states[0], clouds[2])  # moving now
    assert deskewed == [len(clouds[2])]


def test_static_scene_pose_stays_identity_with_no_map_updates():
    rng = np.random.default_rng(121)
    scan = scan_cloud(rng, big_room_panels(), room_pose(), n=4000)
    state = OdometryState.initial(config())
    for _ in range(6):
        out = process_frame(state, scan)
    for sp in state.trajectory:
        assert np.linalg.norm(sp.pose.translation) < 1e-6
        assert rotation_angle_deg(sp.pose.rotation) < np.degrees(1e-6)
    assert out.matched_fraction > 0.8 and not out.fallback
    assert [kf.frame_index for kf in state.local_map.keyframes] == [0]


def test_corridor_traversal_tracks_to_under_one_percent():
    rng = np.random.default_rng(122)
    from worldsim import corridor_panels

    panels = corridor_panels(length=80.0)
    poses = corridor_poses(200)
    state = OdometryState.initial(config())
    outputs = [process_frame(state, scan_cloud(rng, panels, p, n=2000)) for p in poses]
    assert len(state.trajectory) == 200
    assert not any(out.fallback for out in outputs)
    x0 = poses[0]
    path = 0.2 * 199
    err = np.linalg.norm(
        state.trajectory[-1].pose.translation - (x0.inverse() @ poses[-1]).translation)
    assert err < 0.01 * path
    assert len(state.local_map.keyframes) > 1  # overlap drops fired updates


def test_degenerate_burst_falls_back_and_recovers():
    # a single visible plane only drops the system rank exactly when the
    # matched model normals are exactly parallel, so the healthy frames
    # repeat one scan (exact keyframe poses, exact floor normals)
    rng = np.random.default_rng(123)
    room_scan = scan_cloud(rng, big_room_panels(), room_pose(), n=3000)
    ex, ey = np.eye(3)[0], np.eye(3)[1]
    floor_patch = [panel([8.0, 8.0, 0.0], ex, ey, 14.0, 14.0)]  # clear of walls
    state = OdometryState.initial(config())
    outputs = []
    for k in range(15):
        if 5 <= k <= 9:
            pts = sample_panels(rng, floor_patch, 3000)
            cloud = PointCloud(room_pose().inverse().apply(pts))
        else:
            cloud = room_scan
        outputs.append(process_frame(state, cloud))
    assert [out.fallback for out in outputs] == [5 <= k <= 9 for k in range(15)]
    assert len(state.trajectory) == 15
    for sp in state.trajectory:
        assert np.linalg.norm(sp.pose.translation) < 1e-6
    assert all(not kf.degenerate for kf in state.local_map.keyframes)
    assert all(not 5 <= kf.frame_index <= 9 for kf in state.local_map.keyframes)


def test_empty_cloud_frames_never_abort():
    rng = np.random.default_rng(124)
    state = OdometryState.initial(config())
    empty = PointCloud(np.zeros((0, 3)))
    first = process_frame(state, empty)
    assert first.fallback and not state.local_map.keyframes
    second = process_frame(state, scan_cloud(rng, big_room_panels(), room_pose(), n=3000))
    assert not second.fallback
    assert [kf.frame_index for kf in state.local_map.keyframes] == [1]
    third = process_frame(state, empty)
    assert third.fallback
    assert len(state.trajectory) == 3


def test_time_budget_stops_iterating_early():
    rng = np.random.default_rng(125)
    panels = big_room_panels()
    state = OdometryState.initial(config(time_budget_ms=0.5, max_iterations=15))
    process_frame(state, scan_cloud(rng, panels, room_pose(), n=4000))
    out = process_frame(state, scan_cloud(rng, panels, room_pose(), n=4000))
    assert out.iterations <= 2
    assert not out.fallback


# ---------------------------------------------------------- run_sequence


def write_sequence(rng, directory, poses, n=2500):
    panels = big_room_panels()
    directory.mkdir(parents=True, exist_ok=True)
    for k, pose in enumerate(poses):
        cloud = scan_cloud(rng, panels, pose, n=n)
        write_kitti_bin(directory / f"{k:06d}.bin", cloud)


def test_run_sequence_empty_directory(tmp_path):
    traj, outputs = run_sequence(ScanSource("kitti_bin_dir", tmp_path), config())
    assert len(traj) == 0 and outputs == []


def test_run_sequence_rerun_and_thread_count_invariance(tmp_path):
    rng = np.random.default_rng(127)
    poses = [Isometry3(np.eye(3), np.array([12.0 + 0.3 * k, 15.0, 1.5]))
             for k in range(8)]
    write_sequence(rng, tmp_path / "scans", poses)
    src = ScanSource("kitti_bin_dir", tmp_path / "scans")

    traj_a, _ = run_sequence(src, config(threads=1))
    traj_b, _ = run_sequence(src, config(threads=1))
    write_trajectory_kitti(traj_a, tmp_path / "a.txt")
    write_trajectory_kitti(traj_b, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    traj_c, _ = run_sequence(src, config(threads=4))
    assert len(traj_a) == len(traj_c) == 8
    for a, c in zip(traj_a, traj_c):
        assert np.abs(a.pose.matrix() - c.pose.matrix()).max() <= 1e-12


def test_run_sequence_on_frame_callback_streams(tmp_path):
    rng = np.random.default_rng(128)
    write_sequence(rng, tmp_path / "scans", [room_pose()] * 3, n=2000)
    seen = []
    run_sequence(ScanSource("kitti_bin_dir", tmp_path / "scans"), config(),
                 on_frame=seen.append)
    assert [out.frame for out in seen] == [0, 1, 2]


def test_run_sequence_aborts_with_partial_results(tmp_path):
    rng = np.random.default_rng(129)
    scans = tmp_path / "scans"
    write_sequence(rng, scans, [room_pose()] * 3, n=2000)
    (scans / "000001.bin").write_bytes(b"\x00" * 19)  # partial record
    with pytest.raises(SequenceAborted) as info:
        run_sequence(ScanSource("kitti_bin_dir", scans), config())
    aborted = info.value
    assert len(aborted.trajectory) == 1 and len(aborted.outputs) == 1
    assert isinstance(aborted.cause, ValueError)
