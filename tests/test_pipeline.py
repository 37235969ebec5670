"""End-to-end odometry loop tests on synthetic worlds."""
from __future__ import annotations

import numpy as np
import pytest
from scanfiles import write_kitti_bin
from worldsim import big_room_panels, panel, rotation_angle_deg, sample_panels, scan_cloud

from madlo.dataset_io import PointCloud, RunConfig, ScanSource, write_trajectory_kitti
from madlo import pipeline
from madlo.geometry import Isometry3
from madlo.motion import deskew, predict_pose
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
           dict(p_th=0.0), dict(p_th=1.5), dict(n=1), dict(scan_period=0.0),
           dict(max_iterations=0), dict(b_ratio=nan), dict(rho_ker=nan),
           dict(scan_period=nan), dict(time_budget_ms=nan), dict(time_budget_ms=0.0),
           dict(time_budget_ms=-5.0), dict(b_max=float("inf")),
           dict(scan_period=float("inf")), dict(b_ratio=float("inf")),
           dict(rho_ker=float("inf"))]
    for overrides in bad:
        with pytest.raises(ValueError):
            validate_config(config(**overrides))
        with pytest.raises(ValueError):
            OdometryState.initial(config(**overrides))


def test_first_frame_bootstraps_map():
    rng = np.random.default_rng(120)
    state = OdometryState.initial(config())
    out = process_frame(state, scan_cloud(rng, big_room_panels(), room_pose(), n=4000), stamp=0.0)
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
        for k, cloud in enumerate(clouds[:2]):
            process_frame(state, cloud, stamp=0.1 * k)
    assert deskewed == []
    for a, b in zip(states[0].trajectory, states[1].trajectory):
        assert a.pose.matrix().tobytes() == b.pose.matrix().tobytes()
    kfs = [sorted([*s.local_map.keyframes, *s.local_map.candidates],
                  key=lambda kf: kf.frame_index) for s in states]
    assert [kf.frame_index for kf in kfs[0]] == [0, 1]
    for kf_a, kf_b in zip(*kfs):
        for name in ("mus", "normals", "directions", "left", "valid", "leaf_ids"):
            assert getattr(kf_a.tree, name).tobytes() == getattr(kf_b.tree, name).tobytes()
    process_frame(states[0], clouds[2], stamp=0.2)  # moving now
    assert deskewed == [len(clouds[2])]


def test_scan_with_every_point_twice_runs_as_the_scan_alone():
    # thinning keeps the first point of each voxel, so the second copy of
    # every point goes; deskew (on times synthesized after thinning), the
    # build and ICP then see the same cloud, bit for bit
    rng = np.random.default_rng(126)
    clouds = [scan_cloud(rng, big_room_panels(), room_pose(15.0 + 0.3 * k), n=4000)
              for k in range(4)]
    states = [OdometryState.initial(config(deskew=True)) for _ in range(2)]
    for k, cloud in enumerate(clouds):
        twice = PointCloud(np.concatenate([cloud.points, cloud.points]))
        for state, scan in zip(states, (cloud, twice)):
            process_frame(state, scan, stamp=0.1 * k)
    assert states[0].velocity.any()  # the last frames were deskewed
    for a, b in zip(states[0].trajectory, states[1].trajectory):
        assert a.pose.matrix().tobytes() == b.pose.matrix().tobytes()
    kfs = [[*s.local_map.keyframes, *s.local_map.candidates] for s in states]
    assert [kf.frame_index for kf in kfs[0]] == [kf.frame_index for kf in kfs[1]]
    for kf_a, kf_b in zip(*kfs):
        for name in ("mus", "normals", "directions", "left", "valid"):
            assert getattr(kf_a.tree, name).tobytes() == getattr(kf_b.tree, name).tobytes()


def test_static_scene_pose_stays_identity_with_no_map_updates():
    rng = np.random.default_rng(121)
    scan = scan_cloud(rng, big_room_panels(), room_pose(), n=4000)
    state = OdometryState.initial(config())
    for k in range(6):
        out = process_frame(state, scan, stamp=0.1 * k)
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
    outputs = [process_frame(state, scan_cloud(rng, panels, p, n=2000), stamp=0.1 * k)
               for k, p in enumerate(poses)]
    assert len(state.trajectory) == 200
    assert not any(out.fallback for out in outputs)
    x0 = poses[0]
    path = 0.2 * 199
    err = np.linalg.norm(
        state.trajectory[-1].pose.translation - (x0.inverse() @ poses[-1]).translation)
    assert err < 0.01 * path
    assert len(state.local_map.keyframes) > 1  # overlap drops fired updates


def assert_corridor_tracks_or_flags(xs):
    """Either every frame, 20k points at each sensor x in ``xs``, lands
    within 0.1 m along the corridor, or the frames that do not are flagged."""
    from worldsim import corridor_panels

    rng = np.random.default_rng(0)
    panels = corridor_panels(80.0)
    state = OdometryState.initial(config())
    outputs = [process_frame(state, scan_cloud(rng, panels, room_pose(x, 0.0), n=20000),
                             stamp=0.1 * k) for k, x in enumerate(xs)]
    for x, sp, out in zip(xs, state.trajectory, outputs):
        assert abs(sp.pose.translation[0] - (x - xs[0])) < 0.1 or out.fallback


@pytest.mark.xfail(strict=True, reason="tracking diverges silently when a corridor "
                   "traversal jumps from standstill to 0.8 m/frame")
def test_corridor_jump_from_standstill_tracks_or_flags():
    """Today the first moving frame stops at the pass cap, 0.12 m short,
    and the last ends 4.8 m short, none flagged (7.7-10.1 m on seeds 1-3)."""
    assert_corridor_tracks_or_flags([2.0] * 5 + [2.0 + 0.8 * k for k in range(1, 11)])


@pytest.mark.xfail(strict=True, reason="tracking diverges silently when a corridor "
                   "traversal jumps from 0.2 to 1.0 m/frame in mid-run")
def test_corridor_jump_mid_run_tracks_or_flags():
    """6 frames at 0.2 m/frame, then 10 at 1.0 m/frame. Today frames 6-15,
    the fast ones, are all more than 0.1 m off and none is flagged; on
    seeds 0-2 the last ends 4.4-10.4 m short."""
    assert_corridor_tracks_or_flags([2.0 + 0.2 * k for k in range(6)]
                                    + [3.0 + 1.0 * k for k in range(1, 11)])


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
        outputs.append(process_frame(state, cloud, stamp=0.1 * k))
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
    first = process_frame(state, empty, stamp=0.0)
    assert first.fallback and not state.local_map.keyframes
    second = process_frame(state, scan_cloud(rng, big_room_panels(), room_pose(), n=3000),
                           stamp=0.1)
    assert not second.fallback
    assert [kf.frame_index for kf in state.local_map.keyframes] == [1]
    third = process_frame(state, empty, stamp=0.2)
    assert third.fallback
    assert len(state.trajectory) == 3


def test_every_frame_kind_yields_its_full_record():
    # an empty frame, the bootstrap frame, a registered frame and a
    # degenerate (single-plane) frame, then an empty one again: each yields
    # its whole record and exactly one trajectory pose
    rng = np.random.default_rng(126)
    room_scan = scan_cloud(rng, big_room_panels(), room_pose(), n=3000)
    ex, ey = np.eye(3)[0], np.eye(3)[1]
    floor_patch = [panel([8.0, 8.0, 0.0], ex, ey, 14.0, 14.0)]
    floor_scan = PointCloud(room_pose().inverse().apply(sample_panels(rng, floor_patch, 3000)))
    empty = PointCloud(np.zeros((0, 3)))
    state = OdometryState.initial(config())
    outputs, guesses = [], []
    for k, cloud in enumerate([empty, room_scan, room_scan, floor_scan, empty]):
        stamp = k * state.config.scan_period
        if state.trajectory:
            last = state.trajectory[-1]
            guesses.append(predict_pose(last.pose, state.velocity, stamp - last.stamp))
        else:
            guesses.append(Isometry3.identity())
        out = process_frame(state, cloud, stamp)
        outputs.append(out)
        assert out.frame == k
        assert state.frame_index == len(state.trajectory) == k + 1
        assert state.trajectory[-1].stamp == stamp
        assert state.trajectory[-1].pose.matrix().tobytes() == out.pose.matrix().tobytes()
        assert min(out.t_deskew_ms, out.t_build_ms, out.t_icp_ms, out.t_update_ms) >= 0.0

    def same_pose(a, b):
        return a.matrix().tobytes() == b.matrix().tobytes()

    for k in (0, 4):  # empty: the prediction, flagged, nothing built or registered
        out = outputs[k]
        assert same_pose(out.pose, guesses[k])
        assert (out.matched_fraction, out.det_information, out.fallback, out.iterations,
                out.t_build_ms, out.t_icp_ms) == (0.0, 0.0, True, 0, 0.0, 0.0)
    boot = outputs[1]  # bootstrap: the map's anchor, nothing registered
    assert same_pose(boot.pose, Isometry3.identity())
    assert (boot.matched_fraction, boot.det_information, boot.fallback, boot.iterations,
            boot.t_icp_ms) == (1.0, 1.0, False, 0, 0.0)
    registered = outputs[2]
    assert not registered.fallback and registered.iterations >= 1
    assert registered.matched_fraction > 0.8 and registered.det_information > 0.0
    assert np.linalg.norm(registered.pose.translation) < 1e-6
    degenerate = outputs[3]  # the prediction, flagged, after at least one pass
    assert same_pose(degenerate.pose, guesses[3])
    assert degenerate.fallback and degenerate.iterations >= 1
    assert 0.0 <= degenerate.matched_fraction <= 1.0
    assert 3 not in [kf.frame_index for kf in state.local_map.keyframes]


def test_bad_stamp_raises_before_the_state_changes():
    # a repeated, a decreasing, a NaN and an infinite stamp each raise and
    # leave the state as it was, so the run goes on as if they never came
    from worldsim import corridor_panels

    rng = np.random.default_rng(127)
    panels = corridor_panels(length=40.0)
    clouds = [scan_cloud(rng, panels, p, n=2000) for p in corridor_poses(5)]
    reference = OdometryState.initial(config())
    for k, cloud in enumerate(clouds):
        process_frame(reference, cloud, stamp=0.1 * k)

    state = OdometryState.initial(config())
    for stamp in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="stamp"):
            process_frame(state, clouds[0], stamp=stamp)
    assert not state.trajectory and not state.local_map.keyframes
    for k in range(3):
        process_frame(state, clouds[k], stamp=0.1 * k)

    def carried():
        """The objects the state carries across frames."""
        m = state.local_map
        return [list(state.trajectory), list(m.keyframes), list(m.candidates), [state.velocity]]

    def ids(parts):
        return [[id(x) for x in part] for part in parts]

    before = carried()  # held, so no id is reused
    last = state.trajectory[-1].stamp
    for stamp in (last, last - 0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="stamp"):
            process_frame(state, clouds[3], stamp=stamp)
        assert ids(carried()) == ids(before)
    for k in (3, 4):
        process_frame(state, clouds[k], stamp=0.1 * k)
    assert len(state.trajectory) == len(reference.trajectory)
    for sp, ref in zip(state.trajectory, reference.trajectory):
        assert sp.pose.matrix().tobytes() == ref.pose.matrix().tobytes()


def test_time_budget_stops_iterating_early():
    rng = np.random.default_rng(125)
    panels = big_room_panels()
    state = OdometryState.initial(config(time_budget_ms=0.5, max_iterations=15))
    process_frame(state, scan_cloud(rng, panels, room_pose(), n=4000), stamp=0.0)
    out = process_frame(state, scan_cloud(rng, panels, room_pose(), n=4000), stamp=0.1)
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
