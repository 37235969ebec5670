"""CLI behavior: exit codes, output files, config precedence."""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scanfiles import write_kitti_bin, write_ply
from worldsim import big_room_panels, scan_cloud

from madlo.cli import MAX_LENGTHS, build_run_config, main, parse_lengths
from madlo.dataset_io import Trajectory, write_trajectory_kitti
from madlo.geometry import Isometry3, exp_se3
from madlo.motion import StampedPose
from madlo.pipeline import FRAME_LOG_HEADER


def write_room_scans(tmp_path, n_frames=3, n_points=1500, seed=130, ply=False):
    rng = np.random.default_rng(seed)
    pose = Isometry3(np.eye(3), np.array([15.0, 15.0, 1.5]))
    scans = tmp_path / "scans"
    scans.mkdir(parents=True)
    for k in range(n_frames):
        cloud = scan_cloud(rng, big_room_panels(), pose, n=n_points)
        if ply:
            write_ply(scans / f"{k:06d}.ply", cloud)
        else:
            write_kitti_bin(scans / f"{k:06d}.bin", cloud)
    return scans


def write_walk_trajectory(path, n=80, seed=131):
    rng = np.random.default_rng(seed)
    poses, x = [], Isometry3.identity()
    for k in range(n):
        x = x @ exp_se3(np.concatenate([rng.uniform(-0.1, 0.1, 3) + [1, 0, 0],
                                        rng.uniform(-0.02, 0.02, 3)]))
        poses.append(StampedPose(x, float(k)))
    write_trajectory_kitti(Trajectory(poses), path)


# -------------------------------------------------------------- odometry


def test_odometry_smoke(tmp_path, capsys):
    scans = write_room_scans(tmp_path)
    out = tmp_path / "out"
    code = main(["odometry", "--data", str(scans), "--out", str(out),
                 "--no-deskew"])
    assert code == 0
    traj_lines = (out / "trajectory.txt").read_text().strip().splitlines()
    assert len(traj_lines) == 3
    assert traj_lines[0] == "1 0 0 0 0 1 0 0 0 0 1 0"
    log_lines = (out / "frames.csv").read_text().strip().splitlines()
    assert len(log_lines) == 4
    assert log_lines[0] == FRAME_LOG_HEADER
    rows = [line.split(",") for line in log_lines[1:]]
    assert all(len(row) == 8 for row in rows)
    assert rows[0][0] == "0" and rows[0][-1] == "0"
    assert float(rows[0][5]) == 1.0  # bootstrap matched fraction
    assert not list(out.glob("*.tmp"))
    assert "wrote" in capsys.readouterr().out


def test_unknown_flag_exits_1_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    for flag in (["--bogus"], ["--threads", "2"]):
        code = main(["odometry", "--data", str(tmp_path), "--out", str(out), *flag])
        assert code == 1, flag
        assert not out.exists(), flag


def test_bad_parameter_value_exits_1_and_writes_nothing(tmp_path, capsys):
    scans = write_room_scans(tmp_path, 3)
    out = tmp_path / "out"
    bad_args = [["--set", value] for value in (
        "b_max=-1", "p_th=0", "min_range=200", "n=1", "b_ratio=nan", "rho_ker=nan",
        "scan_period=nan", "time_budget_ms=nan", "time_budget_ms=0", "time_budget_ms=-5")]
    bad_args += [["--time-budget-ms", "nan"], ["--time-budget-ms", "0"]]
    for bad in bad_args:
        code = main(["odometry", "--data", str(scans), "--out", str(out), *bad])
        assert code == 1, bad
        assert not out.exists(), bad
        assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_1():
    assert main([]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_missing_data_directory_exits_2(tmp_path):
    code = main(["odometry", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_aborted_run_exits_2_with_partial_outputs(tmp_path):
    # frame 1 cannot be read: a KITTI scan cut mid-record, or a PLY header
    # whose element line is bare
    bad_scans = {"kitti": ("000001.bin", b"\x00" * 19),
                 "ply": ("000001.ply", b"ply\nformat ascii 1.0\nelement\nend_header\n")}
    for fmt, (name, data) in bad_scans.items():
        scans = write_room_scans(tmp_path / fmt, ply=fmt == "ply")
        (scans / name).write_bytes(data)
        out = tmp_path / fmt / "out"
        code = main(["odometry", "--data", str(scans), "--out", str(out),
                     "--format", fmt, "--no-deskew"])
        assert code == 2
        assert len((out / "trajectory.txt").read_text().strip().splitlines()) == 1
        assert len((out / "frames.csv").read_text().strip().splitlines()) == 2


def test_non_finite_point_is_dropped_and_run_completes(tmp_path):
    scans = write_room_scans(tmp_path)
    raw = np.fromfile(scans / "000002.bin", dtype="<f4")
    raw[0] = np.nan
    raw.tofile(scans / "000002.bin")
    out = tmp_path / "out"
    code = main(["odometry", "--data", str(scans), "--out", str(out),
                 "--no-deskew"])
    assert code == 0
    assert len((out / "trajectory.txt").read_text().strip().splitlines()) == 3
    assert len((out / "frames.csv").read_text().strip().splitlines()) == 4


def test_non_increasing_stamps_exit_1_and_write_nothing(tmp_path, capsys):
    scans = write_room_scans(tmp_path)
    out = tmp_path / "out"
    for text in ("0.0\n0.1\n0.1\n", "0.0\n0.1\ninf\n", "0.0\n0.1\nabc\n"):
        (scans / "times.txt").write_text(text)
        code = main(["odometry", "--data", str(scans), "--out", str(out),
                     "--no-deskew"])
        assert code == 1
        assert not out.exists()
        assert "times.txt:3" in capsys.readouterr().err


# -------------------------------------------------------------- evaluate


def test_evaluate_self_comparison_is_zero(tmp_path, capsys):
    path = tmp_path / "t.txt"
    write_walk_trajectory(path)
    code = main(["evaluate", "--est", str(path), "--gt", str(path),
                 "--lengths", "10:40:10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "length,mean_err_pct"
    overall = float(lines[-1].split(",")[1])
    assert overall < 1e-9


def test_evaluate_writes_reports(tmp_path):
    path = tmp_path / "t.txt"
    write_walk_trajectory(path)
    out = tmp_path / "eval"
    code = main(["evaluate", "--est", str(path), "--gt", str(path),
                 "--lengths", "10:40:10", "--out", str(out)])
    assert code == 0
    assert (out / "rpe.csv").read_text().splitlines()[0] == "length,mean_err_pct"
    assert (out / "curve.csv").read_text().splitlines()[0] == "threshold,count"
    assert not list(out.glob("*.tmp"))


def test_evaluate_mismatched_lengths_exits_1(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_walk_trajectory(a, n=50)
    write_walk_trajectory(b, n=60)
    code = main(["evaluate", "--est", str(a), "--gt", str(b)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_evaluate_non_finite_pose_exits_1(tmp_path, capsys):
    est, gt = tmp_path / "est.txt", tmp_path / "gt.txt"
    write_walk_trajectory(gt)
    # column 0 is in the rotation, column 3 in the translation
    for column in (0, 3):
        write_walk_trajectory(est)
        lines = est.read_text().splitlines()
        tokens = lines[1].split()
        tokens[column] = "nan"
        lines[1] = " ".join(tokens)
        est.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--est", str(est), "--gt", str(gt), "--lengths", "10:40:10"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{est}:2: " in captured.err and "non-finite" in captured.err
        assert captured.out == ""


def test_evaluate_missing_file_exits_2(tmp_path):
    write_walk_trajectory(tmp_path / "a.txt")
    code = main(["evaluate", "--est", str(tmp_path / "a.txt"),
                 "--gt", str(tmp_path / "missing.txt")])
    assert code == 2


# --------------------------------------------------------- config plumbing


def test_parse_lengths():
    assert parse_lengths("100:800:100") == tuple(float(v) for v in range(100, 900, 100))
    assert parse_lengths("10:80:10") == tuple(float(v) for v in range(10, 90, 10))
    assert parse_lengths("5:5:1") == (5.0,)
    assert parse_lengths("0.1:0.3:0.1") == (0.1, 0.2, 0.30000000000000004)
    assert len(parse_lengths(f"1:{MAX_LENGTHS}:1")) == MAX_LENGTHS
    for bad in ("5:1:1", "0:10:1", "1:10:0", "abc", "1:2", "100:800:nan",
                "100:inf:100", "nan:800:100", "100:800:inf"):
        with pytest.raises(ValueError):
            parse_lengths(bad)
    # a step below the spacing of floats at A never advances
    with pytest.raises(ValueError, match="does not advance"):
        parse_lengths("1e17:1e17:1")
    for too_many in (f"1:{MAX_LENGTHS + 1}:1", "1:1e12:1"):
        with pytest.raises(ValueError, match="more than"):
            parse_lengths(too_many)


@pytest.mark.parametrize("spec", ["1e17:1e17:1", "1:1e12:1"])
def test_evaluate_unbounded_lengths_exit_1_and_write_nothing(tmp_path, capsys, spec):
    path = tmp_path / "t.txt"
    write_walk_trajectory(path)
    out = tmp_path / "eval"
    code = main(["evaluate", "--est", str(path), "--gt", str(path),
                 "--lengths", spec, "--out", str(out)])
    assert code == 1
    assert "usage" in capsys.readouterr().err
    assert not out.exists()


def test_build_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("b_max = 0.5\nthreads = 2\n")
    args = argparse.Namespace(config=str(cfg_file), set=["b_max=0.3", "n=4"],
                              time_budget_ms=12.5, no_deskew=True)
    cfg = build_run_config(args)
    assert cfg.b_max == 0.3      # --set beats the file
    assert cfg.n == 4
    assert cfg.threads == 2      # file beats the default
    assert cfg.time_budget_ms == 12.5
    assert cfg.deskew is False
    assert cfg.b_min == 0.1      # untouched default


def test_build_config_rejects_bad_set():
    args = argparse.Namespace(config=None, set=["b_max"], time_budget_ms=None,
                              no_deskew=False)
    with pytest.raises(ValueError):
        build_run_config(args)
    # a bad value names its key
    for item, key in (("n=2.5", "n"), ("p_th=", "p_th")):
        args.set = [item]
        with pytest.raises(ValueError, match=f"^{key}: "):
            build_run_config(args)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cli_thread_env(**preset) -> list:
    """The thread variables a fresh process sees once madlo.cli is imported."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import os, sys, madlo.cli; assert 'numpy' in sys.modules; "
            f"print(*[os.environ.get(k) for k in {THREAD_VARS!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.split()


def test_cli_holds_thread_pools_at_one_unless_set():
    assert cli_thread_env() == ["1"] * 5
    user_set = cli_thread_env(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
    assert user_set == ["2", "3", "1", "1", "1"]
