"""Scan readers, trajectory formats, time synthesis and config parsing."""
from __future__ import annotations

import re
import struct
from dataclasses import MISSING, fields

import numpy as np
import pytest
from scanfiles import write_kitti_bin, write_ply

from madlo.dataset_io import (
    RunConfig,
    ScanSource,
    coerce_config_value,
    filter_range,
    parse_config,
    read_kitti_bin,
    read_ply,
    read_trajectory_kitti,
    synthesize_rel_times,
    write_trajectory_kitti,
)
from madlo.geometry import Isometry3, PointCloud, exp_se3
from madlo.madtree import TreeParams
from madlo.motion import StampedPose
from madlo.registration import RegistrationParams


def random_trajectory(rng, n, step=0.1):
    poses, x = [], Isometry3.identity()
    for k in range(n):
        x = x @ exp_se3(rng.uniform(-0.3, 0.3, size=6))
        poses.append(StampedPose(x, k * step))
    return poses


# ------------------------------------------------------------- KITTI bin


def test_kitti_bin_single_point(tmp_path):
    # byte layout pinned with struct, independent of the numpy writer
    path = tmp_path / "one.bin"
    path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
    cloud = read_kitti_bin(path)
    assert np.array_equal(cloud.points, [[1.0, 2.0, 3.0]])


def test_kitti_bin_round_trip(tmp_path):
    rng = np.random.default_rng(90)
    pts = rng.uniform(-50, 50, size=(1000, 3)).astype(np.float32).astype(np.float64)
    write_kitti_bin(tmp_path / "s.bin", PointCloud(pts))
    back = read_kitti_bin(tmp_path / "s.bin")
    assert np.array_equal(back.points, pts)


def test_kitti_bin_rejects_partial_record(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 19)
    with pytest.raises(ValueError):
        read_kitti_bin(path)


def test_kitti_bin_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert len(read_kitti_bin(path)) == 0


def test_kitti_bin_drops_non_finite_points(tmp_path, caplog):
    path = tmp_path / "s.bin"
    path.write_bytes(struct.pack("<12f", 1.0, 2.0, 3.0, 0.0,
                                 float("nan"), 2.0, 3.0, 0.0,
                                 4.0, float("inf"), 6.0, 0.0))
    cloud = read_kitti_bin(path)
    assert np.array_equal(cloud.points, [[1.0, 2.0, 3.0]])
    assert "dropped 2 non-finite points" in caplog.text


def test_kitti_bin_range_filter(tmp_path):
    pts = np.array([
        [0.5, 0.0, 0.0],    # below min
        [1.0, 0.0, 0.0],    # at min, kept
        [0.0, 60.0, 0.0],   # inside
        [0.0, 0.0, 120.0],  # at max, kept
        [150.0, 0.0, 0.0],  # beyond max
    ])
    # the band is closed; the scan source applies it to every format
    write_kitti_bin(tmp_path / "000000.bin", PointCloud(pts))
    src = ScanSource("kitti_bin_dir", tmp_path, min_range=1.0, max_range=120.0)
    assert np.array_equal(src.read_scan(0).points, pts[1:4])


def test_filter_range_keeps_rel_times_aligned():
    pts = np.array([[0.1, 0.0, 0.0], [5.0, 0.0, 0.0], [200.0, 0.0, 0.0]])
    cloud = PointCloud(pts, rel_times=np.array([0.1, 0.5, 0.9]))
    out = filter_range(cloud, 1.0, 120.0)
    assert np.array_equal(out.points, pts[1:2])
    assert np.array_equal(out.rel_times, [0.5])


@pytest.mark.parametrize("band", [(1.0, 120.0), (0.3, 7.7), (2.5, 81.3)])
def test_filter_range_band_is_closed_to_the_last_float(band):
    lo, hi = band
    edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)]
    # every edge on each axis, with either sign
    pts = np.concatenate([s * np.eye(3)[a] * r for r in edges for a in range(3) for s in (1, -1)])
    cloud = PointCloud(pts.reshape(-1, 3))
    out = filter_range(cloud, lo, hi)
    assert np.array_equal(out.points, cloud.points[:12])
    # all inside: the cloud itself comes back
    inside = PointCloud(cloud.points[:12])
    assert filter_range(inside, lo, hi) is inside


# ---------------------------------------------------------- time synthesis


def test_rel_times_first_point_is_zero():
    rng = np.random.default_rng(91)
    cloud = synthesize_rel_times(PointCloud(rng.normal(size=(50, 3))))
    assert cloud.rel_times[0] == 0.0


def test_rel_times_opposite_point_is_half():
    cloud = synthesize_rel_times(PointCloud(np.array([[2.0, 0.0, 0.0],
                                                      [-3.0, 0.0, 0.0]])))
    assert abs(cloud.rel_times[1] - 0.5) < 1e-15


def test_rel_times_clockwise_sweep_is_linear():
    n = 360
    theta0 = 2.0
    theta = theta0 - 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([3.0 * np.cos(theta), 3.0 * np.sin(theta),
                           np.linspace(-1, 1, n)])
    s = synthesize_rel_times(PointCloud(pts)).rel_times
    assert np.abs(s - np.arange(n) / n).max() < 1e-12
    assert (np.diff(s) > 0).all()


def test_rel_times_always_in_unit_interval():
    rng = np.random.default_rng(92)
    for _ in range(20):
        cloud = PointCloud(rng.normal(scale=10.0, size=(200, 3)))
        s = synthesize_rel_times(cloud).rel_times
        assert (s >= 0.0).all() and (s < 1.0).all()


def test_rel_times_rejects_empty():
    with pytest.raises(ValueError):
        synthesize_rel_times(PointCloud(np.zeros((0, 3))))


# ------------------------------------------------------------------- PLY


def test_ply_binary_round_trip(tmp_path):
    rng = np.random.default_rng(93)
    cloud = PointCloud(rng.normal(scale=20.0, size=(500, 3)),
                       rel_times=rng.uniform(0, 1, 500))
    write_ply(tmp_path / "a.ply", cloud, binary=True)
    back = read_ply(tmp_path / "a.ply")
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.rel_times, cloud.rel_times)


def test_ply_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(94)
    cloud = PointCloud(rng.normal(scale=20.0, size=(200, 3)))
    write_ply(tmp_path / "a.ply", cloud, binary=False)
    back = read_ply(tmp_path / "a.ply")
    assert np.array_equal(back.points, cloud.points)
    assert back.rel_times is None


def test_ply_reads_float32_vertices_with_extra_properties(tmp_path):
    # hand-built file: float32 x/y/z, an intensity column to skip, time as t
    dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                      ("intensity", "<f4"), ("t", "<f4")])
    table = np.zeros(3, dtype=dtype)
    table["x"] = [1.0, 2.0, 3.0]
    table["y"] = [0.5, -0.5, 0.25]
    table["z"] = [-1.0, 0.0, 4.0]
    table["intensity"] = [9.0, 9.0, 9.0]
    table["t"] = [0.0, 0.25, 0.5]
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nproperty float t\nend_header\n"
    )
    (tmp_path / "h.ply").write_bytes(header.encode() + table.tobytes())
    cloud = read_ply(tmp_path / "h.ply")
    assert np.abs(cloud.points - np.column_stack(
        [table["x"], table["y"], table["z"]])).max() == 0.0
    assert np.abs(cloud.rel_times - [0.0, 0.25, 0.5]).max() < 1e-9


def test_ply_ascii_hand_written(tmp_path):
    # blank header lines are skipped
    text = (
        "ply\nformat ascii 1.0\n\ncomment made by hand\n \t\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
        "1 2 3\n-4 5.5 6\n"
    )
    (tmp_path / "h.ply").write_bytes(text.encode())
    cloud = read_ply(tmp_path / "h.ply")
    assert np.array_equal(cloud.points, [[1, 2, 3], [-4, 5.5, 6]])
    assert cloud.rel_times is None


def test_ply_normalizes_absolute_times(tmp_path):
    cloud = PointCloud(np.zeros((3, 3)), rel_times=np.array([0.0, 0.5, 1.0]))
    write_ply(tmp_path / "a.ply", cloud, binary=True)
    data = (tmp_path / "a.ply").read_bytes()
    # shift the stored time column to absolute seconds, then re-read
    header_len = data.find(b"end_header") + len(b"end_header\n")
    table = np.frombuffer(data[header_len:], dtype="<f8").reshape(3, 4).copy()
    table[:, 3] = [100.0, 100.05, 100.1]
    (tmp_path / "b.ply").write_bytes(data[:header_len] + table.tobytes())
    back = read_ply(tmp_path / "b.ply")
    assert np.abs(back.rel_times - [0.0, 0.5, 1.0]).max() < 1e-9
    # one absolute time for every point has no span to scale: all zeros
    table[:, 3] = 100.0
    (tmp_path / "c.ply").write_bytes(data[:header_len] + table.tobytes())
    assert read_ply(tmp_path / "c.ply").rel_times.tolist() == [0.0, 0.0, 0.0]
    # no vertex at all: an empty cloud with empty times
    write_ply_header(tmp_path / "e.ply", ["format binary_little_endian 1.0", "element vertex 0",
                                          *XYZ_DOUBLE, "property double time"])
    empty = read_ply(tmp_path / "e.ply")
    assert empty.points.shape == (0, 3) and empty.rel_times.shape == (0,)


def test_ply_drops_non_finite_points(tmp_path, caplog):
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property double time\nend_header\n")
    rows = [(1.0, 0.0, 0.0, 10.0), (np.nan, 0.0, 0.0, 11.0),
            (2.0, 0.0, 0.0, np.inf), (3.0, 0.0, 0.0, 12.0)]
    body = np.array(rows, dtype="<f8").tobytes()
    (tmp_path / "s.ply").write_bytes(header.encode("ascii") + body)
    cloud = read_ply(tmp_path / "s.ply")
    assert np.array_equal(cloud.points, [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert np.array_equal(cloud.rel_times, [0.0, 1.0])
    assert "dropped 2 non-finite points" in caplog.text


def write_ply_header(path, lines: list, body: bytes = b"") -> None:
    """Write ``ply``, the given header lines and ``end_header``, then body."""
    path.write_bytes("\n".join(["ply", *lines, "end_header", ""]).encode() + body)


def assert_header_error(path, lineno: int, match: str = "") -> None:
    """read_ply raises a ValueError naming the file and the header line."""
    where = re.escape(f"{path}: header line {lineno} ")
    with pytest.raises(ValueError, match=where + ".*" + match):
        read_ply(path)


XYZ_DOUBLE = ["property double x", "property double y", "property double z"]


def test_ply_header_ends_at_a_line_that_is_end_header_alone(tmp_path):
    # a comment naming end_header, and the line itself with blanks around it
    for end in ("end_header", " end_header\t", "end_header\r"):
        for fmt, body in (("ascii", b"1 2 3\n-4 5.5 6\n"),
                          ("binary_little_endian",
                           np.array([1, 2, 3, -4, 5.5, 6], dtype="<f8").tobytes())):
            lines = ["ply", f"format {fmt} 1.0", "comment written by end_header tool",
                     "element vertex 2", *XYZ_DOUBLE, end, ""]
            (tmp_path / "c.ply").write_bytes("\n".join(lines).encode() + body)
            cloud = read_ply(tmp_path / "c.ply")
            assert np.array_equal(cloud.points, [[1, 2, 3], [-4, 5.5, 6]]), (end, fmt)


def test_ply_rejects_a_file_that_is_not_ply(tmp_path):
    # a header whose first line is not 'ply', one that never ends, and raw floats
    good = "\n".join(["ply", "format ascii 1.0", "element vertex 1", *XYZ_DOUBLE, "end_header",
                      "1 2 3", ""]).encode()
    for data in (b"PLY" + good[3:], good.replace(b"end_header", b"end"),
                 np.arange(8, dtype="<f4").tobytes()):
        (tmp_path / "x.ply").write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'x.ply'}: not a PLY file")):
            read_ply(tmp_path / "x.ply")


def test_ply_rejects_big_endian(tmp_path):
    # a bare format line is as unreadable as an unsupported one
    for fmt in ("format binary_big_endian 1.0", "format"):
        write_ply_header(tmp_path / "b.ply", [fmt, "element vertex 0", *XYZ_DOUBLE])
        assert_header_error(tmp_path / "b.ply", 2, "format")
    # so is a header that is not ASCII
    write_ply_header(tmp_path / "b.ply", ["format ascii 1.0", "comment caf\u00e9",
                                          "element vertex 0", *XYZ_DOUBLE])
    assert_header_error(tmp_path / "b.ply", 3, "not ASCII")


def test_ply_rejects_negative_vertex_count(tmp_path):
    bodies = {"binary_little_endian": np.arange(6, dtype="<f8").tobytes(),
              "ascii": b"0 1 2\n3 4 5\n"}
    for fmt, body in bodies.items():
        write_ply_header(tmp_path / "n.ply",
                         [f"format {fmt} 1.0", "element vertex -1", *XYZ_DOUBLE], body)
        assert_header_error(tmp_path / "n.ply", 3, "negative vertex count")
    # an element line without a name or a count, or with a count that is no integer
    for element in ("element", "element vertex", "element vertex 2.5", "element vertex two"):
        write_ply_header(tmp_path / "n.ply", ["format ascii 1.0", element, *XYZ_DOUBLE],
                         b"0 1 2\n3 4 5\n")
        assert_header_error(tmp_path / "n.ply", 3)


def test_ply_rejects_list_property(tmp_path):
    # a property line without a name or a type is malformed as well, and so
    # is one of a type PLY does not have
    for prop, match in (("property list uchar int vertex_indices", "list properties"),
                        ("property double", "expected 'property <type> <name>'"),
                        ("property", "expected 'property <type> <name>'"),
                        ("property float128 w", "unknown property type 'float128'")):
        write_ply_header(tmp_path / "b.ply",
                         ["format ascii 1.0", "element vertex 1", *XYZ_DOUBLE, prop], b"1 2 3\n")
        assert_header_error(tmp_path / "b.ply", 7, re.escape(match))


def test_ply_rejects_missing_axis(tmp_path):
    write_ply_header(tmp_path / "b.ply", ["format ascii 1.0", "element vertex 1",
                                          *XYZ_DOUBLE[:2]], b"1 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'b.ply'}: ") + ".*'z'"):
        read_ply(tmp_path / "b.ply")
    # so is a header without its format line or its vertex element
    for lines, what in ((["element vertex 1", *XYZ_DOUBLE], "no format line"),
                        (["format ascii 1.0", *XYZ_DOUBLE], "no vertex element")):
        write_ply_header(tmp_path / "b.ply", lines, b"1 2 3\n")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'b.ply'}: header has {what}")):
            read_ply(tmp_path / "b.ply")
    # an axis named twice is ambiguous in either format
    for fmt, body in (("ascii", b"1 2 3 4\n"),
                      ("binary_little_endian", np.arange(4, dtype="<f8").tobytes())):
        write_ply_header(tmp_path / "b.ply", [f"format {fmt} 1.0", "element vertex 1",
                                              *XYZ_DOUBLE, "property double x"], body)
        assert_header_error(tmp_path / "b.ply", 7, "repeated property 'x'")


def test_ply_rejects_truncated_binary(tmp_path):
    rng = np.random.default_rng(95)
    cloud = PointCloud(rng.normal(size=(10, 3)))
    write_ply(tmp_path / "a.ply", cloud, binary=True)
    data = (tmp_path / "a.ply").read_bytes()
    (tmp_path / "cut.ply").write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_ply(tmp_path / "cut.ply")
    # either format, cut right after end_header, before its newline
    for binary in (True, False):
        write_ply(tmp_path / "a.ply", PointCloud(np.ones((1, 3))), binary=binary)
        data = (tmp_path / "a.ply").read_bytes()
        (tmp_path / "cut.ply").write_bytes(data[:data.find(b"end_header") + 10])
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'cut.ply'}: truncated")):
            read_ply(tmp_path / "cut.ply")
    # a vertex token that is no number names the file as well
    write_ply_header(tmp_path / "bad.ply", ["format ascii 1.0", "element vertex 1", *XYZ_DOUBLE],
                     b"1 2 abc\n")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'bad.ply'}: ") + ".*'abc'"):
        read_ply(tmp_path / "bad.ply")


# ----------------------------------------------------------- trajectories


def test_kitti_trajectory_identity_line(tmp_path):
    write_trajectory_kitti([StampedPose(Isometry3.identity(), 0.0)], tmp_path / "t.txt")
    assert (tmp_path / "t.txt").read_text() == "1 0 0 0 0 1 0 0 0 0 1 0\n"


def test_kitti_trajectory_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(96)
    traj = random_trajectory(rng, 100)
    write_trajectory_kitti(traj, tmp_path / "t.txt")
    back = read_trajectory_kitti(tmp_path / "t.txt")
    assert len(back) == 100
    for a, b in zip(traj, back):
        assert np.array_equal(a.pose.matrix(), b.pose.matrix())


def test_kitti_trajectory_rejects_short_line(tmp_path):
    (tmp_path / "t.txt").write_text("1 0 0 0 0 1 0 0 0 0 1\n")
    with pytest.raises(ValueError):
        read_trajectory_kitti(tmp_path / "t.txt")


@pytest.mark.parametrize("bad_line, reason", [
    ("x 0 0 0 0 1 0 0 0 0 1 0", "could not convert"),
    ("nan 0 0 0 0 1 0 0 0 0 1 0", "non-finite"),
    ("1 0 0 0 0 1 0 0 0 0 1 inf", "non-finite"),
    ("1 0 0 0 0 1 0 0 0 0 -1 0", "not a rotation"),
    ("2 0 0 0 0 1 0 0 0 0 1 0", "not a rotation"),
])
def test_kitti_trajectory_bad_value_names_file_and_line(tmp_path, bad_line, reason):
    path = tmp_path / "t.txt"
    path.write_text(f"1 0 0 0 0 1 0 0 0 0 1 0\n\n{bad_line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{reason}"):
        read_trajectory_kitti(path)


# ------------------------------------------------------------------ config


def test_config_defaults():
    cfg = RunConfig()
    assert (cfg.b_max, cfg.b_min, cfg.b_ratio) == (0.2, 0.1, 0.02)
    assert (cfg.p_th, cfg.rho_ker, cfg.n) == (0.8, 0.1, 10)
    assert (cfg.threads, cfg.max_iterations) == (1, 15)
    assert cfg.time_budget_ms is None
    assert (cfg.min_range, cfg.max_range, cfg.scan_period) == (1.0, 120.0, 0.1)
    assert cfg.deskew is True
    # the run defaults are the layers' own: a literal re-added in one place fails
    assert TreeParams(cfg.b_max, cfg.b_min) == TreeParams()
    assert RegistrationParams(cfg.b_ratio, cfg.rho_ker, cfg.max_iterations,
                              cfg.time_budget_ms) == RegistrationParams()
    source_defaults = {f.name: f.default for f in fields(ScanSource) if f.init}
    assert source_defaults == {"kind": MISSING, "path": MISSING,
                               "scan_period": cfg.scan_period, "min_range": cfg.min_range,
                               "max_range": cfg.max_range}


def test_config_file_parsing(tmp_path):
    (tmp_path / "run.cfg").write_text(
        "# tuning\n"
        "b_max = 0.4\n"
        "n=5\n"
        "deskew = off\n"
        "time_budget_ms = 25   # anytime cap\n"
        "\n"
    )
    cfg = parse_config(tmp_path / "run.cfg")
    assert cfg.b_max == 0.4
    assert cfg.n == 5 and isinstance(cfg.n, int)
    assert cfg.deskew is False
    assert cfg.time_budget_ms == 25.0
    assert cfg.b_min == 0.1  # untouched default


def test_config_rejects_unknown_key(tmp_path):
    (tmp_path / "run.cfg").write_text("b_huge = 3\n")
    with pytest.raises(ValueError):
        parse_config(tmp_path / "run.cfg")


def test_config_rejects_bad_values(tmp_path):
    # the message names the file, the line and the key, or the missing '='
    for line, what in (("deskew = yes", "deskew"), ("b_max = big", "b_max"),
                       ("threads = 2.5", "threads"), ("p_th =", "p_th"),
                       ("b_max 0.4", "expected 'key = value'")):
        (tmp_path / "run.cfg").write_text("n = 4\n" + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'run.cfg'}:2: ") + ".*" + what):
            parse_config(tmp_path / "run.cfg")


def test_config_value_coercion_direct():
    assert coerce_config_value("time_budget_ms", "none") is None
    assert coerce_config_value("deskew", "on") is True
    assert coerce_config_value("threads", "4") == 4
    with pytest.raises(ValueError):
        coerce_config_value("velocity", "1")
    for key, raw in (("n", "2.5"), ("p_th", ""), ("max_iterations", "many")):
        with pytest.raises(ValueError, match=f"^{key}: "):
            coerce_config_value(key, raw)


# ------------------------------------------------------------ scan source


def test_scan_source_sorted_listing_and_default_stamps(tmp_path):
    rng = np.random.default_rng(99)
    for name in ("000002.bin", "000000.bin", "000001.bin"):
        write_kitti_bin(tmp_path / name, PointCloud(rng.uniform(2, 50, (5, 3))))
    src = ScanSource("kitti_bin_dir", tmp_path, scan_period=0.1)
    assert [p.name for p in src.files] == ["000000.bin", "000001.bin", "000002.bin"]
    assert len(src) == 3
    assert src.stamps == [0.0, 0.1, 0.2]


def test_scan_source_uses_times_file(tmp_path):
    for k in range(2):
        write_kitti_bin(tmp_path / f"{k:06d}.bin", PointCloud(np.full((1, 3), 5.0)))
    (tmp_path / "times.txt").write_text("0.0\n0.1037\n")
    assert ScanSource("kitti_bin_dir", tmp_path).stamps == [0.0, 0.1037]


def test_scan_source_rejects_short_times_file(tmp_path):
    for k in range(3):
        write_kitti_bin(tmp_path / f"{k:06d}.bin", PointCloud(np.full((1, 3), 5.0)))
    (tmp_path / "times.txt").write_text("0.0\n")
    with pytest.raises(ValueError):
        ScanSource("kitti_bin_dir", tmp_path)


def test_scan_source_rejects_non_increasing_times_file(tmp_path):
    for k in range(3):
        write_kitti_bin(tmp_path / f"{k:06d}.bin", PointCloud(np.full((1, 3), 5.0)))
    # a stamp past the last scan is checked like the others
    for text, line in (("0.0\n0.1\n0.1\n", 3), ("0.0\n0.2\n0.1\n", 3), ("0.0\n0.1\nnan\n", 3),
                       ("0.0\n0.1\ninf\n", 3), ("0.0\n0.1\nabc\n", 3),
                       ("0.0\n0.1\n0.2\n0.15\n", 4)):
        (tmp_path / "times.txt").write_text(text)
        with pytest.raises(ValueError, match=rf"times\.txt:{line}"):
            ScanSource("kitti_bin_dir", tmp_path)


def test_scan_source_cuts_times_file_to_the_scans(tmp_path):
    for k in range(3):
        write_kitti_bin(tmp_path / f"{k:06d}.bin", PointCloud(np.full((1, 3), 5.0)))
    (tmp_path / "times.txt").write_text("0.0 0.1\n0.2\n0.3\n")
    assert ScanSource("kitti_bin_dir", tmp_path).stamps == [0.0, 0.1, 0.2]


def test_scan_source_reads_and_filters(tmp_path):
    pts = np.array([[0.2, 0.0, 0.0], [10.0, 0.0, 0.0], [500.0, 0.0, 0.0]])
    write_kitti_bin(tmp_path / "000000.bin", PointCloud(pts))
    src = ScanSource("kitti_bin_dir", tmp_path, min_range=1.0, max_range=120.0)
    assert np.array_equal(src.read_scan(0).points, pts[1:2])


def test_scan_source_reads_ply(tmp_path):
    rng = np.random.default_rng(100)
    cloud = PointCloud(rng.uniform(2, 40, size=(20, 3)),
                       rel_times=rng.uniform(0, 1, 20))
    write_ply(tmp_path / "000000.ply", cloud)
    src = ScanSource("ply_dir", tmp_path)
    back = src.read_scan(0)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.rel_times, cloud.rel_times)


def test_scan_source_validation(tmp_path):
    with pytest.raises(ValueError):
        ScanSource("pcap_dir", tmp_path)
    with pytest.raises(FileNotFoundError):
        ScanSource("kitti_bin_dir", tmp_path / "missing")
    nan = float("nan")
    for lo, hi in ((10.0, 1.0), (-1.0, 120.0), (nan, 120.0), (1.0, nan)):
        with pytest.raises(ValueError):
            ScanSource("kitti_bin_dir", tmp_path, min_range=lo, max_range=hi)
    for period in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScanSource("kitti_bin_dir", tmp_path, scan_period=period)
