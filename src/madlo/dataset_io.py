"""Scan ingestion, trajectory file formats and run configuration.

Supported inputs are KITTI velodyne ``.bin`` files (packed little-endian
float32 x, y, z, intensity) and PLY point clouds (ascii or
binary_little_endian, vertex element only). Trajectories are read and
written in the KITTI pose format (12 floats per line, row-major upper 3x4).
Floats are printed with 17 significant digits so write/read round trips
are exact.
"""
from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .geometry import Isometry3, PointCloud
from .madtree import TreeParams
from .motion import StampedPose
from .registration import RegistrationParams

log = logging.getLogger(__name__)

KITTI_POINT_BYTES = 16
FLOAT_FORMAT = "%.17g"


# ----------------------------------------------------------------- scans


def read_kitti_bin(path) -> PointCloud:
    """Read a KITTI velodyne scan, dropping non-finite points.

    The file must be a whole number of 16-byte records; intensity is
    discarded.
    """
    size = Path(path).stat().st_size
    if size % KITTI_POINT_BYTES != 0:
        raise ValueError(
            f"{path}: size {size} bytes is not a multiple of {KITTI_POINT_BYTES}"
        )
    raw = np.fromfile(path, dtype="<f4")
    points, _ = _drop_non_finite(path, raw.reshape(-1, 4)[:, :3].astype(np.float64))
    return PointCloud(points)


def _drop_non_finite(path, points: np.ndarray, times: np.ndarray | None = None):
    """Drop points with a NaN/Inf coordinate (or time) and log how many."""
    keep = np.isfinite(points).all(axis=1)
    if times is not None:
        keep &= np.isfinite(times)
    if keep.all():
        return points, times
    log.warning("%s: dropped %d non-finite points", path, int(keep.size - keep.sum()))
    return points[keep], None if times is None else times[keep]


def filter_range(cloud: PointCloud, min_range, max_range) -> PointCloud:
    """Keep points whose distance from the origin (the sensor) lies in the
    closed band [min_range, max_range], which ``ScanSource`` has checked."""
    p = cloud.points
    r2 = np.einsum("ij,ij->i", p, p)
    keep = (r2 >= min_range ** 2) & (r2 <= max_range ** 2)
    if keep.all():
        return cloud
    rel = None if cloud.rel_times is None else cloud.rel_times[keep]
    return PointCloud(cloud.points[keep], rel_times=rel)


def synthesize_rel_times(cloud: PointCloud) -> PointCloud:
    """Assign per-point relative times from azimuth, assuming one clockwise
    revolution per scan.

    The first point anchors s = 0 and s grows with clockwise angle:
    s = ((theta_0 - atan2(y, x)) mod 2pi) / 2pi, always in [0, 1).
    """
    if len(cloud) == 0:
        raise ValueError("cannot synthesize rel_times for an empty cloud")
    theta = np.arctan2(cloud.points[:, 1], cloud.points[:, 0])
    s = np.mod(theta[0] - theta, 2.0 * np.pi) / (2.0 * np.pi)
    return PointCloud(cloud.points, rel_times=s)


# ------------------------------------------------------------------- PLY

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_TIME_NAMES = ("time", "t", "timestamp")

# the header ends at the first line whose only token is end_header, so a
# comment that mentions it does not end the header
_PLY_HEADER_END = re.compile(rb"^[^\S\n]*end_header[^\S\n]*$", re.MULTILINE)


def _normalize_times(t: np.ndarray) -> np.ndarray:
    """Map native per-point times onto [0, 1], min-max if out of band."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        return t
    lo, hi = t.min(), t.max()
    if 0.0 <= lo and hi <= 1.0:
        return t
    if hi == lo:
        return np.zeros_like(t)
    return (t - lo) / (hi - lo)


def read_ply(path) -> PointCloud:
    """Read an ascii or binary_little_endian PLY with a single vertex element.

    x/y/z may be float or double; a scalar property named time, t or
    timestamp becomes rel_times (min-max normalized when outside [0, 1]).
    Other scalar properties are ignored; list properties and additional
    elements are rejected, and a header error names the file and the line.
    Points with a non-finite coordinate or time are dropped.
    """
    data = Path(path).read_bytes()
    marker = _PLY_HEADER_END.search(data)
    if not data.startswith(b"ply") or marker is None:
        raise ValueError(f"{path}: not a PLY file")
    header_end = marker.end()  # the newline, or the end of a file that has no body
    body = data[header_end + 1:]

    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    for lineno, raw in enumerate(data[:header_end].split(b"\n"), start=1):
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: header line {lineno} is not ASCII") from None
        tokens = line.split()
        if not tokens:
            continue
        where = f"{path}: header line {lineno} ({line.strip()!r})"
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise ValueError(f"{where}: unsupported format")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3 or tokens[1] != "vertex" or count is not None:
                raise ValueError(f"{where}: expected one 'element vertex <count>'")
            try:
                count = int(tokens[2])
            except ValueError:
                raise ValueError(f"{where}: vertex count is not an integer") from None
            if count < 0:
                raise ValueError(f"{where}: negative vertex count {count}")
        elif tokens[0] == "property":
            if len(tokens) > 1 and tokens[1] == "list":
                raise ValueError(f"{where}: list properties are not supported")
            if len(tokens) != 3:
                raise ValueError(f"{where}: expected 'property <type> <name>'")
            if tokens[1] not in _PLY_TYPES:
                raise ValueError(f"{where}: unknown property type {tokens[1]!r}")
            if any(name == tokens[2] for name, _ in props):
                raise ValueError(f"{where}: repeated property {tokens[2]!r}")
            props.append((tokens[2], _PLY_TYPES[tokens[1]]))
    if fmt is None:
        raise ValueError(f"{path}: header has no format line")
    if count is None:
        raise ValueError(f"{path}: header has no vertex element")
    names = [name for name, _ in props]
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ValueError(f"{path}: header has no vertex property {axis!r}")

    if fmt == "binary_little_endian":
        dtype = np.dtype([(name, "<" + code) for name, code in props])
        if len(body) < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated vertex data")
        table = np.frombuffer(body, dtype=dtype, count=count)
        column = lambda name: table[name].astype(np.float64)
    else:
        tokens = body.decode("ascii").split()
        if len(tokens) < count * len(props):
            raise ValueError(f"{path}: truncated vertex data")
        try:
            grid = np.array(tokens[: count * len(props)], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        grid = grid.reshape(count, len(props))
        column = lambda name: grid[:, names.index(name)]

    points = np.column_stack([column("x"), column("y"), column("z")])
    times = next((column(name) for name in _TIME_NAMES if name in names), None)
    points, times = _drop_non_finite(path, points, times)
    rel = None if times is None else _normalize_times(times)
    return PointCloud(points, rel_times=rel)


# ----------------------------------------------------------- trajectories


def write_trajectory_kitti(traj, path) -> None:
    """One line per StampedPose of ``traj``: the 12 row-major floats of the
    upper 3x4."""
    lines = []
    for sp in traj:
        row = sp.pose.matrix()[:3, :].reshape(-1)
        lines.append(" ".join(FLOAT_FORMAT % v for v in row))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_trajectory_kitti(path) -> list:
    """Inverse of write_trajectory_kitti: a list of StampedPose whose stamps
    are the line indices."""
    poses = []
    for lineno, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 12:
            raise ValueError(f"{path}:{lineno + 1}: expected 12 values, got {len(tokens)}")
        try:
            m = np.array(tokens, dtype=np.float64).reshape(3, 4)
            if not np.isfinite(m).all():
                raise ValueError("non-finite value")
            pose = Isometry3(m[:, :3], m[:, 3])
        except ValueError as err:
            raise ValueError(f"{path}:{lineno + 1}: {err}") from None
        poses.append(StampedPose(pose, float(len(poses))))
    return poses


# ----------------------------------------------------------- configuration


@dataclass
class RunConfig:
    """Flat run parameters, file format ``key = value`` one per line."""

    b_max: float = TreeParams.b_max
    b_min: float = TreeParams.b_min
    b_ratio: float = RegistrationParams.b_ratio
    p_th: float = 0.8
    rho_ker: float = RegistrationParams.rho_ker
    n: int = 10
    threads: int = 1  # accepted and ignored: registration runs on one thread
    max_iterations: int = RegistrationParams.max_iterations
    time_budget_ms: float | None = RegistrationParams.time_budget_ms
    min_range: float = 1.0
    max_range: float = 120.0
    scan_period: float = 0.1
    deskew: bool = True


_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig)}


def coerce_config_value(key: str, raw: str):
    """Parse the textual value of one config key to its typed form."""
    if key not in _CONFIG_FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    raw = raw.strip()
    if key == "deskew":
        if raw not in ("on", "off"):
            raise ValueError(f"deskew must be 'on' or 'off', got {raw!r}")
        return raw == "on"
    if key == "time_budget_ms" and raw.lower() in ("none", ""):
        return None
    try:
        if key in ("n", "threads", "max_iterations"):
            return int(raw)
        return float(raw)
    except ValueError as err:
        raise ValueError(f"{key}: {err}") from None


def parse_config(path) -> RunConfig:
    """Read a flat key = value file; unknown keys or bad values raise."""
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines()):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno + 1}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        try:
            overrides[key] = coerce_config_value(key, raw)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno + 1}: {err}") from None
    return replace(RunConfig(), **overrides)


# ------------------------------------------------------------ scan source


def _read_stamps(path: Path) -> list:
    """Every whitespace-separated token of a times file as a float; each must
    be finite and above the one before it."""
    stamps = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for tok in line.split():
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: stamp {tok!r} is not a finite number")
            if stamps and not value > stamps[-1]:
                raise ValueError(f"{path}:{lineno}: stamp {value!r} is not above "
                                 f"the previous stamp {stamps[-1]!r}")
            stamps.append(value)
    return stamps


@dataclass
class ScanSource:
    """A directory of scans read in sorted filename order.

    kind is ``kitti_bin_dir`` (``*.bin``) or ``ply_dir`` (``*.ply``). The
    file list and the frame stamps are read once, here, and the range band
    is checked only here. Stamps come from a ``times.txt`` next to (or one
    level above) the scan files: whitespace-separated numbers, each finite
    and strictly above the one before it, at least as many as there are
    scans, the first of which stamp the scans in order. With no such file,
    frame k is stamped k * scan_period.
    """

    kind: str
    path: Path
    scan_period: float = RunConfig.scan_period
    min_range: float = RunConfig.min_range
    max_range: float = RunConfig.max_range
    files: list = field(init=False, repr=False)
    stamps: list = field(init=False, repr=False)

    _SUFFIX = {"kitti_bin_dir": ".bin", "ply_dir": ".ply"}

    def __post_init__(self):
        if self.kind not in self._SUFFIX:
            raise ValueError(f"unknown scan source kind {self.kind!r}")
        if not 0.0 <= self.min_range < self.max_range:
            raise ValueError(f"invalid range band [{self.min_range}, {self.max_range}]")
        if not 0.0 < self.scan_period < np.inf:  # NaN fails too
            raise ValueError("scan_period must be positive and finite")
        self.path = Path(self.path)
        if not self.path.is_dir():
            raise FileNotFoundError(f"scan directory {self.path} does not exist")
        suffix = self._SUFFIX[self.kind]
        self.files = sorted(p for p in self.path.iterdir() if p.suffix == suffix)
        if not self.files:
            raise ValueError(f"no *{suffix} scans in {self.path}")
        self.stamps = [k * self.scan_period for k in range(len(self.files))]
        for candidate in (self.path / "times.txt", self.path.parent / "times.txt"):
            if candidate.is_file():
                stamps = _read_stamps(candidate)
                if len(stamps) < len(self.files):
                    raise ValueError(
                        f"{candidate}: {len(stamps)} stamps for {len(self.files)} scans"
                    )
                self.stamps = stamps[: len(self.files)]
                break

    def __len__(self):
        return len(self.files)

    def read_scan(self, index: int) -> PointCloud:
        """Scan ``index`` with its points outside the range band dropped."""
        path = self.files[index]
        cloud = read_kitti_bin(path) if self.kind == "kitti_bin_dir" else read_ply(path)
        return filter_range(cloud, self.min_range, self.max_range)
