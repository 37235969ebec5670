"""Seeded scan sequences for the benchmark: scenes, trajectories, scanner.

Everything the benchmark feeds the odometry is made here, from the workload
and the seed alone, and written to disk before any timing starts. The generator does not
import ``madlo`` or the test suite's world model, so neither a program change
nor a test edit can change the benchmark's inputs.

A scene is a ground plane plus axis-aligned boxes (buildings, cars, poles,
corridor fins, pillars), optionally enclosed in a shell box seen from the
inside (a room). A spinning multi-beam scanner is ray-cast against it. Column
``j`` of a sweep fires at scan fraction ``s = j / n_az`` and sensor azimuth
``theta0 - 2 pi s`` (clockwise), from the sensor pose at that instant

    pose(s) = pose_k . Exp((s - 1) xi_k),

where ``pose_k`` is the end-of-sweep ground-truth pose of frame k and
``xi_k`` its body twist per frame. Points are stored in the sensor frame of
their own firing instant, in firing order, which is exactly what
``madlo.dataset_io.synthesize_rel_times`` assumes when it recovers ``s`` from
azimuth, and what ``madlo.motion.deskew`` undoes.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCAN_PERIOD = 0.1
# one-sigma range noise of every return, metres
RANGE_NOISE_M = 0.01


# ------------------------------------------------------------- SE(3) helpers


def _skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def exp_twist(xi) -> np.ndarray:
    """4x4 transform of the body twist xi = (v, w) (translation first)."""
    return exp_twist_scaled(np.ones(1), xi)[0]


def exp_twist_scaled(scales, xi) -> np.ndarray:
    """Exp(c xi) for every scalar c in ``scales``: (len(scales), 4, 4)."""
    xi = np.asarray(xi, dtype=float)
    c = np.asarray(scales, dtype=float)[:, None, None]
    v, w = xi[:3], xi[3:]
    t = float(np.linalg.norm(w))
    k = _skew(w)
    k2 = k @ k
    if t < 1e-9:
        r = np.eye(3) + c * k
        vm = np.eye(3) + 0.5 * c * k
    else:
        ct = c * t
        r = np.eye(3) + np.sin(ct) / t * k + (1.0 - np.cos(ct)) / (t * t) * k2
        vm = (np.eye(3) + (1.0 - np.cos(ct)) / (ct * t) * k
              + (ct - np.sin(ct)) / (ct * t * t) * k2)
    m = np.tile(np.eye(4), (len(c), 1, 1))
    m[:, :3, :3] = r
    m[:, :3, 3] = c[:, :, 0] * (vm @ v)
    return m


def integrate(start: np.ndarray, twists: np.ndarray) -> np.ndarray:
    """Poses (K, 4, 4): pose_0 = start, pose_k = pose_{k-1} Exp(twists[k])."""
    poses = [start]
    for xi in twists[1:]:
        poses.append(poses[-1] @ exp_twist(xi))
    return np.stack(poses)


# ------------------------------------------------------------------ scenes


@dataclass
class Scene:
    boxes: list = field(default_factory=list)   # (min xyz, max xyz) solids
    ground: bool = True                         # plane z = 0
    shell: tuple | None = None                  # enclosing box, seen from inside

    def add(self, lo, hi):
        self.boxes.append((np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))


def street_scene(rng: np.random.Generator, x_from: float, x_to: float) -> Scene:
    """A street canyon along +x: building blocks with cross streets, parked
    cars and poles on both sides."""
    scene = Scene()
    for side in (-1.0, 1.0):
        x = x_from
        while x < x_to:
            length = rng.uniform(15.0, 40.0)
            front = 7.5 + rng.uniform(0.0, 2.5)
            y0, y1 = side * front, side * (front + 15.0)
            scene.add([x, min(y0, y1), 0.0], [x + length, max(y0, y1), rng.uniform(8.0, 25.0)])
            x += length + (rng.uniform(8.0, 14.0) if rng.random() < 0.3 else rng.uniform(0.5, 2.0))
        x = x_from + rng.uniform(0.0, 8.0)
        while x < x_to:
            y = side * rng.uniform(4.3, 5.2)
            scene.add([x, y - 0.9, 0.0], [x + 4.2, y + 0.9, 1.5])
            x += 4.2 + rng.uniform(1.5, 14.0)
        x = x_from + rng.uniform(0.0, 15.0)
        while x < x_to:
            y = side * 6.6
            scene.add([x, y - 0.15, 0.0], [x + 0.3, y + 0.15, 6.0])
            x += rng.uniform(18.0, 30.0)
    return scene


def corridor_scene(rng: np.random.Generator, start: float, end: float) -> Scene:
    """A 6 m wide, 3 m high open-top corridor with transverse fins on both
    walls, closed at both ends. The fins and end walls pin the along-axis
    direction; the end walls stay 28 m or more from the sensor, where the
    association gate is wider than the 0.8 m the first moving frame jumps."""
    scene = Scene()
    scene.add([start, -3.3, 0.0], [end, -3.0, 3.0])
    scene.add([start, 3.0, 0.0], [end, 3.3, 3.0])
    scene.add([start - 0.3, -3.3, 0.0], [start, 3.3, 3.0])
    scene.add([end, -3.3, 0.0], [end + 0.3, 3.3, 3.0])
    x = start + rng.uniform(2.0, 6.0)
    while x < end - 1.0:
        depth = rng.uniform(1.0, 1.4)
        scene.add([x, -3.0, 0.0], [x + 0.2, -3.0 + depth, 3.0])
        scene.add([x, 3.0 - depth, 0.0], [x + 0.2, 3.0, 3.0])
        x += rng.uniform(5.5, 6.5)
    return scene


def room_scene(rng: np.random.Generator) -> Scene:
    """A 40 x 14 x 4 m hall with a grid of pillars and some furniture."""
    scene = Scene(shell=(np.array([0.0, -7.0, 0.0]), np.array([40.0, 7.0, 4.0])))
    for px in np.arange(5.0, 40.0, 6.0):
        for py in (-3.5, 3.5):
            cx, cy = px + rng.uniform(-0.5, 0.5), py + rng.uniform(-0.5, 0.5)
            scene.add([cx - 0.25, cy - 0.25, 0.0], [cx + 0.25, cy + 0.25, 4.0])
    for _ in range(10):
        cx, cy = rng.uniform(1.0, 39.0), rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 6.5)
        w, d, h = rng.uniform(0.5, 2.0), rng.uniform(0.4, 0.8), rng.uniform(0.7, 2.0)
        scene.add([cx - w / 2, cy - d / 2, 0.0], [cx + w / 2, cy + d / 2, h])
    return scene


# ----------------------------------------------------------------- scanner


@dataclass(frozen=True)
class Scanner:
    """A spinning scanner: ``n_beams`` fixed elevations fired together at
    each of ``n_az`` evenly spaced azimuths per sweep."""

    n_beams: int
    n_az: int
    elev_lo_deg: float
    elev_hi_deg: float
    max_range: float

    def rays(self, rng: np.random.Generator, theta0: float):
        """Unit ray directions (n_az * n_beams, 3) in firing order, and s."""
        elev = np.deg2rad(np.linspace(self.elev_lo_deg, self.elev_hi_deg, self.n_beams))
        s = np.arange(self.n_az) / self.n_az
        az = theta0 - 2.0 * np.pi * s
        ce, se = np.cos(elev), np.sin(elev)
        d = np.stack([np.cos(az)[:, None] * ce[None, :],
                      np.sin(az)[:, None] * ce[None, :],
                      np.broadcast_to(se[None, :], (self.n_az, self.n_beams))], axis=-1)
        return d.reshape(-1, 3), np.repeat(s, self.n_beams), self.n_beams


@dataclass(frozen=True)
class PatternScanner:
    """A non-repetitive (rosette-like) scanner: ``n_rays`` directions drawn
    uniformly over the elevation band, each fired at its own random instant,
    so points spread over surfaces instead of lying on rings."""

    n_rays: int
    elev_lo_deg: float
    elev_hi_deg: float
    max_range: float

    def rays(self, rng: np.random.Generator, theta0: float):
        s = np.sort(rng.uniform(0.0, 1.0, self.n_rays))
        az = theta0 + rng.uniform(0.0, 2.0 * np.pi, self.n_rays)
        lo, hi = np.sin(np.deg2rad([self.elev_lo_deg, self.elev_hi_deg]))
        se = rng.uniform(lo, hi, self.n_rays)
        ce = np.sqrt(1.0 - se * se)
        return np.column_stack([np.cos(az) * ce, np.sin(az) * ce, se]), s, 1


def _cast(scene: Scene, origins, dirs, n_beams, max_range):
    """Distance along each ray to the first surface, inf where none.

    Rays come in columns of ``n_beams`` that share an origin and, since the
    trajectories are yaw-only, a horizontal heading; a box is tested only
    against the columns whose horizontal ray crosses its footprint.
    """
    best = np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        if scene.ground:
            t = -origins[:, 2] * inv[:, 2]
            best = np.where((dirs[:, 2] < 0.0) & (t > 0.0), t, best)
        if scene.shell is not None:
            lo, hi = scene.shell
            t1, t2 = (lo - origins) * inv, (hi - origins) * inv
            t = np.maximum(t1, t2).min(axis=1)
            best = np.minimum(best, np.where(t > 0.0, t, np.inf))
        col_o = origins[::n_beams, :2]
        col_d = dirs[::n_beams, :2]
        col_inv = 1.0 / (col_d / np.linalg.norm(col_d, axis=1, keepdims=True))
        beam = np.arange(n_beams)
        for lo, hi in scene.boxes:
            t1, t2 = (lo[:2] - col_o) * col_inv, (hi[:2] - col_o) * col_inv
            near = np.minimum(t1, t2).max(axis=1)
            far = np.maximum(t1, t2).min(axis=1)
            cols = np.flatnonzero((near <= far) & (far > 0.0) & (near <= max_range))
            if cols.size == 0:
                continue
            rays = (cols[:, None] * n_beams + beam[None, :]).reshape(-1)
            o, iv = origins[rays], inv[rays]
            t1, t2 = (lo - o) * iv, (hi - o) * iv
            near = np.minimum(t1, t2).max(axis=1)
            far = np.maximum(t1, t2).min(axis=1)
            hit = (near <= far) & (near > 0.0) & (near < best[rays])
            best[rays[hit]] = near[hit]
    return np.where(best <= max_range, best, np.inf)


def sweep(scene: Scene, scanner, pattern: np.random.Generator, noise: np.random.Generator,
          pose: np.ndarray, twist: np.ndarray, theta0: float, in_sweep_motion: bool):
    """One sweep: sensor-frame points in firing order and their fractions s.
    ``pattern`` draws a pattern scanner's rays; ``noise`` draws Gaussian range
    noise of RANGE_NOISE_M along every ray."""
    dirs, s, group = scanner.rays(pattern, theta0)
    if in_sweep_motion:
        cols = s[::group]
        mats = pose @ exp_twist_scaled(cols - 1.0, twist)
        per_ray = np.repeat(mats, group, axis=0)
    else:
        per_ray = np.broadcast_to(pose, (len(dirs), 4, 4))
    origins = per_ray[:, :3, 3]
    world_dirs = np.einsum("nij,nj->ni", per_ray[:, :3, :3], dirs)
    t = _cast(scene, origins, world_dirs, group, scanner.max_range)
    keep = np.isfinite(t)
    t = t[keep] + noise.normal(0.0, RANGE_NOISE_M, int(keep.sum()))
    return dirs[keep] * t[:, None], s[keep]


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str                      # "bin" or "ply"
    threads: int
    deskew: bool
    frames: int
    rpe_lengths: tuple            # metres, RPE subsequence lengths
    burst: tuple = ()             # designed degenerate frames [first, last)


WORKLOADS = {
    "street_120k": Workload("street_120k", "bin", threads=2, deskew=True, frames=26,
                            rpe_lengths=(10.0, 15.0, 20.0)),
    "corridor_20k": Workload("corridor_20k", "bin", threads=1, deskew=False, frames=45,
                             rpe_lengths=(10.0, 20.0, 30.0)),
    "room_burst_5k": Workload("room_burst_5k", "ply", threads=1, deskew=True, frames=90,
                              rpe_lengths=(5.0, 10.0, 15.0), burst=(45, 57)),
}

STREET_SCANNER = Scanner(64, 1900, -24.9, 2.0, 130.0)
CORRIDOR_SCANNER = Scanner(16, 1250, -15.0, 15.0, 100.0)
ROOM_SCANNER = PatternScanner(5000, -40.0, 60.0, 60.0)


def burst_scene(pose: np.ndarray) -> Scene:
    """What the room scanner returns during its burst: a single flat panel
    1.5 m ahead (an occluder), nothing else. The panel lies in free space,
    farther than any association gate from every surface of the map, so
    registration gets no accepted pair and must flag every burst frame."""
    x, y = pose[0, 3], pose[1, 3]
    scene = Scene(ground=False)
    scene.add([x + 1.5, y - 1.5, 0.6], [x + 1.52, y + 1.5, 2.2])
    return scene


def _twists(w: Workload) -> np.ndarray:
    """Per-frame body twists (m and rad per frame); twists[k] moves k-1 -> k
    and is also the in-sweep motion of frame k."""
    k = np.arange(w.frames)
    tw = np.zeros((w.frames, 6))
    if w.name == "street_120k":
        # standstill, a five-frame ramp to 1 m/frame, gentle weaving yaw
        tw[:, 0] = np.minimum(k / 5.0, 1.0)
        yaw = np.deg2rad(3.0) * np.sin(2.0 * np.pi * k / 40.0)
        tw[1:, 5] = np.diff(yaw)
    elif w.name == "corridor_20k":
        # standstill, then 0.8 m/frame in one step
        tw[5:, 0] = 0.8
    else:
        tw[:, 0] = 0.2
    return tw


def _start_pose(w: Workload) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = {"street_120k": (0.0, 0.0, 1.73), "corridor_20k": (0.0, 0.0, 1.5),
                "room_burst_5k": (6.0, 0.0, 1.2)}[w.name]
    return m


def _rngs(name: str, seed: int):
    """(design, noise) generators. The scene, the scanner's phase and its ray
    pattern are fixed per workload, as a real scanner's firing pattern is;
    the seed draws the range noise of every return. Seeds thus give different
    recordings of one scenario, whose cost and accuracy stay comparable from
    seed to seed (the scanner's phase alone moved street RPE by half)."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng(tag), np.random.default_rng([seed, tag])


def generate(name: str, seed: int, out: Path) -> dict:
    """Write one workload's scans, times.txt and ground truth under ``out``.

    Layout: ``scans/NNNNNN.{bin,ply}``, ``times.txt``, ``poses.txt`` (KITTI
    pose format) and ``manifest.json`` (points written per scan, the design
    and the sha256 of every file). Returns the manifest.
    """
    w = WORKLOADS[name]
    layout, noise = _rngs(name, seed)
    twists = _twists(w)
    poses = integrate(_start_pose(w), twists)
    if name == "street_120k":
        scene, scanner = street_scene(layout, -140.0, w.frames + 140.0), STREET_SCANNER
    elif name == "corridor_20k":
        scene, scanner = corridor_scene(layout, -30.0, 60.0), CORRIDOR_SCANNER
    else:
        scene, scanner = room_scene(layout), ROOM_SCANNER
    theta0 = layout.uniform(-np.pi, np.pi)

    scans = out / "scans"
    scans.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(w.frames):
        in_burst = w.burst and w.burst[0] <= k < w.burst[1]
        if in_burst:
            pts, s = sweep(burst_scene(poses[k]), scanner, layout, noise, poses[k],
                           twists[k], theta0, w.deskew)
        else:
            pts, s = sweep(scene, scanner, layout, noise, poses[k], twists[k], theta0,
                           w.deskew)
        path = scans / f"{k:06d}.{w.fmt}"
        if w.fmt == "bin":
            rec = np.zeros((len(pts), 4), dtype="<f4")
            rec[:, :3] = pts
            rec[:, 3] = 0.5
            path.write_bytes(rec.tobytes())
        else:
            _write_ply(path, pts, s)
        written.append(len(pts))
    (out / "times.txt").write_text("".join(f"{k * SCAN_PERIOD:.17g}\n" for k in range(w.frames)))
    # ground truth in the frame of the first pose, as the odometry reports it
    poses = np.linalg.inv(poses[0]) @ poses
    (out / "poses.txt").write_text("".join(
        " ".join(f"{v:.17g}" for v in p[:3, :].reshape(-1)) + "\n" for p in poses))
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
    manifest = {
        "generator": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
        "workload": name, "seed": seed, "frames": w.frames, "format": w.fmt,
        "threads": w.threads, "deskew": w.deskew, "burst": list(w.burst),
        "rpe_lengths": list(w.rpe_lengths), "points_written": written,
        "sha256": {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def _write_ply(path: Path, pts: np.ndarray, s: np.ndarray) -> None:
    """Binary little-endian PLY, doubles x y z time; time is the fraction s."""
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(pts)}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property double time\nend_header\n")
    table = np.empty((len(pts), 4), dtype="<f8")
    table[:, :3] = pts
    table[:, 3] = s
    path.write_bytes(header.encode("ascii") + table.tobytes())


def read_poses(path: Path) -> np.ndarray:
    """(K, 4, 4) poses from a KITTI pose file."""
    rows = np.loadtxt(path, dtype=np.float64, ndmin=2).reshape(-1, 3, 4)
    out = np.tile(np.eye(4), (len(rows), 1, 1))
    out[:, :3, :] = rows
    return out
