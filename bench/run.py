"""madlo benchmark: replay a seeded synthetic scan sequence, check it, report.

Usage (from the repository root):

    python3 bench/run.py --workload street_120k --seed 1 --seconds 20 --trace 0

The sequence is generated from the seed and written under ``.bench/data``
before any timing starts, so the program sees only files. Timing runs in a
child process (``bench/replay.py``) with BLAS/OpenMP pools held at one
thread, so the pipeline's own ``threads`` setting is the only parallelism.

--trace 0  end-to-end metrics: two set-up probes plus the timed replays
--trace 1  per-layer metrics: untraced replays for half the time, then
           traced replays for the other half, in one process

Every run checks the trajectory (length, finite, rigid), the designed
fallback frames of ``room_burst_5k``, that every replay, traced or not,
gives byte-identical poses, and that an earlier run of the same code on the
same seed gave the same trajectory hash. A failed check exits 1; a run that
cannot start (no ``src/madlo``) exits 2. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import scenes
from stats import median, percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
# BLAS and OpenMP pools the child may start; held at one thread each
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                     "NUMEXPR_NUM_THREADS")}
# a frame whose motion is off the truth by more than this has failed
MOTION_TOL_M = 0.1
MOTION_TOL_DEG = 1.0
# Accuracy is reported plus a fixed reference, so that a bound, which is a
# share of the median, reads as an absolute tolerance: on healthy workloads
# the raw errors are tiny and vary from seed to seed by more than any share.
RPE_REF_PCT = 0.5
ROT_REF_DEG_PER_M = 0.01
DRIFT_REF_M = 0.1
SANDBOX = ("shared machine: other tenants' load is not controlled; "
           "no CPU pinning; no hardware performance counters")


class CheckFailed(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ensure_data(work: Path, workload: str, seed: int) -> Path:
    """The workload's generated sequence for this seed, reused when it is
    on disk from the same generator and every file still hashes right."""
    out = work / "data" / f"{workload}-{seed}"
    manifest_path = out / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if (manifest.get("generator") == _sha256(BENCH / "scenes.py")
                and all((out / rel).is_file() and _sha256(out / rel) == digest
                        for rel, digest in manifest["sha256"].items())):
            return out
    # keep one sequence per workload on disk
    for old in (work / "data").glob(f"{workload}-*"):
        shutil.rmtree(old)
    scenes.generate(workload, seed, out)
    return out


def child(root: Path, out: Path, *args) -> dict:
    """Run bench/replay.py, which writes its result to ``out``; return it."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(BENCH / "replay.py"), "--out", str(out),
                           *map(str, args)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"replay exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text())


def _to_matrices(rows: np.ndarray) -> np.ndarray:
    m = np.tile(np.eye(4), (len(rows), 1, 1))
    m[:, :3, :] = rows.reshape(-1, 3, 4)
    return m


def check_trajectory(est: np.ndarray, frames: int) -> None:
    if len(est) != frames:
        raise CheckFailed(f"trajectory has {len(est)} poses, expected {frames}")
    if not np.isfinite(est).all():
        raise CheckFailed("trajectory has non-finite values")
    rot = est[:, :3, :3]
    ortho = np.abs(np.einsum("kji,kjl->kil", rot, rot) - np.eye(3)).max()
    if ortho > 1e-6 or (np.linalg.det(rot) <= 0.0).any():
        raise CheckFailed(f"trajectory is not a rigid motion (orthonormality error {ortho:.2e})")


def motion_errors(est: np.ndarray, gt: np.ndarray):
    """Per-frame (metres, degrees) error of the motion k-1 -> k, k >= 1."""
    rel_est = np.linalg.inv(est[:-1]) @ est[1:]
    rel_gt = np.linalg.inv(gt[:-1]) @ gt[1:]
    err = np.linalg.inv(rel_gt) @ rel_est
    trans = np.linalg.norm(err[:, :3, 3], axis=1)
    cos = np.clip((np.trace(err[:, :3, :3], axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    return trans, np.degrees(np.arccos(cos))


def failed_frames(est, gt, flags, burst) -> list:
    """Frames flagged outside the designed span, or whose motion is off the
    truth by more than MOTION_TOL_M or MOTION_TOL_DEG (silent divergence)."""
    designed = set(range(*burst)) if burst else set()
    trans, rot = motion_errors(est, gt)
    off = {int(k) + 1 for k in np.flatnonzero((trans > MOTION_TOL_M) | (rot > MOTION_TOL_DEG))}
    return sorted({k for k, f in enumerate(flags) if f and k not in designed} | off)


def check_hashes(work: Path, root: Path, workload: str, seed: int, hashes: list) -> str:
    """All replays agree, and agree with earlier runs of the same code."""
    if len(set(hashes)) != 1:
        raise CheckFailed(f"replays of one run gave {len(set(hashes))} different trajectories")
    code = hashlib.sha256()
    for path in sorted((root / "src" / "madlo").rglob("*.py")) + [BENCH / "scenes.py"]:
        code.update(path.read_bytes())
    key = f"{workload}:{seed}:{code.hexdigest()}"
    book_path = work / "hashes.json"
    book = json.loads(book_path.read_text()) if book_path.is_file() else {}
    if book.setdefault(key, hashes[0]) != hashes[0]:
        raise CheckFailed("trajectory differs from an earlier run of the same code and seed")
    book_path.write_text(json.dumps(book, indent=1, sort_keys=True))
    return hashes[0]


def frame_times_ms(replays) -> list:
    """Per timed frame: read_scan start to on_frame, bootstrap excluded."""
    return [(b - a) * 1e3 for r in replays for a, b in zip(r["stamps"], r["stamps"][1:])]


def run_context() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "child_thread_env": THREAD_ENV, "sandbox": SANDBOX}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="madlo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "madlo" / "__init__.py").is_file():
        print(f"no madlo sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench"
    w = scenes.WORKLOADS[args.workload]
    data = ensure_data(work, args.workload, args.seed)
    out = work / "out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    compileall.compile_dir(root / "src" / "madlo", quiet=1)

    setups = []
    try:
        if args.trace:
            res = child(root, out / "replay.json", "--data", data, "--mode", "run",
                        "--seconds", args.seconds / 2, "--traced-seconds", args.seconds / 2)
        else:
            for i in range(SETUP_PROBES):
                setups.append(child(root, out / f"setup{i}.json", "--data", data,
                                    "--mode", "setup")["setup_s"])
            res = child(root, out / "replay.json", "--data", data, "--mode", "run",
                        "--seconds", args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"replay failed: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    gt = scenes.read_poses(data / "poses.txt")
    est = _to_matrices(np.loadtxt(out / "trajectory.txt", ndmin=2))
    flags = res["flags"]
    replays = res["replays"] + (res["traced"]["replays"] if args.trace else [])
    errors = []
    traj_hash = None
    try:
        check_trajectory(est, w.frames)
        if w.burst and flags != [w.burst[0] <= k < w.burst[1] for k in range(w.frames)]:
            raise CheckFailed(f"fallback frames {[k for k, f in enumerate(flags) if f]} "
                              f"differ from the designed burst {list(range(*w.burst))}")
        traj_hash = check_hashes(work, root, args.workload, args.seed,
                                 [r["hash"] for r in replays])
    except CheckFailed as err:
        errors.append(str(err))

    failed = failed_frames(est, gt, flags, w.burst)
    flagged = sum(flags)
    frame_ms = frame_times_ms(res["replays"])
    tail_pct = tail_percentile(w.frames - 1)
    timed_s = sum(r["stamps"][-1] - r["stamps"][0] for r in res["replays"])
    acc = res["accuracy"]

    if args.trace:
        metrics = res["traced"]["metrics"]
    else:
        values = {
            "setup_s": (median(setups), "s"),
            "frame_ms_p50": (median(frame_ms), "ms"),
            "frame_ms_tail": (percentile(frame_ms, tail_pct), "ms"),
            "frames_per_s": (len(frame_ms) / timed_s, "1/s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
            f"rpe_pct_plus_{RPE_REF_PCT}": (acc["rpe_pct"] + RPE_REF_PCT, "%"),
            f"rpe_rot_deg_per_m_plus_{ROT_REF_DEG_PER_M}": (
                acc["rpe_rot_deg_per_m"] + ROT_REF_DEG_PER_M, "deg/m"),
            f"drift_m_plus_{DRIFT_REF_M}": (acc["drift_m"] + DRIFT_REF_M, "m"),
            "tracked_frac": (1.0 - len(failed) / w.frames, "frac"),
            "registered_frac": (1.0 - flagged / w.frames, "frac"),
        }
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}

    context = dict(run_context(), child_versions=res["versions"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "frames": w.frames, "untraced_replays": len(res["replays"]),
        "traced_replays": len(res["traced"]["replays"]) if args.trace else 0,
        "timed_frames": len(frame_ms), "tail_percentile": tail_pct,
        "accuracy": acc, "rpe_lengths_m": list(w.rpe_lengths),
        "failed_frames": failed, "failed_frac": len(failed) / w.frames,
        "fallback_frames": [k for k, f in enumerate(flags) if f],
        "fallback_frac": flagged / w.frames, "setup_samples_s": setups,
        "trajectory_sha256": traj_hash, "errors": errors, "context": context,
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(report, indent=1))

    print(f"madlo benchmark: {args.workload} seed {args.seed}, {w.frames} frames/replay, "
          f"{report['untraced_replays']} untraced + {report['traced_replays']} traced replays, "
          f"{len(frame_ms)} timed frames (bootstrap excluded), closed loop, one process")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  tail = p{tail_pct} (highest whole percentile with >= 10 of the "
          f"{w.frames - 1} timed frames of a replay beyond it)")
    print(f"  failed_frac {report['failed_frac']:.4f} (frames {failed}); fallback_frac "
          f"{report['fallback_frac']:.4f} (frames {report['fallback_frames']})")
    print(f"  rpe_pct {acc['rpe_pct']:.6g} %, rpe_rot_deg_per_m {acc['rpe_rot_deg_per_m']:.6g} "
          f"deg/m over RPE lengths {list(w.rpe_lengths)} m ({acc['rpe_records']} subsequences); "
          f"drift_m {acc['drift_m']:.6g} m")
    if args.trace:
        for layer, why in res["traced"]["untimed_layers"].items():
            print(f"  no timer for {layer}: {why}")
    print(f"  trajectory sha256 {traj_hash}")
    print(f"  context: nproc {context['nproc']}, {context['cpu']}, python {context['python']}, "
          f"numpy {context['numpy']}, child env {' '.join(f'{k}=1' for k in THREAD_ENV)}; "
          f"{SANDBOX}")
    print(f"  details: {out.relative_to(root) / 'result.json'}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    attempted = w.frames * len(replays)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
