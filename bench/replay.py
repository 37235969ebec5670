"""One benchmark process: replays a generated sequence through ``madlo``.

The path is the one ``madlo odometry`` takes, ``ScanSource`` then
``run_sequence``. Frames are stamped from outside, in the ``on_frame``
callback, so an untraced replay adds no code to the frame loop. The loop is
closed: the next scan is read only after the previous pose is out.

Modes:
  setup  import madlo, validate the config, open the source, process the
         bootstrap frame, report the time and exit
  run    untraced replays for --seconds (at least one), then, with
         --traced-seconds > 0, traced replays for that long (at least one);
         then evaluation through madlo.evaluation

Only the standard library and the benchmark's stdlib helpers are loaded
before the clock starts, so ``setup_s`` includes the import of numpy that
``import madlo`` brings.

Usage: python3 bench/replay.py --data DIR --mode run --seconds 20 --out OUT
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from stats import median, tail_percentile


class _Bootstrapped(Exception):
    pass


def _replays(seconds: float, replay):
    """Whole replays until ``seconds`` have passed; at least one."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(replay())
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    manifest = json.loads((args.data / "manifest.json").read_text())

    t0 = time.perf_counter()
    from madlo.dataset_io import RunConfig, ScanSource
    from madlo.pipeline import run_sequence, validate_config

    config = RunConfig(threads=manifest["threads"], deskew=manifest["deskew"])
    validate_config(config)
    kind = "kitti_bin_dir" if manifest["format"] == "bin" else "ply_dir"
    source = ScanSource(kind, args.data / "scans", scan_period=config.scan_period,
                        min_range=config.min_range, max_range=config.max_range)

    if args.mode == "setup":
        def stop(out):
            raise _Bootstrapped

        try:
            run_sequence(source, config, on_frame=stop)
        except _Bootstrapped:
            setup = time.perf_counter() - t0
        args.out.write_text(json.dumps({"setup_s": setup}))
        return 0

    def untraced():
        stamps = []
        traj, outs = run_sequence(source, config,
                                  on_frame=lambda out: stamps.append(time.perf_counter()))
        return stamps, traj, outs

    runs = _replays(args.seconds, untraced)
    setup = runs[0][0][0] - t0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": setup,
        "peak_rss_kb": peak_rss_kb,
        "replays": [{"stamps": stamps, "hash": _hash(traj)} for stamps, traj, _ in runs],
        "flags": [out.fallback for out in runs[0][2]],
    }
    traj = runs[0][1]

    if args.traced_seconds > 0:
        import tracing

        tracers = []

        def traced():
            tracer = tracing.Tracer()
            stamps = []
            with tracing.instrument(tracer):
                traj, _ = run_sequence(source, config,
                                       on_frame=lambda out: stamps.append(time.perf_counter()))
            tracers.append(tracer)
            return stamps, traj

        traced_runs = _replays(args.traced_seconds, traced)
        samples = tracing.merge_samples(
            [tracing.layer_samples(t, manifest["points_written"]) for t in tracers])
        result["traced"] = {
            "replays": [{"stamps": stamps, "hash": _hash(t)} for stamps, t in traced_runs],
            "metrics": tracing.layer_metrics(
                samples, tail_percentile(manifest["frames"] - 1),
                _frame_ms([stamps for stamps, _ in traced_runs]),
                median(_frame_ms([stamps for stamps, _, _ in runs]))),
            "untimed_layers": tracing.UNTIMED_LAYERS,
        }
        with open(args.out.with_name("trace.jsonl"), "w") as fh:
            for i, tracer in enumerate(tracers):
                for rec in tracing.span_records(tracer, i):
                    fh.write(json.dumps(rec) + "\n")

    result["accuracy"] = _accuracy(traj, args.data, manifest)
    from madlo.dataset_io import write_trajectory_kitti
    import numpy

    write_trajectory_kitti(traj, args.out.with_name("trajectory.txt"))
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    args.out.write_text(json.dumps(result))
    return 0


def _frame_ms(stamp_lists) -> list:
    """Per timed frame: read_scan start to on_frame, bootstrap excluded."""
    return [(b - a) * 1e3 for stamps in stamp_lists for a, b in zip(stamps, stamps[1:])]


def _hash(traj) -> str:
    """sha256 of the float64 bytes of every pose's 3x4 matrix, in order."""
    h = hashlib.sha256()
    for sp in traj:
        h.update(sp.pose.matrix()[:3, :].tobytes())
    return h.hexdigest()


def _accuracy(traj, data: Path, manifest) -> dict:
    from madlo.dataset_io import read_trajectory_kitti
    from madlo.evaluation import RpeConfig, compute_rpe
    import numpy as np

    gt = read_trajectory_kitti(data / "poses.txt")
    rpe = compute_rpe(traj, gt, RpeConfig(lengths=tuple(manifest["rpe_lengths"])))
    drift = float(np.linalg.norm(traj[len(traj) - 1].pose.translation
                                 - gt[len(gt) - 1].pose.translation))
    return {"rpe_pct": rpe.overall, "rpe_rot_deg_per_m": rpe.overall_rot, "drift_m": drift,
            "rpe_records": len(rpe.records)}


if __name__ == "__main__":
    sys.exit(main())
