"""Command line front end.

Two subcommands: ``odometry`` runs a scan directory through the engine and
writes the estimated trajectory plus a per-frame log; ``evaluate`` scores an
estimated trajectory against ground truth. Exit codes: 0 success, 1 usage
error (usage text printed, nothing written), 2 I/O failure. File outputs go
through a temp-file-and-rename so readers never observe partial content;
the per-frame log is flushed line by line so an aborted run still leaves
every processed frame on disk.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

# Hold the BLAS and OpenMP pools at one thread, as the benchmark does, unless
# the user set them: the pipeline's (N, 3) @ (3, 3) products stall in a
# multi-threaded pool. This must run before the first import of numpy.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .dataset_io import (
    RunConfig,
    ScanSource,
    coerce_config_value,
    parse_config,
    read_trajectory_kitti,
    write_trajectory_kitti,
)
from .evaluation import RpeConfig, compute_rpe, cumulative_curve, curve_csv, rpe_report_csv
from .pipeline import FRAME_LOG_HEADER, SequenceAborted, run_sequence, validate_config

_FORMAT_KINDS = {"kitti": "kitti_bin_dir", "ply": "ply_dir"}
# each RPE length is one pass over the trajectory; a spec asking for more
# than this is a typo, and an unbounded one would exhaust memory
MAX_LENGTHS = 1000


def _build_parser() -> argparse.ArgumentParser:
    defaults = ", ".join(f"{k}={getattr(RunConfig(), k)}"
                         for k in ("b_max", "b_min", "b_ratio", "p_th", "rho_ker", "n"))
    parser = argparse.ArgumentParser(
        prog="madlo",
        description="LiDAR odometry on PCA kd-trees of planar patches.",
        epilog=f"default parameters: {defaults}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    od = sub.add_parser("odometry", help="run a scan sequence, write trajectory + log")
    od.add_argument("--data", required=True, help="directory of scans")
    od.add_argument("--format", choices=sorted(_FORMAT_KINDS), default="kitti",
                    help="scan file format (default: kitti)")
    od.add_argument("--out", required=True, help="output directory")
    od.add_argument("--config", help="key = value config file")
    od.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override one config key (repeatable)")

    ev = sub.add_parser("evaluate", help="relative pose error of est vs gt")
    ev.add_argument("--est", required=True, help="estimated trajectory (12-float lines)")
    ev.add_argument("--gt", required=True, help="ground-truth trajectory")
    ev.add_argument("--lengths", default="100:800:100", metavar="A:B:S",
                    help="subsequence lengths from A to B step S, meters")
    ev.add_argument("--out", help="directory for rpe.csv and curve.csv")
    return parser


def parse_lengths(spec: str) -> tuple:
    try:
        a, b, s = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ValueError(f"--lengths expects A:B:S, got {spec!r}") from None
    if not (0 < a <= b < math.inf and 0 < s < math.inf):  # NaN fails too
        raise ValueError(f"--lengths needs finite 0 < A <= B and S > 0, got {spec!r}")
    lengths = []
    v = a
    while v <= b + 1e-9:
        if len(lengths) == MAX_LENGTHS:
            raise ValueError(f"--lengths gives more than {MAX_LENGTHS} lengths, got {spec!r}")
        lengths.append(v)
        if v + s == v:
            raise ValueError(f"--lengths step S does not advance past {v:g}, got {spec!r}")
        v += s
    return tuple(lengths)


def build_run_config(args) -> RunConfig:
    config = parse_config(args.config) if args.config else RunConfig()
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        config = replace(config, **{key: coerce_config_value(key, raw)})
    return config


def _write_atomic(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _run_odometry(args) -> int:
    config = build_run_config(args)
    validate_config(config)
    # checks the range band and reads times.txt, before anything is written
    source = ScanSource(_FORMAT_KINDS[args.format], args.data,
                        scan_period=config.scan_period,
                        min_range=config.min_range, max_range=config.max_range)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "frames.csv"
    log_tmp = log_path.with_name(log_path.name + ".tmp")

    code = 0
    try:
        with open(log_tmp, "w") as log_file:
            log_file.write(FRAME_LOG_HEADER + "\n")
            log_file.flush()

            def on_frame(out):
                log_file.write(out.csv_row() + "\n")
                log_file.flush()

            try:
                trajectory, _ = run_sequence(source, config, on_frame=on_frame)
            except SequenceAborted as err:
                print(f"I/O error: {err}", file=sys.stderr)
                trajectory = err.trajectory
                code = 2
    finally:
        # keep whatever prefix of the log made it to disk, even on a crash
        if log_tmp.exists():
            os.replace(log_tmp, log_path)

    traj_path = out_dir / "trajectory.txt"
    _write_atomic(traj_path, lambda tmp: write_trajectory_kitti(trajectory, tmp))
    print(f"wrote {traj_path} ({len(trajectory)} poses) and {log_path}")
    return code


def _run_evaluate(args) -> int:
    lengths = parse_lengths(args.lengths)
    est = read_trajectory_kitti(args.est)
    gt = read_trajectory_kitti(args.gt)
    report = compute_rpe(est, gt, RpeConfig(lengths=lengths))
    text = rpe_report_csv(report)
    print(text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(out_dir / "rpe.csv", lambda tmp: tmp.write_text(text))
        curve, _ = cumulative_curve([report.overall])
        _write_atomic(out_dir / "curve.csv", lambda tmp: tmp.write_text(curve_csv(curve)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=(logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)],
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "odometry":
            return _run_odometry(args)
        return _run_evaluate(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
