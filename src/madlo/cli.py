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
    od.add_argument("--time-budget-ms", type=float, dest="time_budget_ms",
                    help="per-frame registration time budget")
    od.add_argument("--no-deskew", action="store_true", help="disable motion compensation")

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
    if args.time_budget_ms is not None:
        config = replace(config, time_budget_ms=args.time_budget_ms)
    if args.no_deskew:
        config = replace(config, deskew=False)
    return config


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_trajectory_atomic(traj, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_trajectory_kitti(traj, tmp)
    os.replace(tmp, path)


def _run_odometry(args) -> int:
    config = build_run_config(args)
    validate_config(config)
    source = ScanSource(_FORMAT_KINDS[args.format], args.data,
                        scan_period=config.scan_period,
                        min_range=config.min_range, max_range=config.max_range)
    source.stamps()  # reject a bad times.txt before anything is written
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
    _write_trajectory_atomic(trajectory, traj_path)
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
        _atomic_write_text(out_dir / "rpe.csv", text)
        curve, _ = cumulative_curve([report.overall])
        _atomic_write_text(out_dir / "curve.csv", curve_csv(curve))
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
