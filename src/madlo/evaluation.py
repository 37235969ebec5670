"""Relative pose error over fixed subsequence lengths and its summary curve.

For every start frame i and every length L, the endpoint j is the smallest
frame whose cumulative ground-truth path distance from i reaches L. The
error of the subsequence is the translation of (gt_i^-1 gt_j)^-1
(est_i^-1 est_j), as a percentage of the path distance.
Sequence-level errors aggregate into a cumulative count curve whose exact
area under [0, max_err] ranks methods; a diverged sequence contributes zero
area no matter how large its error.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import log_so3

DEFAULT_LENGTHS = tuple(float(v) for v in range(100, 900, 100))


@dataclass(frozen=True)
class RpeConfig:
    lengths: tuple = DEFAULT_LENGTHS

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        if not lengths or any(v <= 0 for v in lengths):
            raise ValueError("lengths must be positive")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("lengths must be strictly increasing")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class SubsequenceError:
    start: int
    length: float
    path_length: float
    trans_err_pct: float
    rot_err_deg_per_m: float


@dataclass
class RpeReport:
    per_length: dict
    overall: float
    overall_rot: float
    records: list = field(repr=False)


def _cumulative_path(gt) -> np.ndarray:
    t = np.stack([sp.pose.translation for sp in gt])
    steps = np.linalg.norm(np.diff(t, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def compute_rpe(est, gt, cfg: RpeConfig = RpeConfig()) -> RpeReport:
    """Translational (and, internally, rotational) RPE of est against gt.

    Both trajectories must be index-aligned and of equal length. Subsequences
    whose endpoint would fall past the last frame are skipped; when that
    leaves none, because no requested length fits the ground-truth path, a
    ValueError is raised. The overall number is the flat mean over all
    subsequence records, not the mean of the per-length means.
    """
    if len(est) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(est)} vs {len(gt)}")
    if len(gt) < 2:
        raise ValueError("need at least 2 poses to evaluate")
    cum = _cumulative_path(gt)
    records = []
    for i in range(len(gt)):
        ends = np.searchsorted(cum, cum[i] + np.asarray(cfg.lengths), side="left")
        for length, j in zip(cfg.lengths, ends):
            if j >= len(gt):
                continue
            gt_rel = gt[i].pose.inverse() @ gt[j].pose
            est_rel = est[i].pose.inverse() @ est[j].pose
            err = gt_rel.inverse() @ est_rel
            path = cum[j] - cum[i]
            records.append(SubsequenceError(
                start=i,
                length=length,
                path_length=float(path),
                trans_err_pct=float(100.0 * np.linalg.norm(err.translation) / path),
                rot_err_deg_per_m=float(
                    np.degrees(np.linalg.norm(log_so3(err.rotation))) / path),
            ))
    if not records:
        raise ValueError(f"no subsequence fits: the ground-truth path is {cum[-1]:g} m, "
                         f"the shortest requested length {cfg.lengths[0]:g} m")
    per_length = {}
    for length in cfg.lengths:
        errs = [r.trans_err_pct for r in records if r.length == length]
        if errs:
            per_length[length] = float(np.mean(errs))
    overall = float(np.mean([r.trans_err_pct for r in records]))
    overall_rot = float(np.mean([r.rot_err_deg_per_m for r in records]))
    return RpeReport(per_length=per_length, overall=overall,
                     overall_rot=overall_rot, records=records)


def cumulative_curve(errors, max_err=10.0, resolution=0.01):
    """Count-of-sequences-below-threshold curve and its exact area.

    Returns (curve, auc): curve is an (M, 2) array of (threshold, count)
    samples on a regular grid over [0, max_err]; auc is the exact integral
    of the step function, sum of max(0, max_err - e) over sequence errors e.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("no sequence errors to summarize")
    if (errors < 0).any():
        raise ValueError("sequence errors must be non-negative")
    thresholds = np.arange(0.0, max_err + resolution / 2.0, resolution)
    counts = (errors[None, :] <= thresholds[:, None]).sum(axis=1)
    curve = np.column_stack([thresholds, counts.astype(np.float64)])
    auc = float(np.maximum(0.0, max_err - errors).sum())
    return curve, auc


def rpe_report_csv(report: RpeReport) -> str:
    lines = ["length,mean_err_pct"]
    lines += [f"{length:g},{err:.17g}" for length, err in sorted(report.per_length.items())]
    lines.append(f"overall,{report.overall:.17g}")
    return "\n".join(lines) + "\n"


def curve_csv(curve: np.ndarray) -> str:
    lines = ["threshold,count"]
    lines += [f"{x:.17g},{int(c)}" for x, c in curve]
    return "\n".join(lines) + "\n"
