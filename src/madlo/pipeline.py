"""Frame-by-frame odometry loop.

Each frame runs deskew -> tree build -> constant-velocity prediction ->
scan-to-forest ICP -> tree transform into the world frame -> candidate push
-> velocity re-estimation -> conditional keyframe promotion. A degenerate
registration never aborts the run: the predicted pose is adopted, the frame
is flagged, and its candidate is barred from promotion, so every sequence
yields a full-length trajectory.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset_io import RunConfig, ScanSource, Trajectory, synthesize_rel_times
from .geometry import Isometry3, PointCloud
from .localmap import Keyframe, LocalMap
from .madtree import TreeParams, build_tree, transform_tree
from .motion import StampedPose, VelocityEstimate, deskew, estimate_velocity, predict_pose
from .registration import DegenerateRegistrationError, RegistrationParams, icp

log = logging.getLogger(__name__)

FRAME_LOG_HEADER = "frame,t_deskew_ms,t_build_ms,t_icp_ms,t_update_ms,p,det_H,fallback"


def registration_params(config: RunConfig) -> RegistrationParams:
    budget = None if config.time_budget_ms is None else config.time_budget_ms / 1000.0
    return RegistrationParams(b_ratio=config.b_ratio, rho_ker=config.rho_ker,
                              max_iterations=config.max_iterations,
                              time_budget=budget)


def validate_config(config: RunConfig) -> None:
    """Reject parameter values the pipeline cannot run with (raises ValueError)."""
    TreeParams(b_max=config.b_max, b_min=config.b_min)
    registration_params(config)
    if not 0.0 < config.p_th <= 1.0:
        raise ValueError(f"p_th must be in (0, 1], got {config.p_th}")
    if config.n < 2:
        raise ValueError(f"velocity window n must be >= 2, got {config.n}")
    if config.threads < 1:
        raise ValueError(f"threads must be >= 1, got {config.threads}")
    if not config.scan_period > 0.0:  # NaN fails too
        raise ValueError(f"scan_period must be positive, got {config.scan_period}")
    if not 0.0 <= config.min_range < config.max_range:
        raise ValueError("need 0 <= min_range < max_range, got "
                         f"{config.min_range}..{config.max_range}")


@dataclass(frozen=True)
class FrameOutput:
    """Per-frame result and timing breakdown (milliseconds)."""

    frame: int
    pose: Isometry3
    matched_fraction: float
    det_information: float
    fallback: bool
    iterations: int
    t_deskew_ms: float
    t_build_ms: float
    t_icp_ms: float
    t_update_ms: float

    def __post_init__(self):
        for t in (self.t_deskew_ms, self.t_build_ms, self.t_icp_ms, self.t_update_ms):
            if t < 0:
                raise ValueError("timings must be non-negative")

    def csv_row(self) -> str:
        return (f"{self.frame},{self.t_deskew_ms:.3f},{self.t_build_ms:.3f},"
                f"{self.t_icp_ms:.3f},{self.t_update_ms:.3f},"
                f"{self.matched_fraction:.17g},{self.det_information:.17g},"
                f"{int(self.fallback)}")


@dataclass
class OdometryState:
    """Everything the loop carries across frames."""

    config: RunConfig
    tree_params: TreeParams
    reg_params: RegistrationParams
    local_map: LocalMap
    trajectory: list = field(default_factory=list)
    velocity: VelocityEstimate = field(default_factory=VelocityEstimate.zero)
    frame_index: int = 0

    @classmethod
    def initial(cls, config: RunConfig) -> "OdometryState":
        validate_config(config)
        return cls(config=config,
                   tree_params=TreeParams(b_max=config.b_max, b_min=config.b_min),
                   reg_params=registration_params(config),
                   local_map=LocalMap())


class SequenceAborted(RuntimeError):
    """I/O failure mid-run; carries the frames processed so far."""

    def __init__(self, cause, trajectory, outputs):
        super().__init__(f"sequence aborted at frame {len(outputs)}: {cause}")
        self.cause = cause
        self.trajectory = trajectory
        self.outputs = outputs


def process_frame(state: OdometryState, cloud: PointCloud, stamp=None) -> FrameOutput:
    """Advance the odometry by one scan; always yields a pose.

    Stamps must strictly increase from frame to frame.
    """
    k = state.frame_index
    if stamp is None:
        stamp = k * state.config.scan_period
    if state.trajectory:
        dt = stamp - state.trajectory[-1].stamp
        guess = predict_pose(state.trajectory[-1].pose, state.velocity, dt)
    else:
        guess = Isometry3.identity()

    t0 = time.perf_counter()
    # a zero twist (the first two frames) would only copy the cloud
    moving = state.velocity.v.any() or state.velocity.omega.any()
    if state.config.deskew and moving and len(cloud) > 0:
        if cloud.rel_times is None:
            cloud = synthesize_rel_times(cloud)
        cloud = deskew(cloud, state.velocity, state.config.scan_period)
    t1 = time.perf_counter()

    if len(cloud) == 0:
        # nothing to register; adopt the prediction and move on
        log.warning("frame %d: empty cloud, adopting predicted pose", k)
        out = FrameOutput(frame=k, pose=guess, matched_fraction=0.0,
                          det_information=0.0, fallback=True, iterations=0,
                          t_deskew_ms=(t1 - t0) * 1e3, t_build_ms=0.0,
                          t_icp_ms=0.0, t_update_ms=0.0)
        _advance(state, guess, stamp)
        return out

    tree = build_tree(cloud, state.tree_params)
    t2 = time.perf_counter()

    if not state.local_map.keyframes:
        # bootstrap: this scan anchors the map
        transform_tree(tree, guess)
        state.local_map.install(Keyframe(tree=tree, information=np.eye(6),
                                         frame_index=k))
        t3 = time.perf_counter()
        out = FrameOutput(frame=k, pose=guess, matched_fraction=1.0,
                          det_information=1.0, fallback=False, iterations=0,
                          t_deskew_ms=(t1 - t0) * 1e3, t_build_ms=(t2 - t1) * 1e3,
                          t_icp_ms=0.0, t_update_ms=(t3 - t2) * 1e3)
        _advance(state, guess, stamp)
        return out

    fallback = False
    try:
        result = icp(state.local_map.trees(), tree, guess, state.reg_params)
        pose = result.pose
    except DegenerateRegistrationError as err:
        result = err.result
        pose = guess
        fallback = True
        log.warning("frame %d: degenerate registration, using predicted pose", k)
    t3 = time.perf_counter()

    transform_tree(tree, pose)
    state.local_map.push_candidate(Keyframe(
        tree=tree, information=result.information, frame_index=k,
        degenerate=fallback))
    _advance(state, pose, stamp)
    state.local_map.maybe_update(result.matched_fraction, state.config.p_th)
    t4 = time.perf_counter()

    return FrameOutput(frame=k, pose=pose,
                       matched_fraction=result.matched_fraction,
                       det_information=float(np.linalg.det(result.information)),
                       fallback=fallback, iterations=result.iterations,
                       t_deskew_ms=(t1 - t0) * 1e3, t_build_ms=(t2 - t1) * 1e3,
                       t_icp_ms=(t3 - t2) * 1e3, t_update_ms=(t4 - t3) * 1e3)


def _advance(state: OdometryState, pose: Isometry3, stamp: float) -> None:
    state.trajectory.append(StampedPose(pose, stamp))
    state.velocity = estimate_velocity(state.trajectory[-state.config.n:])
    state.frame_index += 1


def run_sequence(source: ScanSource, config: RunConfig, on_frame=None):
    """Run odometry over every scan in the source.

    Returns (Trajectory, [FrameOutput]). ``on_frame(output)`` fires after
    each frame so callers can stream the log to disk. A reader error raises
    SequenceAborted carrying everything processed so far.
    """
    state = OdometryState.initial(config)
    outputs = []
    stamps = source.stamps()
    for k in range(len(source)):
        try:
            cloud = source.read_scan(k)
        except (OSError, ValueError) as err:
            raise SequenceAborted(err, Trajectory(state.trajectory), outputs) from err
        out = process_frame(state, cloud, stamp=stamps[k])
        outputs.append(out)
        if on_frame is not None:
            on_frame(out)
    return Trajectory(state.trajectory), outputs
