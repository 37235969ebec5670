"""Frame-by-frame odometry loop.

Each frame runs voxel thinning -> deskew -> tree build -> constant-velocity
prediction -> scan-to-forest ICP -> tree transform into the world frame ->
candidate push -> conditional keyframe promotion -> velocity re-estimation.
A degenerate registration never aborts the run: the predicted pose is
adopted, the frame is flagged, and its candidate is barred from promotion,
so every sequence yields a full-length trajectory.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset_io import RunConfig, ScanSource, synthesize_rel_times
from .geometry import Isometry3, PointCloud
from .localmap import Keyframe, LocalMap
from .madtree import TreeParams, build_tree, thin_cloud, transform_tree
from .motion import StampedPose, deskew, estimate_velocity, predict_pose
from .registration import DegenerateRegistrationError, RegistrationParams, icp

log = logging.getLogger(__name__)

FRAME_LOG_HEADER = "frame,t_deskew_ms,t_build_ms,t_icp_ms,t_update_ms,p,det_H,fallback"


def validate_config(config: RunConfig) -> tuple[TreeParams, RegistrationParams]:
    """Reject values the pipeline reads but cannot run with (raises
    ValueError); return the tree and registration parameters of the rest.
    The range band is ``ScanSource``'s to check, and ``threads`` is unread."""
    params = (TreeParams(b_max=config.b_max, b_min=config.b_min),
              RegistrationParams(b_ratio=config.b_ratio, rho_ker=config.rho_ker,
                                 max_iterations=config.max_iterations,
                                 time_budget_ms=config.time_budget_ms))
    if not 0.0 < config.p_th <= 1.0:
        raise ValueError(f"p_th must be in (0, 1], got {config.p_th}")
    if config.n < 2:
        raise ValueError(f"velocity window n must be >= 2, got {config.n}")
    if not 0.0 < config.scan_period < np.inf:  # NaN fails too
        raise ValueError(f"scan_period must be positive and finite, got {config.scan_period}")
    return params


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
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(6))  # body twist [v, omega]

    @property
    def frame_index(self) -> int:
        """The index of the next frame: one pose per frame processed."""
        return len(self.trajectory)

    @classmethod
    def initial(cls, config: RunConfig) -> "OdometryState":
        tree_params, reg_params = validate_config(config)
        return cls(config=config, tree_params=tree_params, reg_params=reg_params,
                   local_map=LocalMap())


class SequenceAborted(RuntimeError):
    """I/O failure mid-run; carries the frames processed so far."""

    def __init__(self, cause, trajectory, outputs):
        super().__init__(f"sequence aborted at frame {len(outputs)}: {cause}")
        self.cause = cause
        self.trajectory = trajectory
        self.outputs = outputs


def process_frame(state: OdometryState, cloud: PointCloud, stamp: float) -> FrameOutput:
    """Advance the odometry by one scan taken at ``stamp``; always yields a pose.

    Every frame ends the same way: one pose appended, the velocity refit and
    one record built. An empty cloud keeps the prediction and is flagged.
    A stamp that is not finite or not above the last one raises ValueError
    before the state changes.
    """
    k = state.frame_index
    last = state.trajectory[-1].stamp if state.trajectory else -np.inf
    if not last < stamp < np.inf:  # NaN fails too
        raise ValueError(f"frame {k}: stamp {stamp!r} must be finite and above "
                         f"the last stamp {last!r}")
    if state.trajectory:
        guess = predict_pose(state.trajectory[-1].pose, state.velocity, stamp - last)
    else:
        guess = Isometry3.identity()

    # the prediction, flagged, until a bootstrap or a registration replaces it
    pose, p, det, fallback, iterations = guess, 0.0, 0.0, True, 0
    t0 = t1 = t2 = t3 = time.perf_counter()
    if len(cloud) == 0:
        log.warning("frame %d: empty cloud, adopting predicted pose", k)
    else:
        # one point per voxel of a quarter leaf: the rest add little but cost
        cloud = thin_cloud(cloud, state.tree_params)
        # a zero twist (the first two frames) would only copy the cloud
        if state.config.deskew and state.velocity.any():
            if cloud.rel_times is None:
                cloud = synthesize_rel_times(cloud)
            cloud = deskew(cloud, state.velocity, state.config.scan_period)
        t1 = time.perf_counter()
        tree = build_tree(cloud, state.tree_params)
        t2 = t3 = time.perf_counter()
        if not state.local_map.keyframes:
            # bootstrap: this scan anchors the map
            transform_tree(tree, pose)
            p = det = 1.0
            fallback = False
            state.local_map.install(Keyframe(tree=tree, frame_index=k, score=det))
        else:
            try:
                result = icp(state.local_map.trees(), tree, guess, state.reg_params)
                pose, fallback = result.pose, False
            except DegenerateRegistrationError as err:
                result = err.result
                log.warning("frame %d: degenerate registration, using predicted pose", k)
            t3 = time.perf_counter()
            transform_tree(tree, pose)
            p, iterations = result.matched_fraction, result.iterations
            det = float(np.linalg.det(result.information))
            # the logged det(H) ranks the candidate; a fallback is never promoted
            state.local_map.push_candidate(Keyframe(
                tree=tree, frame_index=k, score=-np.inf if fallback else det))
            state.local_map.maybe_update(p, state.config.p_th)

    state.trajectory.append(StampedPose(pose, stamp))
    state.velocity = estimate_velocity(state.trajectory[-state.config.n:])
    t4 = time.perf_counter()
    return FrameOutput(frame=k, pose=pose, matched_fraction=p, det_information=det,
                       fallback=fallback, iterations=iterations,
                       t_deskew_ms=(t1 - t0) * 1e3, t_build_ms=(t2 - t1) * 1e3,
                       t_icp_ms=(t3 - t2) * 1e3, t_update_ms=(t4 - t3) * 1e3)


def run_sequence(source: ScanSource, config: RunConfig, on_frame=None):
    """Run odometry over every scan in the source.

    Returns ([StampedPose], [FrameOutput]). ``on_frame(output)`` fires after
    each frame so callers can stream the log to disk. A reader error raises
    SequenceAborted carrying everything processed so far.
    """
    state = OdometryState.initial(config)
    outputs = []
    for k in range(len(source)):
        try:
            cloud = source.read_scan(k)
        except (OSError, ValueError) as err:
            raise SequenceAborted(err, state.trajectory, outputs) from err
        out = process_frame(state, cloud, stamp=source.stamps[k])
        outputs.append(out)
        if on_frame is not None:
            on_frame(out)
    return state.trajectory, outputs
