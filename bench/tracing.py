"""Traced replays: spans around the public entry points of each layer.

``instrument`` swaps, for the duration of a ``with`` block, every function a
layer exposes to the frame loop for a wrapper that opens a span: its name,
start, end, parent span and frame id, plus counts taken at the same boundary.
The wrappers live here, in the benchmark, and call the original function
unchanged, so a traced replay must reproduce the untraced trajectory byte for
byte. Spans stay in memory and are written out when the run ends.

``geometry`` gets no span of its own: its functions are called too finely to
wrap without distorting the numbers, and their cost lands in the
registration self time and in deskew. ``evaluation`` runs after the timed
frames and ``cli`` is not driven.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import wraps

import madlo.pipeline as pipeline
from madlo.dataset_io import ScanSource
from madlo.localmap import LocalMap
from madlo.madtree import KdTree
from madlo.registration import DegenerateRegistrationError

from stats import median, percentile, self_time

# layers without a timer of their own, and why
UNTIMED_LAYERS = {
    "geometry": "called too finely to wrap; lands in registration.self_ms and motion.deskew_ms",
    "evaluation": "runs after the timed frames",
    "cli": "not driven; the benchmark calls run_sequence directly",
}


class Tracer:
    """Spans of one replay. A span opened on a thread with no open span of
    its own (an ICP worker) takes as parent the innermost open span of the
    thread that created the tracer, which is blocked in the call that handed
    out the work."""

    def __init__(self):
        self.spans: list[dict] = []
        self.frame = -1
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner = self._stacks.get(self._owner)
            parent = stack[-1] if stack else (owner[-1] if owner and tid != self._owner else None)
            rec = {"id": len(self.spans), "name": name, "parent": parent,
                   "frame": self.frame, "thread": tid, "attrs": {}}
            self.spans.append(rec)
            stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()


def _traced(tracer: Tracer, name: str, fn, describe=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if describe is not None:
                describe(attrs, args, result)
            return result
    return wrapper


def _describe_tree(attrs, args, tree):
    attrs.update(nodes=int(tree.num_nodes), leaves=int(tree.num_leaves),
                 depth=int(tree.depth), valid_leaves=int(tree.leaf_valid().sum()))


def _describe_icp(attrs, args, result, degenerate=False):
    cap = args[3].max_iterations if len(args) > 3 else None
    attrs.update(trees=len(args[0]), iterations=result.iterations,
                 matched_fraction=result.matched_fraction, degenerate=degenerate,
                 cap_hit=cap is not None and result.iterations >= cap)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point the frame loop calls; restore on exit."""
    originals = []

    def patch(owner, attr, replacement):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    read_scan = ScanSource.read_scan

    def traced_read_scan(self, index):
        tracer.frame = index
        with tracer.span("dataset_io.read_scan") as attrs:
            cloud = read_scan(self, index)
            attrs["points"] = len(cloud)
            return cloud

    icp = pipeline.icp

    def traced_icp(*args, **kwargs):
        with tracer.span("registration.icp") as attrs:
            try:
                result = icp(*args, **kwargs)
            except DegenerateRegistrationError as err:
                _describe_icp(attrs, args, err.result, degenerate=True)
                raise
            _describe_icp(attrs, args, result)
            return result

    maybe_update = LocalMap.maybe_update

    def traced_maybe_update(self, *args, **kwargs):
        before = len(self.keyframes)
        with tracer.span("localmap.maybe_update") as attrs:
            promoted = maybe_update(self, *args, **kwargs)
            attrs.update(promoted=bool(promoted), keyframes=len(self.keyframes),
                         evicted=before + int(promoted) - len(self.keyframes))
            return promoted

    process_frame = pipeline.process_frame

    def traced_process_frame(state, *args, **kwargs):
        tracer.frame = state.frame_index
        with tracer.span("pipeline.process_frame"):
            return process_frame(state, *args, **kwargs)

    try:
        patch(ScanSource, "read_scan", traced_read_scan)
        patch(pipeline, "synthesize_rel_times",
              _traced(tracer, "dataset_io.synthesize_rel_times", pipeline.synthesize_rel_times))
        patch(pipeline, "deskew", _traced(tracer, "motion.deskew", pipeline.deskew))
        patch(pipeline, "estimate_velocity",
              _traced(tracer, "motion.estimate_velocity", pipeline.estimate_velocity))
        patch(pipeline, "build_tree",
              _traced(tracer, "madtree.build_tree", pipeline.build_tree, _describe_tree))
        patch(pipeline, "transform_tree",
              _traced(tracer, "madtree.transform_tree", pipeline.transform_tree))
        patch(KdTree, "descend", _traced(
            tracer, "madtree.descend", KdTree.descend,
            lambda attrs, args, ids: attrs.update(queries=int(ids.shape[0]))))
        patch(pipeline, "icp", traced_icp)
        patch(LocalMap, "push_candidate",
              _traced(tracer, "localmap.push_candidate", LocalMap.push_candidate))
        patch(LocalMap, "maybe_update", traced_maybe_update)
        patch(LocalMap, "install", _traced(tracer, "localmap.install", LocalMap.install))
        patch(pipeline, "process_frame", traced_process_frame)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ------------------------------------------------------------- per-layer


def layer_samples(tracer: Tracer, points_written) -> dict:
    """Per-frame samples and counts of one traced replay; frame 0, the
    bootstrap, is left out of everything but the ingest counts."""
    spans = tracer.spans
    children: dict[int, list[dict]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)

    def ms(sp):
        return (sp["end"] - sp["start"]) * 1e3

    def timed(name):
        return [sp for sp in spans if sp["name"] == name and sp["frame"] >= 1]

    def per_frame(names, value):
        sums: dict[int, float] = {}
        for sp in spans:
            if sp["name"] in names and sp["frame"] >= 1:
                sums[sp["frame"]] = sums.get(sp["frame"], 0.0) + value(sp)
        return list(sums.values())

    reads = [sp for sp in spans if sp["name"] == "dataset_io.read_scan"]
    icps = timed("registration.icp")
    descends = timed("madtree.descend")
    updates = timed("localmap.maybe_update")
    trees = timed("madtree.build_tree")

    def self_ms(sp):
        kids = [(c["start"], c["end"]) for c in children.get(sp["id"], [])]
        return self_time(sp["start"], sp["end"], kids) * 1e3

    return {
        "replays": 1,
        "read_ms": [ms(sp) for sp in reads if sp["frame"] >= 1],
        "points_kept": sum(sp["attrs"]["points"] for sp in reads),
        "points_written": sum(points_written[sp["frame"]] for sp in reads),
        "synth_ms": [ms(sp) for sp in timed("dataset_io.synthesize_rel_times")],
        "deskew_ms": [ms(sp) for sp in timed("motion.deskew")],
        "velocity_ms": [ms(sp) for sp in timed("motion.estimate_velocity")],
        "build_ms": [ms(sp) for sp in trees],
        "nodes": [sp["attrs"]["nodes"] for sp in trees],
        "leaves": [sp["attrs"]["leaves"] for sp in trees],
        "depth": [sp["attrs"]["depth"] for sp in trees],
        "valid_leaves": [sp["attrs"]["valid_leaves"] for sp in trees],
        "transform_ms": [ms(sp) for sp in timed("madtree.transform_tree")],
        "descend_ms_per_frame": per_frame({"madtree.descend"}, ms),
        "descend_queries_per_frame": per_frame({"madtree.descend"},
                                               lambda sp: sp["attrs"]["queries"]),
        "descend_s": sum(sp["end"] - sp["start"] for sp in descends),
        "descend_queries": sum(sp["attrs"]["queries"] for sp in descends),
        "icp_ms": [ms(sp) for sp in icps],
        "icp_self_ms": [self_ms(sp) for sp in icps],
        "iterations": [sp["attrs"]["iterations"] for sp in icps],
        "cap_hit": [sp["attrs"]["cap_hit"] for sp in icps],
        "trees": [sp["attrs"]["trees"] for sp in icps],
        "matched_fraction": [sp["attrs"]["matched_fraction"] for sp in icps],
        "degenerate": [sp["attrs"]["degenerate"] for sp in icps],
        "update_ms": per_frame({"localmap.push_candidate", "localmap.maybe_update"}, ms),
        "promotions": sum(sp["attrs"]["promoted"] for sp in updates),
        "evictions": sum(sp["attrs"]["evicted"] for sp in updates),
        "keyframes": [sp["attrs"]["keyframes"] for sp in updates],
        "process_self_ms": [self_ms(sp) for sp in timed("pipeline.process_frame")],
    }


def merge_samples(parts: list) -> dict:
    """Concatenate lists and add counts over several replays."""
    out = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, [] if isinstance(value, list) else 0) + value
    return out


def layer_metrics(s: dict, tail_pct: int, frame_ms: list, untraced_frame_ms_p50: float) -> dict:
    """The per-layer metrics, by name, with their units. ``frame_ms`` is the
    traced replays' frame time measured exactly as the untraced one."""

    def p50(xs):
        return median(xs) if xs else 0.0

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    frame_p50 = median(frame_ms)
    values = {
        "dataset_io.read_ms_p50": (p50(s["read_ms"]), "ms"),
        "dataset_io.points_kept_frac": (s["points_kept"] / s["points_written"], "frac"),
        "dataset_io.synth_times_ms_p50": (p50(s["synth_ms"]), "ms"),
        "motion.deskew_ms_p50": (p50(s["deskew_ms"]), "ms"),
        "motion.velocity_ms_p50": (p50(s["velocity_ms"]), "ms"),
        "madtree.build_ms_p50": (p50(s["build_ms"]), "ms"),
        "madtree.build_ms_tail": (percentile(s["build_ms"], tail_pct), "ms"),
        "madtree.nodes_p50": (p50(s["nodes"]), "count"),
        "madtree.leaves_p50": (p50(s["leaves"]), "count"),
        "madtree.depth_max": (max(s["depth"]), "count"),
        "madtree.valid_leaf_frac": (sum(s["valid_leaves"]) / sum(s["leaves"]), "frac"),
        "madtree.transform_ms_p50": (p50(s["transform_ms"]), "ms"),
        "madtree.descend_ms_per_frame_p50": (p50(s["descend_ms_per_frame"]), "ms"),
        "madtree.descend_queries_per_frame_p50": (p50(s["descend_queries_per_frame"]), "count"),
        "madtree.descend_ns_per_query": (
            s["descend_s"] * 1e9 / s["descend_queries"] if s["descend_queries"] else 0.0, "ns"),
        "registration.icp_ms_p50": (p50(s["icp_ms"]), "ms"),
        "registration.icp_ms_tail": (percentile(s["icp_ms"], tail_pct), "ms"),
        "registration.self_ms_p50": (p50(s["icp_self_ms"]), "ms"),
        "registration.iterations_mean": (mean(s["iterations"]), "count"),
        "registration.cap_hit_frac": (mean(s["cap_hit"]), "frac"),
        "registration.trees_per_call_mean": (mean(s["trees"]), "count"),
        "registration.matched_fraction_p50": (p50(s["matched_fraction"]), "frac"),
        "registration.degenerate_frac": (mean(s["degenerate"]), "frac"),
        "localmap.update_ms_p50": (p50(s["update_ms"]), "ms"),
        "localmap.promotions": (s["promotions"] / s["replays"], "count"),
        "localmap.evictions": (s["evictions"] / s["replays"], "count"),
        "localmap.keyframes_mean": (mean(s["keyframes"]), "count"),
        "pipeline.frame_ms_p50": (frame_p50, "ms"),
        "pipeline.self_ms_p50": (p50(s["process_self_ms"]), "ms"),
        "trace.overhead_ms_p50": (frame_p50 - untraced_frame_ms_p50, "ms"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def span_records(tracer: Tracer, replay: int):
    """Spans as plain records for the trace file."""
    threads: dict[int, int] = {}
    for sp in tracer.spans:
        yield {"replay": replay, "id": sp["id"], "name": sp["name"], "parent": sp["parent"],
               "frame": sp["frame"], "thread": threads.setdefault(sp["thread"], len(threads)),
               "start": sp["start"], "end": sp["end"],
               "attrs": sp["attrs"]}
