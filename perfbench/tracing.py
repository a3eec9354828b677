"""Traced run of the agentpose benchmark: spans, per-layer metrics and the scaling sweep.

Spans are recorded by the benchmark around each public call, with the scene
as the trace id, and kept in memory until the run ends. The acceptance
workload traces a replica of one ``run_benchmark`` scene rebuilt from public
functions; the replica must reproduce the untraced report's reduction ratios
and AP exactly, so the per-layer figures describe the same program. The calls
the package makes internally to ``rotated_iou_bev``, ``transform_box`` and
``information_matrix`` are spanned by rebinding those names in the calling
modules for the traced pass only; untraced passes run the package unchanged.

Each traced pass alternates with an untraced pass over the same inputs, and
``trace_overhead_pct`` compares the two. Both workloads then compare a pool of
workers with one worker on one acceptance-shape batch.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import agentpose.evaluate
import agentpose.posegraph
from agentpose import (
    ScenarioError,
    average_precision,
    build_pose_graph,
    derive_seed,
    generate_scene,
    late_fuse,
    make_messages,
    optimize,
    relative_poses,
    run_benchmark,
    with_uniform_info,
)

import workloads as wl

# (module, attribute, span name) of the internal calls spanned during a traced pass.
INTERCEPTED = (
    (agentpose.evaluate, "rotated_iou_bev", "geometry.rotated_iou_bev"),
    (agentpose.evaluate, "transform_box", "uncertainty.transform_box"),
    (agentpose.posegraph, "transform_box", "uncertainty.transform_box"),
    (agentpose.posegraph, "information_matrix", "uncertainty.information_matrix"),
)

# Scenes of the acceptance-shape batch on which the pool of wl.POOL_THREADS
# workers is compared with one worker, in both traced workloads.
POOL_SCENES = 100

# Agents, objects and the square side (m) of each sweep size; each area packs
# its objects at the 5 m gap.
SWEEP = ((4, 10, 120.0), (8, 60, 160.0), (12, 200, 200.0), (16, 400, 240.0))

# The end-to-end metric each layer metric is predicted to move, and where.
PREDICTIONS = {
    "scenario.generate_scene.ms_per_scene": "scene_ms_p90 on acceptance (about 13% with messages); setup_s on large_round",
    "scenario.make_messages.ms_per_scene": "scene_ms_p90 on acceptance (about 13% with generation); setup_s on large_round",
    "scenario.boxes_per_scene": "work count behind scene_ms_p90 on acceptance and setup_s on large_round",
    "posegraph.build_pose_graph.ms_per_scene": "scene_ms_p90 on acceptance and on large_round",
    "posegraph.objects_per_graph": "graph size behind both acceptance and large_round",
    "posegraph.edges_per_graph": "graph size behind both acceptance and large_round",
    "posegraph.edges_per_box": "share of sent boxes kept as edges, both workloads",
    "posegraph.optimize_weighted.ms_per_scene": "scene_ms_p90 and peak_rss_mb on large_round; about 30% of acceptance",
    "posegraph.optimize_identity.ms_per_scene": "scene_ms_p90 on acceptance (solve share about 30%)",
    "posegraph.relative_poses.ms_per_scene": "scene_ms_p90 on large_round, negligible share",
    "posegraph.lm_iterations_mean": "scene_ms_p90 on large_round",
    "posegraph.lm_iterations_max": "scene_ms_p90 on large_round (slowest rounds)",
    "posegraph.jacobian_bytes_computed": "peak_rss_mb and scene_ms_p90 on large_round",
    "evaluate.late_fuse.ms_per_scene": "scene_ms_p90 on acceptance; no change on large_round",
    "evaluate.fuse.candidates_per_scene": "scene_ms_p90 on acceptance; no change on large_round",
    "evaluate.fuse.kept_ratio": "scene_ms_p90 on acceptance; no change on large_round",
    "evaluate.average_precision.ms_per_scene": "scene_ms_p90 on acceptance; no change on large_round",
    "evaluate.pair_errors.ms_per_scene": "scene_ms_p90 on acceptance; no change on large_round",
    "evaluate.pool.speedup_vs_serial": "none gated: run_benchmark with threads > 1, compared in the traced run only",
    "evaluate.pool.serial_scenes_per_s": "base of the pool speedup",
    "geometry.rotated_iou_bev.calls_per_scene": "scene_ms_p90 on acceptance",
    "geometry.rotated_iou_bev.us_per_call": "scene_ms_p90 on acceptance",
    "geometry.rotated_iou_bev.ms_per_scene": "scene_ms_p90 on acceptance",
    "uncertainty.transform_box.calls_per_scene": "scene_ms_p90 on acceptance; build share of large_round",
    "uncertainty.transform_box.ms_per_scene": "scene_ms_p90 on acceptance; build share of large_round",
    "uncertainty.information_matrix.calls_per_scene": "build share of acceptance and large_round",
    "trace.scene_ms": "traced time of one scene: the self times above plus the replica's own glue",
    "trace_overhead_pct": "none: cost of tracing against the untraced pass",
}

STAGES = (
    "posegraph.build_pose_graph",
    "posegraph.optimize_weighted",
    "posegraph.optimize_identity",
    "posegraph.relative_poses",
    "evaluate.late_fuse",
    "evaluate.average_precision",
    "evaluate.pair_errors",
    "geometry.rotated_iou_bev",
    "uncertainty.transform_box",
)


class Tracer:
    """In-memory span store: name, trace id, parent span, start and end of every call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.trace = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.trace_id = 0

    def span(self, name: str, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.trace.append(self.trace_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name; self time excludes child spans."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        name = np.asarray(self.name)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}


@contextmanager
def intercepted(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in INTERCEPTED]
    try:
        for mod, attr, name in INTERCEPTED:
            setattr(mod, attr, _spanned(tracer, name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)

    return wrapper


@dataclass
class Counts:
    """Work counted at the layer boundaries of the traced pass."""

    scenes: int = 0
    boxes: int = 0
    objects: int = 0
    edges: int = 0
    graphs: int = 0
    iterations: list[int] = field(default_factory=list)
    jacobian_bytes: int = 0
    candidates: int = 0
    kept: int = 0

    def graph(self, graph, *results) -> None:
        self.graphs += 1
        self.objects += len(graph.object_poses)
        self.edges += len(graph.edges)
        nodes = len(graph.agent_ids) + len(graph.object_poses)
        # The dense float64 Jacobian of one LM iteration: 3m rows, 3(n-1) columns.
        self.jacobian_bytes += 3 * len(graph.edges) * 3 * (nodes - 1) * 8
        self.iterations.extend(r.iterations for r in results)


def replica_scene(tr: Tracer, config, idx: int, counts: Counts) -> dict:
    """One scene of run_benchmark at noise level 0, rebuilt from public functions."""
    call = tr.span
    try:
        scene = call(
            "scenario.generate_scene", generate_scene, config.num_agents, config.num_objects, config.area,
            derive_seed(config.seed, "scene", idx), config.extent, config.min_object_gap,
        )
    except ScenarioError:
        return {"ok": False}
    messages = call(
        "scenario.make_messages", make_messages, scene, config.noise_at(0), config.detector,
        derive_seed(config.seed, "msgs", 0, idx),
    )
    ego = scene.agents[0].agent_id
    graph = call("posegraph.build_pose_graph", build_pose_graph, messages, ego, config.cluster_gap)
    result_w = call("posegraph.optimize_weighted", optimize, graph, config.solver)
    result_i = call(
        "posegraph.optimize_identity", lambda: optimize(with_uniform_info(graph), config.solver)
    )
    truth = {a.agent_id: a.pose for a in scene.agents}
    measured = {m.agent_id: m.measured_pose for m in messages}
    errors = {
        series: call("evaluate.pair_errors", wl.pair_errors, est, truth)
        for series, est in (
            ("before", measured),
            ("after_graph", result_i.agent_poses),
            ("after_weighted", result_w.agent_poses),
        )
    }
    gt = wl.ground_truth_in_ego(scene, ego)
    fused = {
        "corrected": call(
            "evaluate.late_fuse", late_fuse, messages,
            call("posegraph.relative_poses", relative_poses, result_w.agent_poses, ego), config.nms_iou,
        ),
        "uncorrected": call(
            "evaluate.late_fuse", late_fuse, messages,
            call("posegraph.relative_poses", relative_poses, measured, ego), config.nms_iou,
        ),
    }
    ap = {
        f"{thr:g}": {
            kind: call(
                "evaluate.average_precision", average_precision,
                [(b.footprint(), b.confidence) for b in boxes], gt, thr,
            )
            for kind, boxes in fused.items()
        }
        for thr in config.ap_thresholds
    }
    n_boxes = sum(len(m.boxes) for m in messages)
    counts.scenes += 1
    counts.boxes += n_boxes
    counts.graph(graph, result_w, result_i)
    counts.candidates += n_boxes * len(fused)
    counts.kept += sum(len(b) for b in fused.values())
    return {"ok": True, "errors": errors, "ap": ap}


def replica_summary(records: list[dict], config) -> dict:
    """Reduction ratios and AP of the replica records, aggregated as run_benchmark does."""
    trans = {"before": [], "after_weighted": []}
    rot = {"before": [], "after_weighted": []}
    ap = {f"{thr:g}": {"corrected": 0.0, "uncorrected": 0.0} for thr in config.ap_thresholds}
    n_ok = 0
    for rec in records:
        if not rec["ok"]:
            continue
        n_ok += 1
        for series in trans:
            for t, r in rec["errors"][series]:
                trans[series].append(t)
                rot[series].append(r)
        for thr, pair in rec["ap"].items():
            for kind, value in pair.items():
                ap[thr][kind] += value

    def median(values):
        return float(np.quantile(np.array(values, dtype=float), [0.25, 0.5, 0.75])[1])

    return {
        "ratio": {
            "translation": median(trans["after_weighted"]) / median(trans["before"]),
            "rotation": median(rot["after_weighted"]) / median(rot["before"]),
        },
        "ap": {thr: {k: v / n_ok for k, v in sums.items()} for thr, sums in ap.items()},
    }


def pool_comparison(seed: int, outcome: wl.Outcome) -> dict[str, float]:
    """Pool speedup over one worker on one POOL_SCENES batch; the two reports must be equal."""
    config = wl.acceptance_config(seed, "pool", scenes=POOL_SCENES)
    t0 = time.perf_counter()
    serial = run_benchmark(config)
    t1 = time.perf_counter()
    pooled = run_benchmark(config, threads=wl.POOL_THREADS)
    t2 = time.perf_counter()
    problems = wl.acceptance_problems(serial)
    if wl.report_bytes(pooled) != wl.report_bytes(serial):
        problems.append("pool and serial reports of the pool batch differ")
    outcome.record(config.scenes, problems, skipped=len(serial.levels[0].skipped))
    return {
        "evaluate.pool.speedup_vs_serial": (t1 - t0) / (t2 - t1),
        "evaluate.pool.serial_scenes_per_s": config.scenes / (t1 - t0),
    }


def traced_acceptance(seed: int, seconds: float):
    tr = Tracer()
    counts = Counts()
    outcome = wl.Outcome()
    untraced_s = traced_s = 0.0
    batch = 0
    start = time.perf_counter()
    while batch == 0 or time.perf_counter() - start < seconds:
        config = wl.acceptance_config(seed, batch)
        t0 = time.perf_counter()
        report = run_benchmark(config)
        untraced_s += time.perf_counter() - t0
        problems = wl.acceptance_problems(report)
        t0 = time.perf_counter()
        with intercepted(tr):
            records = []
            for idx in range(config.scenes):
                tr.trace_id += 1
                records.append(tr.span("scene", replica_scene, tr, config, idx, counts))
        traced_s += time.perf_counter() - t0
        level = report.levels[0]
        replica = replica_summary(records, config)
        if replica != {"ratio": level.median_reduction_ratio, "ap": level.ap}:
            problems.append(f"replica of batch {batch} differs from run_benchmark: {replica}")
        outcome.record(config.scenes, problems, skipped=len(level.skipped))
        batch += 1
    pool = pool_comparison(seed, outcome)
    return layer_metrics(tr, counts, traced_s, untraced_s, pool), outcome


def traced_large(seed: int, seconds: float):
    tr = Tracer()
    counts = Counts()
    outcome = wl.Outcome()
    rounds = wl.large_setup(seed, tr.span)
    boxes = sum(len(m.boxes) for rnd in rounds for m in rnd.messages)
    untraced_s = traced_s = 0.0
    visits = 0
    start = time.perf_counter()
    while visits < len(rounds) or time.perf_counter() - start < seconds:
        rnd = rounds[visits % len(rounds)]
        t0 = time.perf_counter()
        _, plain, _ = wl.solve_round(rnd)
        untraced_s += time.perf_counter() - t0
        tr.trace_id += 1
        t0 = time.perf_counter()
        with intercepted(tr):
            graph, result, _ = tr.span("scene", wl.solve_round, rnd, tr.span)
        traced_s += time.perf_counter() - t0
        before, after = wl.round_errors(rnd, result)
        problems = wl.round_problems(rnd, graph, result, before, after)
        if wl.poses_key(result) != wl.poses_key(plain):
            problems.append("traced round differs from the untraced round")
        outcome.record(1, problems)
        counts.scenes += 1
        counts.boxes += sum(len(m.boxes) for m in rnd.messages)
        counts.graph(graph, result)
        visits += 1
    pool = pool_comparison(seed, outcome)
    metrics = layer_metrics(tr, counts, traced_s, untraced_s, pool)
    metrics["scenario.boxes_per_scene"] = boxes / len(rounds)
    return metrics, outcome


def layer_metrics(tr: Tracer, counts: Counts, traced_s: float, untraced_s: float, pool: dict) -> dict[str, float]:
    totals = tr.totals()
    n = counts.scenes

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_ms(name):
        return totals.get(name, (0, 0.0))[1] * 1e3

    out = {
        # Scene generation is per generated scene: on large_round it runs in set-up.
        f"scenario.{s}.ms_per_scene": self_ms(f"scenario.{s}") / max(calls(f"scenario.{s}"), 1)
        for s in ("generate_scene", "make_messages")
    }
    out.update({f"{s}.ms_per_scene": self_ms(s) / n for s in STAGES})
    iou_calls = calls("geometry.rotated_iou_bev")
    out.update(
        {
            "scenario.boxes_per_scene": counts.boxes / n,
            "posegraph.objects_per_graph": counts.objects / counts.graphs,
            "posegraph.edges_per_graph": counts.edges / counts.graphs,
            "posegraph.edges_per_box": counts.edges / counts.boxes,
            "posegraph.lm_iterations_mean": float(np.mean(counts.iterations)),
            "posegraph.lm_iterations_max": float(max(counts.iterations)),
            "posegraph.jacobian_bytes_computed": counts.jacobian_bytes / counts.graphs,
            "evaluate.fuse.candidates_per_scene": counts.candidates / n,
            "evaluate.fuse.kept_ratio": counts.kept / counts.candidates if counts.candidates else 0.0,
            "geometry.rotated_iou_bev.calls_per_scene": iou_calls / n,
            "geometry.rotated_iou_bev.us_per_call": self_ms("geometry.rotated_iou_bev") * 1e3 / iou_calls if iou_calls else 0.0,
            "uncertainty.transform_box.calls_per_scene": calls("uncertainty.transform_box") / n,
            "uncertainty.information_matrix.calls_per_scene": calls("uncertainty.information_matrix") / n,
            "trace.scene_ms": traced_s * 1e3 / n,
            "trace_overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
            **pool,
        }
    )
    return out


def sweep(seed: int) -> tuple[dict[str, float], list[dict]]:
    """One solve round per size: graph build ms, optimize ms and computed Jacobian bytes."""
    metrics: dict[str, float] = {}
    info = []
    for agents, objects, side in SWEEP:
        scene = generate_scene(
            agents, objects, area=(side, side), seed=wl.bench_seed("sweep", seed, agents, objects),
            min_object_gap=wl.MIN_OBJECT_GAP,
        )
        messages = make_messages(scene, wl.NOISE, wl.DETECTOR, wl.bench_seed("sweep-msgs", seed, agents, objects))
        ego = scene.agents[0].agent_id
        t0 = time.perf_counter()
        graph = build_pose_graph(messages, ego)
        t1 = time.perf_counter()
        result = optimize(graph)
        t2 = time.perf_counter()
        counts = Counts()
        counts.graph(graph)
        key = f"sweep.a{agents:02d}_o{objects:03d}"
        metrics[f"{key}.build_ms"] = (t1 - t0) * 1e3
        metrics[f"{key}.optimize_ms"] = (t2 - t1) * 1e3
        metrics[f"{key}.jacobian_bytes_computed"] = float(counts.jacobian_bytes)
        info.append(
            {
                "agents": agents,
                "objects": objects,
                "area_m": [side, side],
                "graph_objects": len(graph.object_poses),
                "edges": len(graph.edges),
                "lm_iterations": result.iterations,
            }
        )
    return metrics, info
