"""Late fusion of corrected detections and the benchmark metric pipeline.

run_benchmark drives the full loop per noise level: generate scenes, corrupt
poses, detect, build and optimize the pose graph (once with the reported
information weights and once with identity weights), pool relative-pose
errors over all ordered agent pairs, and score late-fused detections against
ground truth at the configured IoU thresholds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    OrientedBox2, Pose2, compose, compose_columns, footprint_iou, footprints, inverse, inverse_columns, make_rule,
    non_negative, numbers, overlap_pairs, positive_finite, whole_number,
)
from .posegraph import (
    DEFAULT_CLUSTER_GAP,
    AgentMessage,
    PoseGraph,
    SolveResult,
    SolverParams,
    box_columns,
    build_pose_graph,
    optimize,
    relative_poses,
    with_uniform_info,
)
from .scenario import (
    DEFAULT_EXTENT,
    DEFAULT_MIN_OBJECT_GAP,
    DetectorSpec,
    NoiseSpec,
    ScenarioError,
    Scene,
    _object_columns,
    derive_seed,
    generate_scene,
    make_messages,
    scene_arguments,
)
# rotated_iou_bev and transform_box stay bound though unused: both are names in
# perfbench/tracing.py's INTERCEPTED table, which rebinds them in this module.
from .geometry import rotated_iou_bev  # noqa: F401
from .uncertainty import BoxDetection, transform_box  # noqa: F401

DEFAULT_NMS_IOU = 0.15

SERIES_BEFORE = "before"
SERIES_AFTER_GRAPH = "after_graph"
SERIES_AFTER_WEIGHTED = "after_weighted"
SERIES_ORDER = (SERIES_BEFORE, SERIES_AFTER_GRAPH, SERIES_AFTER_WEIGHTED)
# Labels used in exported histogram CSVs.
SERIES_LABELS = {
    SERIES_BEFORE: "before",
    SERIES_AFTER_GRAPH: "after-graph",
    SERIES_AFTER_WEIGHTED: "after-graph+uncertainty",
}


def relative_pose_error(estimated: Pose2, truth: Pose2) -> tuple[float, float]:
    """Translation (m) and rotation (deg) error of a relative pose estimate."""
    if estimated.as_tuple() == truth.as_tuple():
        return 0.0, 0.0
    d = compose(inverse(truth), estimated)
    return math.hypot(d.x, d.y), abs(math.degrees(d.theta))


# The rules of late fusion's NMS IoU bound and of an AP IoU threshold.
nms_iou_bound = make_rule(lambda v: 0.0 < v <= 1.0, "in (0, 1]")
ap_threshold = make_rule(lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _fuse_rows(messages, rel_poses, nms_iou: float) -> tuple[np.ndarray, list[str]]:
    """The rows late_fuse keeps, in the ego frame and in rank order, and their senders' agent ids."""
    nms_iou = nms_iou_bound(nms_iou, "nms_iou")
    ordered, block, owner = box_columns(messages)
    missing = [m.agent_id for m in ordered if m.agent_id not in rel_poses]
    if missing:
        raise ValueError(f"relative poses missing for agents {missing}")
    # A stable sort keeps equal confidences in the stacked order: by agent_id,
    # then box index.
    ranked = np.argsort(-block[:, 10], kind="stable")
    # Candidates in rank order, lifted into the ego frame.
    cand = block[ranked]
    cand[:, 0], cand[:, 1], cand[:, 6] = compose_columns(
        [rel_poses[m.agent_id].as_tuple() for m in ordered], owner[ranked], cand[:, 0], cand[:, 1], cand[:, 6]
    )
    first, second = overlap_pairs(cand[:, 0], cand[:, 1], 0.5 * np.hypot(cand[:, 3], cand[:, 4]))
    # Candidates are indexed by rank, so each pair's first end outranks its second.
    above: list[list[int]] = [[] for _ in range(len(cand))]
    for i, j in zip(first.tolist(), second.tolist()):
        above[j].append(i)
    fp = footprints(*cand[:, [0, 1, 3, 4, 6]].T)
    keep = [False] * len(cand)
    for j, partners in enumerate(above):
        keep[j] = all(footprint_iou(fp[j], fp[i]) < nms_iou for i in partners if keep[i])
    kept = np.flatnonzero(keep)
    return cand[kept], [ordered[k].agent_id for k in owner[ranked[kept]].tolist()]


def late_fuse(
    messages: Sequence[AgentMessage],
    rel_poses: Mapping[str, Pose2],
    nms_iou: float = DEFAULT_NMS_IOU,
) -> list[BoxDetection]:
    """Warp every agent's boxes into the ego frame and apply confidence NMS.

    rel_poses maps each sender's frame into the ego frame. Candidates are
    ranked by descending confidence with (agent_id, box index) as the tie
    break, so the output does not depend on message order; a candidate is
    dropped when it overlaps an already kept box at IoU >= nms_iou. Boxes are
    lifted as columns, and the IoU is clipped only for the pairs whose
    circumcircles may meet: every other pair has IoU 0.
    """
    rows, agent_ids = _fuse_rows(messages, rel_poses, nms_iou)
    return [BoxDetection(*row, agent_id=a) for row, a in zip(rows.tolist(), agent_ids)]


def _ranked_ious(detections: np.ndarray, confidences, ground_truth: np.ndarray) -> list[list[tuple[int, float]]]:
    """The detection x ground-truth IoUs of (n, 5) box rows, one row per detection in ranked order.

    Detections rank by descending confidence, ties to the lower index. A row
    lists (ground-truth index, IoU) in ascending index for the pairs whose
    circumcircles may meet; every pair left out has IoU 0.
    """
    order = np.argsort(-np.asarray(confidences, dtype=float), kind="stable")
    boxes = np.concatenate((detections[order], ground_truth))
    n = len(order)
    first, second = overlap_pairs(boxes[:, 0], boxes[:, 1], 0.5 * np.hypot(boxes[:, 2], boxes[:, 3]))
    fp = footprints(*boxes.T)
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for r, g in sorted(zip(first.tolist(), second.tolist())):
        if r < n <= g:
            rows[r].append((g - n, footprint_iou(fp[r], fp[g])))
    return rows


def _ap_from_ious(rows: list[list[tuple[int, float]]], npos: int, iou_threshold: float) -> float:
    """average_precision from the rows of _ranked_ious against npos ground truths."""
    if npos == 0:
        return 1.0 if len(rows) == 0 else 0.0
    if len(rows) == 0:
        return 0.0
    matched = [False] * npos
    tp_flags: list[bool] = []
    for row in rows:
        best_iou = 0.0
        best_j = -1
        for j, iou in row:
            if not matched[j] and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            matched[best_j] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    # Precision envelope (running max from the right), then the rectangle sum
    # over the recall steps, accumulated left to right.
    tp = np.cumsum(np.array(tp_flags))
    recalls = tp / npos
    envelope = np.maximum.accumulate((tp / np.arange(1, tp.size + 1))[::-1])[::-1]
    steps = recalls.copy()
    steps[1:] -= recalls[:-1]
    return float(np.add.accumulate(steps * envelope)[-1])


def average_precision(
    detections: Sequence[tuple[OrientedBox2, float]],
    ground_truth: Sequence[OrientedBox2],
    iou_threshold: float,
) -> float:
    """Area under the all-point interpolated precision-recall curve.

    Detections greedily match the highest-IoU unmatched ground truth in
    descending confidence order (ties to the lower ground-truth index); a
    match needs IoU > 0 and IoU >= iou_threshold. With no ground truth the
    score is 1.0 when there are also no detections (nothing to do) and 0.0
    otherwise.
    """
    iou_threshold = ap_threshold(iou_threshold, "iou_threshold")
    boxes = [b for b, _ in detections] + list(ground_truth)
    boxes = np.array([(b.cx, b.cy, b.length, b.width, b.heading) for b in boxes], dtype=float).reshape(-1, 5)
    rows = _ranked_ious(boxes[: len(detections)], [c for _, c in detections], boxes[len(detections) :])
    return _ap_from_ious(rows, len(ground_truth), iou_threshold)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything one benchmark run depends on; fully determined by the seed."""

    seed: int
    scenes: int = 100
    num_agents: int = 4
    num_objects: int = 10
    area: tuple[float, float] = (120.0, 120.0)
    extent: tuple[float, float] = DEFAULT_EXTENT
    min_object_gap: float = DEFAULT_MIN_OBJECT_GAP
    noise_kind: str = "gaussian"
    noise_grid: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.2, 0.2), (0.4, 0.4), (0.6, 0.6))
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    solver: SolverParams = field(default_factory=SolverParams)
    cluster_gap: float = DEFAULT_CLUSTER_GAP
    nms_iou: float = DEFAULT_NMS_IOU
    ap_thresholds: tuple[float, ...] = (0.5, 0.7)

    def __post_init__(self) -> None:
        """Checks seed, scenes and noise_grid itself, and every other value with the rule of the call it configures."""
        scene = scene_arguments(self.num_agents, self.num_objects, self.area, self.extent, self.min_object_gap)
        checked = dict(
            zip(("num_agents", "num_objects", "area", "extent", "min_object_gap"), scene),
            seed=whole_number(self.seed, "seed", 0),
            scenes=whole_number(self.scenes, "scenes", 1),
            noise_grid=numbers(self.noise_grid, "noise_grid", lambda level, at: numbers(level, at, non_negative, 2)),
            cluster_gap=positive_finite(self.cluster_gap, "cluster_gap"),
            nms_iou=nms_iou_bound(self.nms_iou, "nms_iou"),
            ap_thresholds=numbers(self.ap_thresholds, "ap_thresholds", ap_threshold),
        )
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        keys = [f"{thr:g}" for thr in self.ap_thresholds]  # the report's AP keys
        for k, key in enumerate(keys):
            if (j := keys.index(key)) < k:
                raise ValueError(f"ap_thresholds[{j}] and ap_thresholds[{k}] share the report key {key!r}, "
                                 f"got {self.ap_thresholds[j]!r} and {self.ap_thresholds[k]!r}")
        if not self.noise_grid:
            raise ValueError("noise_grid must not be empty")
        NoiseSpec(self.noise_kind)  # checks the kind; the scales were read by NoiseSpec's rule above

    def scene(self, seed: int) -> Scene:
        """generate_scene with this config's scene arguments."""
        return generate_scene(self.num_agents, self.num_objects, self.area, seed, self.extent, self.min_object_gap)

    def noise_at(self, level: int) -> NoiseSpec:
        t, r = self.noise_grid[level]
        return NoiseSpec(kind=self.noise_kind, trans_scale=t, rot_scale=r)


@dataclass(frozen=True)
class EvalReport:
    """Pooled metrics for one noise level of a benchmark run."""

    noise: NoiseSpec
    n_scenes: int
    skipped: tuple[tuple[int, str], ...]
    trans_errors: dict[str, tuple[float, ...]]
    rot_errors: dict[str, tuple[float, ...]]
    quantiles: dict[str, dict[str, dict[str, float]]]
    median_reduction_ratio: dict[str, float | None]
    degenerate_before: bool
    ap: dict[str, dict[str, float]]
    solver_contract: dict[str, int]

    def __post_init__(self) -> None:
        for series in self.quantiles.values():
            for q in series.values():
                if not q["p25"] <= q["median"] <= q["p75"]:
                    raise ValueError("quantiles must be ordered")
        for ratio in self.median_reduction_ratio.values():
            if ratio is not None and ratio < 0.0:
                raise ValueError("reduction ratios must be >= 0")
        for per_thr in self.ap.values():
            for v in per_thr.values():
                if not 0.0 <= v <= 1.0:
                    raise ValueError("AP must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "noise": asdict(self.noise),
            "n_scenes": self.n_scenes,
            "skipped": [list(s) for s in self.skipped],
            "errors": {
                "translation": {k: list(v) for k, v in self.trans_errors.items()},
                "rotation": {k: list(v) for k, v in self.rot_errors.items()},
            },
            "quantiles": self.quantiles,
            "median_reduction_ratio": self.median_reduction_ratio,
            "degenerate_before": self.degenerate_before,
            "ap": self.ap,
            "solver_contract": self.solver_contract,
        }


@dataclass(frozen=True)
class BenchmarkResult:
    config: dict
    levels: tuple[EvalReport, ...]
    status: str  # "clean" when every scene completed, else "partial"

    def to_dict(self) -> dict:
        return {
            "type": "benchmark_report",
            "version": 1,
            "status": self.status,
            "config": self.config,
            "levels": [lvl.to_dict() for lvl in self.levels],
            "median_reduction_table": [
                {
                    "noise": asdict(lvl.noise),
                    "translation": lvl.median_reduction_ratio["translation"],
                    "rotation": lvl.median_reduction_ratio["rotation"],
                }
                for lvl in self.levels
            ],
        }


def _ground_truth_columns(scene: Scene, ego_id: str) -> np.ndarray:
    """The scene's objects in the ego frame as (n, 5) columns cx, cy, length, width, heading."""
    obj = _object_columns(scene)
    frame = inverse(scene.agent(ego_id).pose).as_tuple()
    x, y, theta = compose_columns(frame, 0, *obj[:, :3].T)
    return np.stack((x, y, obj[:, 3], obj[:, 4], theta), axis=1)


def _pair_errors(truth: Mapping[str, Pose2], *estimates: Mapping[str, Pose2]) -> list[list[tuple[float, float]]]:
    """Per estimate set, relative_pose_error of every ordered pair (i, j), i != j, in sorted-id order, bit for bit:
    relative poses t of the truth and e of every set from one compose_columns call, then compose(inverse(t), e)."""
    ids = sorted(truth)
    n, m, k = len(ids), len(ids) * (len(ids) - 1), len(estimates)
    poses = np.array([p[a].as_tuple() for p in (truth, *estimates) for a in ids], dtype=float).reshape(-1, 3)
    i, j = (n * np.arange(k + 1)[:, None] + v for v in np.nonzero(~np.eye(n, dtype=bool)))
    rel = np.stack(compose_columns(inverse_columns(poses), i.ravel(), *poses[j.ravel()].T), axis=1)
    t, e = rel[:m], rel[m:]
    dx, dy, dt = compose_columns(inverse_columns(t), np.tile(np.arange(m), k), *e.T)
    same = (e == np.tile(t, (k, 1))).all(axis=1)
    errors = [
        (0.0, 0.0) if eq else (math.hypot(ux, uy), abs(math.degrees(ut)))
        for eq, ux, uy, ut in zip(same.tolist(), dx.tolist(), dy.tolist(), dt.tolist())
    ]
    return [errors[s * m : (s + 1) * m] for s in range(k)]


# The solver-contract counters: each counts the solves of one graph that break
# one contract. A report pools every key of this table.
_SOLVER_CONTRACT = {
    "monotonic_violations": lambda graph, res: any(
        b > a for a, b in zip(res.objective_trace, res.objective_trace[1:])
    ),
    "ego_moved": lambda graph, res: (
        res.agent_poses[graph.ego_id].as_tuple() != graph.agent_poses[graph.ego_index].as_tuple()
    ),
    "nonconverged": lambda graph, res: not res.converged,
}


def _solver_contract(graph: PoseGraph, results: Sequence[SolveResult]) -> dict[str, int]:
    """How many of the solves of graph break each solver contract."""
    return {key: sum(broken(graph, res) for res in results) for key, broken in _SOLVER_CONTRACT.items()}


def _run_scene(config: BenchmarkConfig, level: int, scene_idx: int) -> dict:
    try:
        scene = config.scene(derive_seed(config.seed, "scene", scene_idx))
    except ScenarioError as exc:
        return {"ok": False, "reason": str(exc)}
    noise = config.noise_at(level)
    messages = make_messages(scene, noise, config.detector, derive_seed(config.seed, "msgs", level, scene_idx))
    ego_id = scene.agents[0].agent_id
    graph = build_pose_graph(messages, ego_id, center_gap=config.cluster_gap)
    result_w = optimize(graph, config.solver)
    result_i = optimize(with_uniform_info(graph), config.solver)

    truth = {a.agent_id: a.pose for a in scene.agents}
    measured = {m.agent_id: m.measured_pose for m in messages}
    errors = dict(zip(SERIES_ORDER, _pair_errors(truth, measured, result_i.agent_poses, result_w.agent_poses)))

    gt = _ground_truth_columns(scene, ego_id)
    ap: dict[str, dict[str, float]] = {f"{thr:g}": {} for thr in config.ap_thresholds}
    for kind, poses in (("corrected", result_w.agent_poses), ("uncorrected", measured)):
        fused, _ = _fuse_rows(messages, relative_poses(poses, ego_id), config.nms_iou)
        rows = _ranked_ious(fused[:, [0, 1, 3, 4, 6]], fused[:, 10], gt)
        for thr in config.ap_thresholds:
            ap[f"{thr:g}"][kind] = _ap_from_ious(rows, len(gt), thr)
    return {
        "ok": True,
        "errors": errors,
        "ap": ap,
        "solver_contract": _solver_contract(graph, (result_w, result_i)),
    }


def _quantiles(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"p25": 0.0, "median": 0.0, "p75": 0.0}
    q25, q50, q75 = np.quantile(np.array(values, dtype=float), [0.25, 0.5, 0.75])
    return {"p25": float(q25), "median": float(q50), "p75": float(q75)}


def _level_report(config: BenchmarkConfig, level: int, records: list[dict]) -> EvalReport:
    done = [rec for rec in records if rec["ok"]]
    errors = {s: [e for rec in done for e in rec["errors"][s]] for s in SERIES_ORDER}
    trans = {s: tuple(t for t, _ in v) for s, v in errors.items()}
    rot = {s: tuple(r for _, r in v) for s, v in errors.items()}
    quantiles = {s: {"translation": _quantiles(trans[s]), "rotation": _quantiles(rot[s])} for s in SERIES_ORDER}
    before, after = quantiles[SERIES_BEFORE], quantiles[SERIES_AFTER_WEIGHTED]
    ratio: dict[str, float | None] = {
        m: (after[m]["median"] / before[m]["median"] if before[m]["median"] > 0.0 else None)
        for m in ("translation", "rotation")
    }
    ap = {
        key: {
            kind: (sum(rec["ap"][key][kind] for rec in done) / len(done) if done else 0.0)
            for kind in ("corrected", "uncorrected")
        }
        for key in (f"{thr:g}" for thr in config.ap_thresholds)
    }
    return EvalReport(
        noise=config.noise_at(level),
        n_scenes=len(records),
        skipped=tuple((i, rec["reason"]) for i, rec in enumerate(records) if not rec["ok"]),
        trans_errors=trans,
        rot_errors=rot,
        quantiles=quantiles,
        median_reduction_ratio=ratio,
        degenerate_before=before["translation"]["median"] == 0.0 or before["rotation"]["median"] == 0.0,
        ap=ap,
        solver_contract={key: sum(rec["solver_contract"][key] for rec in done) for key in _SOLVER_CONTRACT},
    )


def run_benchmark(config: BenchmarkConfig, threads: int = 1) -> BenchmarkResult:
    """Run the full noise grid; scene failures are recorded and skipped.

    threads is a whole number >= 1. With threads > 1 scenes are evaluated in a
    process pool; results are assembled by scene index, so the report is
    identical to a serial run.
    """
    threads = whole_number(threads, "threads", 1)
    jobs = [(config, level, scene_idx) for level in range(len(config.noise_grid)) for scene_idx in range(config.scenes)]
    if threads > 1:
        # Imported on first use: multiprocessing adds about 20 ms to importing the package.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_scene, *zip(*jobs), chunksize=8))
    else:
        records = [_run_scene(*job) for job in jobs]
    levels = tuple(
        _level_report(config, level, records[level * config.scenes : (level + 1) * config.scenes])
        for level in range(len(config.noise_grid))
    )
    return BenchmarkResult(
        config=_config_dict(config),
        levels=levels,
        status="partial" if any(lvl.skipped for lvl in levels) else "clean",
    )


def _config_dict(config: BenchmarkConfig) -> dict:
    return json.loads(json.dumps(asdict(config)))


def histogram_rows(report: EvalReport, metric: str, bins: int = 40) -> list[tuple[float, float, float, str]]:
    """Density histogram rows (bin_left, bin_right, density, series) for one metric."""
    if metric == "translation":
        data = report.trans_errors
    elif metric == "rotation":
        data = report.rot_errors
    else:
        raise ValueError(f"metric must be translation or rotation, got {metric!r}")
    vmax = max((max(v) for v in data.values() if v), default=0.0)
    if vmax <= 0.0:
        vmax = 1.0
    edges = np.linspace(0.0, vmax, bins + 1)
    rows: list[tuple[float, float, float, str]] = []
    for series in SERIES_ORDER:
        values = np.array(data[series], dtype=float)
        if values.size:
            counts, _ = np.histogram(values, bins=edges)
            densities = counts / (values.size * (edges[1] - edges[0]))
        else:
            densities = np.zeros(bins)
        label = SERIES_LABELS[series]
        for b in range(bins):
            rows.append((float(edges[b]), float(edges[b + 1]), float(densities[b]), label))
    return rows


def write_histogram_csv(report: EvalReport, metric: str, path: str, bins: int = 40) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,density,series\n")
        for left, right, density, series in histogram_rows(report, metric, bins):
            fh.write(f"{left!r},{right!r},{density!r},{series}\n")
