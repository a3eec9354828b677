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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .geometry import OrientedBox2, Pose2, compose, compose_columns, inverse, overlap_pairs, rotated_iou_bev
from .posegraph import (
    DEFAULT_CLUSTER_GAP,
    AgentMessage,
    SolverParams,
    build_pose_graph,
    optimize,
    relative_poses,
    with_uniform_info,
)
from .scenario import (
    DetectorSpec,
    NoiseSpec,
    ScenarioError,
    Scene,
    derive_seed,
    generate_scene,
    make_messages,
)
# rotated_iou_bev must be looked up by name here and transform_box stays bound though
# unused: both are names in perfbench/tracing.py's INTERCEPTED table, which rebinds
# them in this module.
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
    lifted as columns, and rotated_iou_bev runs only on the pairs whose
    circumcircles may meet: every other pair has IoU 0.
    """
    if not 0.0 < nms_iou <= 1.0:
        raise ValueError(f"nms_iou must be in (0, 1], got {nms_iou!r}")
    ids = [m.agent_id for m in messages]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate agent_id in messages")
    missing = [a for a in ids if a not in rel_poses]
    if missing:
        raise ValueError(f"relative poses missing for agents {missing}")
    ranked = sorted(
        (-box.confidence, m.agent_id, k, a) for a, m in enumerate(messages) for k, box in enumerate(m.boxes)
    )
    boxes = [messages[a].boxes[k] for _, _, k, a in ranked]
    cols = np.array([(b.cx, b.cy, b.theta, b.length, b.width) for b in boxes], dtype=float).reshape(-1, 5)
    gx, gy, gt = compose_columns(
        [rel_poses[a] for a in ids], np.array([a for *_, a in ranked], dtype=np.intp), cols[:, 0], cols[:, 1], cols[:, 2]
    )
    first, second = overlap_pairs(gx, gy, 0.5 * np.hypot(cols[:, 3], cols[:, 4]))
    # Candidates are indexed by rank, so each pair's first end outranks its second.
    above: list[list[int]] = [[] for _ in boxes]
    for i, j in zip(first.tolist(), second.tolist()):
        above[j].append(i)
    fp = {
        i: OrientedBox2(float(gx[i]), float(gy[i]), boxes[i].length, boxes[i].width, float(gt[i]))
        for i in set(first.tolist()) | set(second.tolist())
    }
    keep = [False] * len(boxes)
    for j, partners in enumerate(above):
        keep[j] = all(rotated_iou_bev(fp[j], fp[i]) < nms_iou for i in partners if keep[i])
    return [
        replace(boxes[i], cx=float(gx[i]), cy=float(gy[i]), theta=float(gt[i]))
        for i in range(len(boxes))
        if keep[i]
    ]


def _ranked_ious(
    detections: Sequence[tuple[OrientedBox2, float]], ground_truth: Sequence[OrientedBox2]
) -> list[list[tuple[int, float]]]:
    """The detection x ground-truth IoUs, one row per detection in ranked order.

    Detections are ranked by descending confidence, ties to the lower index.
    A row lists (ground-truth index, IoU) in ascending index for the pairs
    whose circumcircles may meet; every pair left out has IoU 0.
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    boxes = [detections[i][0] for i in order] + list(ground_truth)
    n = len(order)
    first, second = overlap_pairs(
        np.array([b.cx for b in boxes], dtype=float),
        np.array([b.cy for b in boxes], dtype=float),
        np.array([b.circumradius() for b in boxes], dtype=float),
    )
    rows: list[list[tuple[int, float]]] = [[] for _ in order]
    for r, g in sorted(zip(first.tolist(), second.tolist())):
        if r < n <= g:
            rows[r].append((g - n, rotated_iou_bev(boxes[r], boxes[g])))
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

    n = len(tp_flags)
    precisions = []
    recalls = []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / k)
        recalls.append(tp / npos)
    # Precision envelope (running max from the right), then rectangle sum.
    for k in range(n - 2, -1, -1):
        if precisions[k + 1] > precisions[k]:
            precisions[k] = precisions[k + 1]
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        ap += (recalls[k] - prev_recall) * precisions[k]
        prev_recall = recalls[k]
    return ap


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
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
    return _ap_from_ious(_ranked_ious(detections, ground_truth), len(ground_truth), iou_threshold)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything one benchmark run depends on; fully determined by the seed."""

    seed: int
    scenes: int = 100
    num_agents: int = 4
    num_objects: int = 10
    area: tuple[float, float] = (120.0, 120.0)
    extent: tuple[float, float] = (140.0, 140.0)
    min_object_gap: float = 5.0
    noise_kind: str = "gaussian"
    noise_grid: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.2, 0.2), (0.4, 0.4), (0.6, 0.6))
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    solver: SolverParams = field(default_factory=SolverParams)
    cluster_gap: float = DEFAULT_CLUSTER_GAP
    nms_iou: float = DEFAULT_NMS_IOU
    ap_thresholds: tuple[float, ...] = (0.5, 0.7)

    def __post_init__(self) -> None:
        for name, cast in (
            ("scenes", int), ("num_agents", int), ("num_objects", int),
            ("min_object_gap", float), ("cluster_gap", float), ("nms_iou", float),
        ):
            object.__setattr__(self, name, cast(getattr(self, name)))
        if self.scenes < 1:
            raise ValueError("scenes must be >= 1")
        if self.num_agents < 1 or self.num_objects < 0:
            raise ValueError("num_agents must be >= 1 and num_objects >= 0")
        if self.min_object_gap < 0.0:
            raise ValueError("min_object_gap must be >= 0")
        for name in ("area", "extent"):
            pair = tuple(float(v) for v in getattr(self, name))
            if len(pair) != 2 or min(pair) <= 0.0:
                raise ValueError(f"{name} must be two positive values")
            object.__setattr__(self, name, pair)
        object.__setattr__(self, "noise_grid", tuple((float(t), float(r)) for t, r in self.noise_grid))
        object.__setattr__(self, "ap_thresholds", tuple(float(t) for t in self.ap_thresholds))
        if not self.noise_grid:
            raise ValueError("noise_grid must not be empty")
        for level in range(len(self.noise_grid)):
            self.noise_at(level)  # NoiseSpec checks the kind and both scales
        if not all(0.0 < t < 1.0 for t in self.ap_thresholds):
            raise ValueError("ap_thresholds must be in (0, 1)")
        if self.cluster_gap <= 0.0:
            raise ValueError("cluster_gap must be positive")
        if not 0.0 < self.nms_iou <= 1.0:
            raise ValueError("nms_iou must be in (0, 1]")

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


def _ground_truth_in_ego(scene: Scene, ego_id: str) -> list[OrientedBox2]:
    ego_inv = inverse(scene.agent(ego_id).pose)
    out = []
    for obj in scene.objects:
        p = compose(ego_inv, obj.pose)
        out.append(OrientedBox2(p.x, p.y, obj.length, obj.width, p.theta))
    return out


def _pair_errors(est: Mapping[str, Pose2], truth: Mapping[str, Pose2]) -> list[tuple[float, float]]:
    ids = sorted(truth)
    out = []
    for i in ids:
        inv_est = inverse(est[i])
        inv_true = inverse(truth[i])
        for j in ids:
            if i == j:
                continue
            out.append(
                relative_pose_error(compose(inv_est, est[j]), compose(inv_true, truth[j]))
            )
    return out


def _run_scene(config: BenchmarkConfig, level: int, scene_idx: int) -> dict:
    try:
        scene = generate_scene(
            config.num_agents,
            config.num_objects,
            area=config.area,
            seed=derive_seed(config.seed, "scene", scene_idx),
            extent=config.extent,
            min_object_gap=config.min_object_gap,
        )
    except ScenarioError as exc:
        return {"ok": False, "reason": str(exc)}
    noise = config.noise_at(level)
    messages = make_messages(scene, noise, config.detector, derive_seed(config.seed, "msgs", level, scene_idx))
    ego_id = scene.agents[0].agent_id
    graph = build_pose_graph(messages, ego_id, center_gap=config.cluster_gap)
    result_w = optimize(graph, config.solver)
    result_i = optimize(with_uniform_info(graph), config.solver)

    monotonic_violations = 0
    for trace in (result_w.objective_trace, result_i.objective_trace):
        if any(b > a for a, b in zip(trace, trace[1:])):
            monotonic_violations += 1
    ego_before = graph.agent_poses[graph.ego_index]
    ego_moved = 0
    for res in (result_w, result_i):
        after = res.agent_poses[ego_id]
        if (after.x, after.y, after.theta) != (ego_before.x, ego_before.y, ego_before.theta):
            ego_moved += 1
    nonconverged = sum(1 for res in (result_w, result_i) if not res.converged)

    truth = {a.agent_id: a.pose for a in scene.agents}
    measured = {m.agent_id: m.measured_pose for m in messages}
    errors = {
        SERIES_BEFORE: _pair_errors(measured, truth),
        SERIES_AFTER_GRAPH: _pair_errors(result_i.agent_poses, truth),
        SERIES_AFTER_WEIGHTED: _pair_errors(result_w.agent_poses, truth),
    }

    gt_boxes = _ground_truth_in_ego(scene, ego_id)
    fused_corrected = late_fuse(messages, relative_poses(result_w.agent_poses, ego_id), config.nms_iou)
    fused_uncorrected = late_fuse(messages, relative_poses(measured, ego_id), config.nms_iou)
    ap: dict[str, dict[str, float]] = {f"{thr:g}": {} for thr in config.ap_thresholds}
    for kind, fused in (("corrected", fused_corrected), ("uncorrected", fused_uncorrected)):
        rows = _ranked_ious([(b.footprint(), b.confidence) for b in fused], gt_boxes)
        for thr in config.ap_thresholds:
            ap[f"{thr:g}"][kind] = _ap_from_ious(rows, len(gt_boxes), thr)
    return {
        "ok": True,
        "errors": errors,
        "ap": ap,
        "monotonic_violations": monotonic_violations,
        "ego_moved": ego_moved,
        "nonconverged": nonconverged,
    }


def _quantiles(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"p25": 0.0, "median": 0.0, "p75": 0.0}
    q25, q50, q75 = np.quantile(np.array(values, dtype=float), [0.25, 0.5, 0.75])
    return {"p25": float(q25), "median": float(q50), "p75": float(q75)}


def _level_report(config: BenchmarkConfig, level: int, records: list[dict]) -> EvalReport:
    noise = config.noise_at(level)
    skipped = tuple((i, rec["reason"]) for i, rec in enumerate(records) if not rec["ok"])
    trans: dict[str, list[float]] = {s: [] for s in SERIES_ORDER}
    rot: dict[str, list[float]] = {s: [] for s in SERIES_ORDER}
    ap_sums: dict[str, dict[str, float]] = {
        f"{thr:g}": {"corrected": 0.0, "uncorrected": 0.0} for thr in config.ap_thresholds
    }
    contract = {"monotonic_violations": 0, "ego_moved": 0, "nonconverged": 0}
    n_ok = 0
    for rec in records:
        if not rec["ok"]:
            continue
        n_ok += 1
        for series in SERIES_ORDER:
            for t, r in rec["errors"][series]:
                trans[series].append(t)
                rot[series].append(r)
        for thr, pair in rec["ap"].items():
            ap_sums[thr]["corrected"] += pair["corrected"]
            ap_sums[thr]["uncorrected"] += pair["uncorrected"]
        contract["monotonic_violations"] += rec["monotonic_violations"]
        contract["ego_moved"] += rec["ego_moved"]
        contract["nonconverged"] += rec["nonconverged"]

    quantiles = {
        series: {
            "translation": _quantiles(trans[series]),
            "rotation": _quantiles(rot[series]),
        }
        for series in SERIES_ORDER
    }
    before_t = quantiles[SERIES_BEFORE]["translation"]["median"]
    before_r = quantiles[SERIES_BEFORE]["rotation"]["median"]
    degenerate = before_t == 0.0 or before_r == 0.0
    ratio: dict[str, float | None] = {
        "translation": (
            quantiles[SERIES_AFTER_WEIGHTED]["translation"]["median"] / before_t if before_t > 0.0 else None
        ),
        "rotation": (
            quantiles[SERIES_AFTER_WEIGHTED]["rotation"]["median"] / before_r if before_r > 0.0 else None
        ),
    }
    ap = {
        thr: {k: (v / n_ok if n_ok else 0.0) for k, v in sums.items()}
        for thr, sums in ap_sums.items()
    }
    return EvalReport(
        noise=noise,
        n_scenes=len(records),
        skipped=skipped,
        trans_errors={s: tuple(v) for s, v in trans.items()},
        rot_errors={s: tuple(v) for s, v in rot.items()},
        quantiles=quantiles,
        median_reduction_ratio=ratio,
        degenerate_before=degenerate,
        ap=ap,
        solver_contract=contract,
    )


def _scene_job(args: tuple[BenchmarkConfig, int, int]) -> dict:
    return _run_scene(*args)


def run_benchmark(config: BenchmarkConfig, threads: int = 1) -> BenchmarkResult:
    """Run the full noise grid; scene failures are recorded and skipped.

    With threads > 1 scenes are evaluated in a process pool; results are
    assembled by scene index, so the report is identical to a serial run.
    """
    levels = []
    clean = True
    jobs = [
        (config, level, scene_idx)
        for level in range(len(config.noise_grid))
        for scene_idx in range(config.scenes)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_scene_job, jobs, chunksize=8))
    else:
        records = [_scene_job(job) for job in jobs]
    for level in range(len(config.noise_grid)):
        level_records = records[level * config.scenes : (level + 1) * config.scenes]
        report = _level_report(config, level, level_records)
        clean = clean and not report.skipped
        levels.append(report)
    return BenchmarkResult(
        config=_config_dict(config),
        levels=tuple(levels),
        status="clean" if clean else "partial",
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
