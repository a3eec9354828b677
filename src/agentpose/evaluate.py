"""Late fusion of corrected detections and the benchmark metric pipeline.

run_benchmark drives the full loop per noise level: generate scenes, corrupt
poses, detect, build and optimize the pose graph (once with the reported
information weights and once with identity weights), pool relative-pose
errors over all ordered agent pairs, and score late-fused detections against
ground truth at the configured IoU thresholds.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import OrientedBox2, Pose2, compose, inverse, rotated_iou_bev
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
from .uncertainty import BoxDetection, transform_box

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
    dropped when it overlaps an already kept box at IoU >= nms_iou.
    """
    if not 0.0 < nms_iou <= 1.0:
        raise ValueError(f"nms_iou must be in (0, 1], got {nms_iou!r}")
    missing = [m.agent_id for m in messages if m.agent_id not in rel_poses]
    if missing:
        raise ValueError(f"relative poses missing for agents {missing}")
    candidates = [
        (-box.confidence, m.agent_id, k, transform_box(box, rel_poses[m.agent_id]))
        for m in messages
        for k, box in enumerate(m.boxes)
    ]
    candidates.sort(key=lambda c: c[:3])
    kept: list[BoxDetection] = []
    kept_fp: list[OrientedBox2] = []
    for _, _, _, box in candidates:
        fp = box.footprint()
        if all(rotated_iou_bev(fp, other) < nms_iou for other in kept_fp):
            kept.append(box)
            kept_fp.append(fp)
    return kept


def average_precision(
    detections: Sequence[tuple[OrientedBox2, float]],
    ground_truth: Sequence[OrientedBox2],
    iou_threshold: float,
) -> float:
    """Area under the all-point interpolated precision-recall curve.

    Detections greedily match the highest-IoU unmatched ground truth in
    descending confidence order; a match needs IoU >= iou_threshold. With no
    ground truth the score is 1.0 when there are also no detections (nothing
    to do) and 0.0 otherwise.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1), got {iou_threshold!r}")
    npos = len(ground_truth)
    if npos == 0:
        return 1.0 if len(detections) == 0 else 0.0
    if len(detections) == 0:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    matched = [False] * npos
    tp_flags: list[bool] = []
    for i in order:
        box = detections[i][0]
        best_iou = 0.0
        best_j = -1
        for j, gt in enumerate(ground_truth):
            if matched[j]:
                continue
            iou = rotated_iou_bev(box, gt)
            if iou > best_iou:
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
        object.__setattr__(self, "area", (float(self.area[0]), float(self.area[1])))
        object.__setattr__(self, "extent", (float(self.extent[0]), float(self.extent[1])))
        object.__setattr__(self, "noise_grid", tuple((float(t), float(r)) for t, r in self.noise_grid))
        object.__setattr__(self, "ap_thresholds", tuple(float(t) for t in self.ap_thresholds))
        if not self.noise_grid:
            raise ValueError("noise_grid must not be empty")

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
    ap = {}
    for thr in config.ap_thresholds:
        ap[f"{thr:g}"] = {
            "corrected": average_precision([(b.footprint(), b.confidence) for b in fused_corrected], gt_boxes, thr),
            "uncorrected": average_precision([(b.footprint(), b.confidence) for b in fused_uncorrected], gt_boxes, thr),
        }
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
    out = asdict(config)
    out["area"] = list(config.area)
    out["extent"] = list(config.extent)
    out["noise_grid"] = [list(p) for p in config.noise_grid]
    out["ap_thresholds"] = list(config.ap_thresholds)
    det = out["detector"]
    if det["noise_scale_choices"] is not None:
        det["noise_scale_choices"] = list(det["noise_scale_choices"])
    return out


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
