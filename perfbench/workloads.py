"""Workload inputs, closed loops and output checks of the agentpose benchmark.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned and its output was checked. Inputs are a
function of the benchmark seed alone.

acceptance
    ``run_benchmark`` on the acceptance suite's shape (4 agents, 10 objects,
    120 x 120 m, Gaussian pose noise 0.6 m / 0.6 deg), one call per batch of
    ``BATCH_SCENES`` scenes with one worker. After the timed window the first
    batch is run again with a pool of ``POOL_THREADS`` workers, whose report
    must equal the serial one byte for byte.
large_round
    One collaboration round per operation, the path ``agentpose solve`` takes:
    ``build_pose_graph`` -> weighted ``optimize`` -> ``relative_poses`` at 12
    agents / 200 objects in 200 x 200 m. Scenes and messages are generated
    during set-up, as the program's inputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from agentpose import (
    BenchmarkConfig,
    DetectorSpec,
    NoiseSpec,
    OrientedBox2,
    average_precision,
    build_pose_graph,
    compose,
    generate_scene,
    inverse,
    late_fuse,
    make_messages,
    optimize,
    relative_pose_error,
    relative_poses,
    run_benchmark,
)

BATCH_SCENES = 20
POOL_THREADS = 2
# Quality figures pool the first 1000 scenes, the acceptance suite's scene count,
# so they depend on the seed only and not on how many batches fit in the run.
QUALITY_BATCHES = 50
# Percentile of the per-sample times that the gated timing metric reports. On a
# shared host the median flips between a contended and an uncontended speed,
# each held for tens of seconds; the slow tail follows the contended speed,
# which holds most of the time, so it repeats far better between runs.
TAIL = 90
RATIO_GATE = 0.40
NOISE_LEVEL = (0.6, 0.6)
NOISE = NoiseSpec("gaussian", *NOISE_LEVEL)
DETECTOR = DetectorSpec()
NMS_IOU = 0.15
AP_IOU = 0.7
LARGE_AGENTS, LARGE_OBJECTS, LARGE_AREA = 12, 200, (200.0, 200.0)
# Distinct large rounds cycled through by the closed loop; every timed pass
# visits each of them once.
ROUNDS = 16
MIN_OBJECT_GAP = 5.0


def bench_seed(*parts) -> int:
    """Input seed derived by the benchmark, independent of the program's own seed helpers."""
    text = "perfbench/" + "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def direct(_name: str, fn, *args):
    """Call ``fn`` untraced; ``Tracer.span`` has the same signature."""
    return fn(*args)


def acceptance_config(seed: int, batch: int | str, scenes: int = BATCH_SCENES) -> BenchmarkConfig:
    return BenchmarkConfig(
        seed=bench_seed("acceptance", seed, batch), scenes=scenes, noise_grid=(NOISE_LEVEL,)
    )


def report_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")


def pair_errors(est, truth) -> list[tuple[float, float]]:
    """Translation/rotation error of every ordered agent pair, in sorted-id order."""
    ids = sorted(truth)
    out = []
    for i in ids:
        inv_est = inverse(est[i])
        inv_true = inverse(truth[i])
        for j in ids:
            if i != j:
                out.append(relative_pose_error(compose(inv_est, est[j]), compose(inv_true, truth[j])))
    return out


def ground_truth_in_ego(scene, ego_id: str) -> list[OrientedBox2]:
    ego_inv = inverse(scene.agent(ego_id).pose)
    out = []
    for obj in scene.objects:
        p = compose(ego_inv, obj.pose)
        out.append(OrientedBox2(p.x, p.y, obj.length, obj.width, p.theta))
    return out


def fused_ap(messages, rel, scene, ego_id: str) -> float:
    """AP at AP_IOU of the ego's late-fused view against the scene's ground truth."""
    fused = late_fuse(messages, rel, NMS_IOU)
    dets = [(b.footprint(), b.confidence) for b in fused]
    return average_precision(dets, ground_truth_in_ego(scene, ego_id), AP_IOU)


@dataclass
class Outcome:
    """Attempted and failed operations; an operation with any problem counts as failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, n: int, problems: list[str], skipped: int = 0) -> None:
        self.attempted += n
        self.failed += n if problems else skipped
        self.problems.extend(problems)


@dataclass
class Quality:
    """Pooled pair errors and AP over a fixed set of operations."""

    before_t: list[float] = field(default_factory=list)
    after_t: list[float] = field(default_factory=list)
    before_r: list[float] = field(default_factory=list)
    after_r: list[float] = field(default_factory=list)
    ap_sum: float = 0.0
    ap_n: int = 0

    def add(self, before, after) -> None:
        before, after = list(before), list(after)
        self.before_t.extend(e[0] for e in before)
        self.before_r.extend(e[1] for e in before)
        self.after_t.extend(e[0] for e in after)
        self.after_r.extend(e[1] for e in after)

    def ratios(self) -> tuple[float, float]:
        """Weighted-solve median pair error over the median before correction."""
        return (
            float(np.median(self.after_t) / np.median(self.before_t)),
            float(np.median(self.after_r) / np.median(self.before_r)),
        )

    def metrics(self) -> dict[str, float]:
        t, r = self.ratios()
        return {"trans_reduction": 1.0 - t, "rot_reduction": 1.0 - r, "ap70_corrected": self.ap_sum / self.ap_n}


def acceptance_problems(result) -> list[str]:
    level = result.levels[0]
    out = []
    if result.status != "clean":
        out.append(f"status {result.status}: skipped {list(level.skipped)}")
    for name, ratio in level.median_reduction_ratio.items():
        if ratio is None or ratio > RATIO_GATE:
            out.append(f"{name} reduction ratio {ratio} above {RATIO_GATE}")
    for name in ("monotonic_violations", "ego_moved"):
        if level.solver_contract[name]:
            out.append(f"solver_contract {name} = {level.solver_contract[name]}")
    return out


def acceptance_setup(seed: int) -> None:
    """Warm caches and lazy imports."""
    run_benchmark(acceptance_config(seed, "warm-up", scenes=4))


def run_acceptance(seed: int, seconds: float):
    """Closed loop of run_benchmark batches for at least ``seconds`` and QUALITY_BATCHES batches."""
    quality = Quality()
    samples_ms: list[float] = []
    busy = 0.0
    batches: list[tuple[int, int, list[str]]] = []
    first_report = None
    start = time.perf_counter()
    while len(batches) < QUALITY_BATCHES or time.perf_counter() - start < seconds:
        config = acceptance_config(seed, len(batches))
        t0 = time.perf_counter()
        result = run_benchmark(config)
        elapsed = time.perf_counter() - t0
        busy += elapsed
        samples_ms.append(elapsed * 1e3 / config.scenes)
        level = result.levels[0]
        if first_report is None:
            first_report = result
        if len(batches) < QUALITY_BATCHES:
            quality.add(
                zip(level.trans_errors["before"], level.rot_errors["before"]),
                zip(level.trans_errors["after_weighted"], level.rot_errors["after_weighted"]),
            )
            n_ok = level.n_scenes - len(level.skipped)
            quality.ap_sum += level.ap[f"{AP_IOU:g}"]["corrected"] * n_ok
            quality.ap_n += n_ok
        batches.append((config.scenes, len(level.skipped), acceptance_problems(result)))
    pooled = run_benchmark(acceptance_config(seed, 0), threads=POOL_THREADS)
    if report_bytes(pooled) != report_bytes(first_report):
        batches[0][2].append("pool and serial reports of batch 0 differ")
    outcome = Outcome()
    for scenes, skipped, problems in batches:
        outcome.record(scenes, problems, skipped)
    metrics = {"scene_ms_p90": float(np.percentile(samples_ms, TAIL)), **quality.metrics()}
    reported = timing_report(samples_ms, len(samples_ms) * BATCH_SCENES / busy)
    info = {
        "samples": len(samples_ms),
        "sample": f"ms per scene of one run_benchmark call of {BATCH_SCENES} scenes",
        "tail": tail_percentile(samples_ms),
    }
    return metrics, reported, info, outcome, quality.ratios()


@dataclass(frozen=True)
class Round:
    scene: object
    messages: list
    ego: str


def make_rounds(seed: int, call=direct) -> list[Round]:
    rounds = []
    for k in range(ROUNDS):
        scene = call(
            "scenario.generate_scene", generate_scene, LARGE_AGENTS, LARGE_OBJECTS, LARGE_AREA,
            bench_seed("large", seed, k), (140.0, 140.0), MIN_OBJECT_GAP,
        )
        messages = call("scenario.make_messages", make_messages, scene, NOISE, DETECTOR, bench_seed("large-msgs", seed, k))
        rounds.append(Round(scene, messages, scene.agents[0].agent_id))
    return rounds


def solve_round(rnd: Round, call=direct):
    """One collaboration round as ``agentpose solve`` runs it."""
    graph = call("posegraph.build_pose_graph", build_pose_graph, rnd.messages, rnd.ego)
    result = call("posegraph.optimize_weighted", optimize, graph)
    rel = call("posegraph.relative_poses", relative_poses, result.agent_poses, rnd.ego)
    return graph, result, rel


def round_errors(rnd: Round, result):
    truth = {a.agent_id: a.pose for a in rnd.scene.agents}
    measured = {m.agent_id: m.measured_pose for m in rnd.messages}
    return pair_errors(measured, truth), pair_errors(result.agent_poses, truth)


def round_problems(rnd: Round, graph, result, before, after) -> list[str]:
    out = []
    if result.agent_poses[rnd.ego].as_tuple() != graph.agent_poses[graph.ego_index].as_tuple():
        out.append("ego pose moved")
    trace = result.objective_trace
    if any(b > a for a, b in zip(trace, trace[1:])):
        out.append("objective increased")
    if not result.converged:
        out.append("solve did not converge")
    for k, name in enumerate(("translation", "rotation")):
        if np.median([e[k] for e in after]) > np.median([e[k] for e in before]):
            out.append(f"median {name} pair error above its value before correction")
    return out


def poses_key(result) -> tuple:
    return tuple((aid, p.as_tuple()) for aid, p in sorted(result.agent_poses.items()))


def large_setup(seed: int, call=direct) -> list[Round]:
    rounds = make_rounds(seed, call)
    solve_round(rounds[0])
    return rounds


def run_large(rounds: list[Round], seconds: float):
    """Closed loop of solve rounds in whole passes over the inputs.

    A pass starts only when the previous one says it will end within ``seconds``;
    the first pass always runs.
    """
    outcome = Outcome()
    quality = Quality()
    latencies_ms: list[float] = []
    pass_rates: list[float] = []
    first: list = [None] * len(rounds)
    start = time.perf_counter()
    last_pass = 0.0
    while not pass_rates or time.perf_counter() - start + last_pass <= seconds:
        t_pass = time.perf_counter()
        busy = 0.0
        for k, rnd in enumerate(rounds):
            t0 = time.perf_counter()
            graph, result, rel = solve_round(rnd)
            dt = time.perf_counter() - t0
            busy += dt
            latencies_ms.append(dt * 1e3)
            before, after = round_errors(rnd, result)
            problems = round_problems(rnd, graph, result, before, after)
            if first[k] is None:
                first[k] = (poses_key(result), rel)
                quality.add(before, after)
            elif poses_key(result) != first[k][0]:
                problems.append(f"round {k} gave different poses on a repeated input")
            outcome.record(1, problems)
        pass_rates.append(len(rounds) / busy)
        last_pass = time.perf_counter() - t_pass
    # AP of the late-fused corrected round: a quality figure, computed after the
    # timed window because the solve path itself does not fuse.
    for rnd, (_, rel) in zip(rounds, first):
        quality.ap_sum += fused_ap(rnd.messages, rel, rnd.scene, rnd.ego)
        quality.ap_n += 1
    # A sample is any run of len(rounds) consecutive rounds, so every sample holds
    # each input once and the tail follows the host, not the costliest rounds.
    cum = np.concatenate(([0.0], np.cumsum(latencies_ms)))
    window_ms = (cum[len(rounds):] - cum[: -len(rounds)]) / len(rounds)
    metrics = {"scene_ms_p90": float(np.percentile(window_ms, TAIL)), **quality.metrics()}
    reported = timing_report(latencies_ms, float(np.median(pass_rates)))
    info = {
        "samples": len(latencies_ms),
        "sample": (
            "ms of one solve round; scene_ms_p90 is taken over the mean ms per round of every "
            f"{len(rounds)} consecutive rounds; scenes_per_s is the median over passes of the rounds "
            "in a pass over busy time"
        ),
        "tail": tail_percentile(latencies_ms),
    }
    return metrics, reported, info, outcome, quality.ratios()


def timing_report(samples_ms: list[float], scenes_per_s: float) -> dict:
    """Timing figures printed by name but not gated: throughput and median."""
    return {
        "scenes_per_s": (scenes_per_s, "1/s"),
        "scene_ms_p50": (float(np.median(samples_ms)), "ms"),
    }


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = {"percentile": q, "value_ms": float(np.percentile(values, q)), "samples": n}
    return best
