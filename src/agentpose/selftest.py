"""Oracle-based self checks runnable from the CLI.

Each check re-derives expected behavior through an independent route (the
matrix, Monte-Carlo, enumeration and closure oracles in `agentpose.oracles`,
or finite differences) and compares it against the library implementation.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluate import _solver_contract, average_precision, relative_pose_error
from .geometry import OrientedBox2, Pose2, compose, inverse, normalize_angle, rotated_iou_bev
from .oracles import ap_bruteforce, closure_clusters, compose_oracle, consistency_oracle, inverse_oracle, mc_iou
from .posegraph import PoseGraph, _cluster_labels, _Problem, build_pose_graph, optimize
from .scenario import DetectorSpec, NoiseSpec, generate_scene, make_messages
from .uncertainty import gaussian_center_loss, von_mises_angle_loss


def _random_pose(rng, span: float) -> Pose2:
    return Pose2(*rng.uniform(-span, span, 2), rng.uniform(-math.pi, math.pi))


def _pose_gap(got: Pose2, want: tuple[float, float, float]) -> float:
    return max(abs(got.x - want[0]), abs(got.y - want[1]), abs(normalize_angle(got.theta - want[2])))


def _check_pose_algebra(rng) -> tuple[str, bool, str]:
    worst = 0.0
    for _ in range(300):
        a = _random_pose(rng, 50)
        b = _random_pose(rng, 50)
        worst = max(
            worst,
            _pose_gap(compose(a, b), compose_oracle(a.as_tuple(), b.as_tuple())),
            _pose_gap(inverse(a), inverse_oracle(a.as_tuple())),
        )
    return ("pose algebra vs homogeneous matrices", worst < 1e-9, f"max err {worst:.2e}")


def _check_consistency(rng) -> tuple[str, bool, str]:
    # Agent k sees objects k and k + 1 mod n, the two edges an object needs.
    n = 100
    k = np.arange(n)
    edges = np.stack((np.tile(k, 2), np.concatenate((k, (k + 1) % n))), axis=1)
    z, poses = (np.array([_random_pose(rng, 20).as_tuple() for _ in range(2 * n)]) for _ in range(2))
    graph = PoseGraph(tuple(map(str, k)), (Pose2.identity(),) * n, 0, np.zeros((n, 3)), edges, z, np.ones((2 * n, 3)))
    e, _ = _Problem(graph).evaluate(poses)
    worst = max(
        _pose_gap(Pose2(*e[i]), consistency_oracle(z[i], poses[a], poses[n + o])) for i, (a, o) in enumerate(edges)
    )
    return ("solver residual vs matrix consistency error", worst < 1e-10, f"max err {worst:.2e}")


def _check_iou(rng) -> tuple[str, bool, str]:
    worst = 0.0
    for _ in range(20):
        a, b = (
            (*rng.uniform(-3, 3, 2), rng.uniform(2, 6), rng.uniform(1, 3), rng.uniform(-math.pi, math.pi))
            for _ in range(2)
        )
        got = rotated_iou_bev(OrientedBox2(*a), OrientedBox2(*b))
        worst = max(worst, abs(got - mc_iou(a, b, 100_000, rng)))
    return ("rotated IoU vs Monte-Carlo areas", worst < 2e-2, f"max err {worst:.3f}")


def _central(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(got))


def _check_gradients(rng) -> tuple[str, bool, str]:
    worst = 0.0
    for _ in range(200):
        x_hat, x0 = rng.uniform(-5, 5, 2)
        var = rng.uniform(0.1, 5.0)
        _, (gx, gv) = gaussian_center_loss(x_hat, var, x0)
        fdx = _central(lambda v: gaussian_center_loss(v, var, x0)[0], x_hat)
        fdv = _central(lambda v: gaussian_center_loss(x_hat, v, x0)[0], var)
        worst = max(worst, _rel_err(gx, fdx), _rel_err(gv, fdv))
    for absolute in (True, False):
        for _ in range(200):
            theta_hat, theta0 = rng.uniform(-math.pi, math.pi, 2)
            if abs(math.cos(theta_hat - theta0)) < 1e-3:
                continue  # kink of the absolute-cosine variant
            s = rng.uniform(-3, 3)
            _, (gt, gs) = von_mises_angle_loss(theta_hat, s, theta0, absolute_cosine=absolute)
            fdt = _central(lambda v: von_mises_angle_loss(v, s, theta0, absolute_cosine=absolute)[0], theta_hat)
            fds = _central(lambda v: von_mises_angle_loss(theta_hat, v, theta0, absolute_cosine=absolute)[0], s)
            worst = max(worst, _rel_err(gt, fdt), _rel_err(gs, fds))
    return ("loss gradients vs central differences", worst < 1e-5, f"max rel err {worst:.2e}")


def _check_ap(rng) -> tuple[str, bool, str]:
    name = "average precision vs brute-force enumeration"
    for case in range(50):
        n_gt = int(rng.integers(0, 5))
        n_det = int(rng.integers(0, 7))
        # Axis-aligned (cx, cy, length, width) boxes, which the oracle scores by interval overlap.
        gts = [(rng.uniform(-10, 10), rng.uniform(-10, 10), 4.0, 2.0) for _ in range(n_gt)]
        dets = [
            ((rng.uniform(-10, 10), rng.uniform(-10, 10), 4.0, 2.0), float(rng.uniform(0.1, 1.0)))
            for _ in range(n_det)
        ]
        got = average_precision(
            [(OrientedBox2(*box, 0.0), conf) for box, conf in dets], [OrientedBox2(*gt, 0.0) for gt in gts], 0.5
        )
        want = ap_bruteforce(dets, gts, 0.5)
        if got != want:
            return (name, False, f"case {case}: {got} != {want}")
    return (name, True, "50 cases exact")


def _check_clustering(rng) -> tuple[str, bool, str]:
    name = "clustering vs transitive closure"
    for case in range(100):
        n = int(rng.integers(0, 11))
        centers = [(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))) for _ in range(n)]
        xs, ys = np.array(centers, dtype=float).reshape(-1, 2).T
        # One agent per box, so no box is split off; both number clusters by smallest member.
        got = _cluster_labels(xs, ys, np.arange(n), np.full(n, 0.5), 2.0)
        want = np.zeros(n, dtype=np.intp)
        for label, members in enumerate(closure_clusters(centers, 2.0)):
            want[list(members)] = label
        if got.tolist() != want.tolist():
            return (name, False, f"case {case} mismatch")
    return (name, True, "100 cases exact")


def _check_zero_noise() -> tuple[str, bool, str]:
    for seed in range(5):
        scene = generate_scene(3, 6, area=(80.0, 80.0), seed=seed)
        spec = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        messages = make_messages(scene, NoiseSpec(), spec, seed)
        graph = build_pose_graph(messages, scene.agents[0].agent_id)
        result = optimize(graph)
        if result.objective > 1e-16:
            return ("zero-noise exactness", False, f"objective {result.objective:.2e}")
        for agent in scene.agents:
            t, r = relative_pose_error(result.agent_poses[agent.agent_id], agent.pose)
            if t > 1e-8 or math.radians(r) > 1e-8:
                return ("zero-noise exactness", False, f"pose err {t:.2e}")
    return ("zero-noise exactness", True, "5 seeds")


def _check_solver_contract() -> tuple[str, bool, str]:
    for seed in range(10):
        scene = generate_scene(4, 8, area=(100.0, 100.0), seed=100 + seed)
        messages = make_messages(scene, NoiseSpec(trans_scale=0.5, rot_scale=0.5), DetectorSpec(), seed)
        graph = build_pose_graph(messages, scene.agents[0].agent_id)
        contract = _solver_contract(graph, [optimize(graph)])
        if contract["monotonic_violations"]:
            return ("solver monotonic and gauge-fixed", False, f"seed {seed}: trace increased")
        if contract["ego_moved"]:
            return ("solver monotonic and gauge-fixed", False, f"seed {seed}: ego moved")
    return ("solver monotonic and gauge-fixed", True, "10 noisy scenes")


def run_selftest(seed: int = 20240917) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    return [
        _check_pose_algebra(rng),
        _check_consistency(rng),
        _check_iou(rng),
        _check_gradients(rng),
        _check_ap(rng),
        _check_clustering(rng),
        _check_zero_noise(),
        _check_solver_contract(),
    ]
