"""Acceptance suite: every exit criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the captured
output of a failing run). The heavy benchmark behind criteria 1, 7 and 8 runs
once per session and is shared.
"""

import math
import time

import numpy as np
import pytest

from agentpose.evaluate import BenchmarkConfig, average_precision, run_benchmark
from agentpose.geometry import OrientedBox2, normalize_angle, rotated_iou_bev
from agentpose.oracles import ap_bruteforce, closure_clusters, mc_iou
from agentpose.posegraph import _cluster_labels, _Problem, build_pose_graph, optimize, relative_poses
from agentpose.scenario import DetectorSpec, NoiseSpec, generate_scene, make_messages, save_json
from agentpose.uncertainty import gaussian_center_loss, von_mises_angle_loss

from helpers import dense_jacobian, independent_solver_objective, random_noisy_graph

MASTER_SEED = 20230601

# Criterion 1/3/7/8 benchmark shape: 4 agents, 10 objects, 1000 scenes,
# well-calibrated detector (center sd 0.2 m, heading sd 0.05 rad).
CALIBRATED_DETECTOR = DetectorSpec(center_noise_sd=0.2, heading_noise_sd=0.05, variance_calibration=1.0)
GAUSSIAN_CONFIG = BenchmarkConfig(
    seed=MASTER_SEED,
    scenes=1000,
    num_agents=4,
    num_objects=10,
    noise_kind="gaussian",
    noise_grid=((0.6, 0.6),),
    detector=CALIBRATED_DETECTOR,
)
# Criterion 3 uses the identical solver and detector; only the noise family changes.
LAPLACE_CONFIG = BenchmarkConfig(
    seed=MASTER_SEED,
    scenes=1000,
    num_agents=4,
    num_objects=10,
    noise_kind="laplace",
    noise_grid=((0.6, 0.6),),
    detector=CALIBRATED_DETECTOR,
)


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def gaussian_benchmark(tmp_path_factory):
    t0 = time.perf_counter()
    result = run_benchmark(GAUSSIAN_CONFIG)
    elapsed = time.perf_counter() - t0
    path = tmp_path_factory.mktemp("acceptance") / "criterion1.json"
    save_json(result.to_dict(), str(path))
    return {"result": result, "elapsed": elapsed, "path": path}


class TestCriterion1MedianErrorReduction:
    def test_median_reduction_and_runtime(self, gaussian_benchmark):
        level = gaussian_benchmark["result"].levels[0]
        ratios = level.median_reduction_ratio
        elapsed = gaussian_benchmark["elapsed"]
        ok = (
            gaussian_benchmark["result"].status == "clean"
            and ratios["translation"] <= 0.40
            and ratios["rotation"] <= 0.40
            and elapsed < 120.0
        )
        report_line(
            "1 median error reduction",
            ok,
            f"translation ratio {ratios['translation']:.3f} <= 0.40, "
            f"rotation ratio {ratios['rotation']:.3f} <= 0.40, runtime {elapsed:.1f}s < 120s",
        )
        assert gaussian_benchmark["result"].status == "clean"
        assert ratios["translation"] <= 0.40
        assert ratios["rotation"] <= 0.40
        assert elapsed < 120.0


class TestCriterion2UncertaintyWeightingHelps:
    def test_true_weights_beat_identity(self):
        detector = DetectorSpec(
            center_noise_sd=1.0,
            heading_noise_sd=0.25,
            variance_calibration=1.0,
            noise_scale_choices=(0.1, 0.5),
        )
        config = BenchmarkConfig(
            seed=MASTER_SEED + 1,
            scenes=500,
            num_agents=4,
            num_objects=10,
            noise_grid=((0.6, 0.6),),
            detector=detector,
        )
        level = run_benchmark(config).levels[0]
        weighted_t = level.quantiles["after_weighted"]["translation"]["median"]
        identity_t = level.quantiles["after_graph"]["translation"]["median"]
        weighted_r = level.quantiles["after_weighted"]["rotation"]["median"]
        identity_r = level.quantiles["after_graph"]["rotation"]["median"]
        ok = weighted_t < identity_t and weighted_r < identity_r
        report_line(
            "2 uncertainty weighting",
            ok,
            f"translation median {weighted_t:.4f} < {identity_t:.4f}, "
            f"rotation median {weighted_r:.4f} < {identity_r:.4f} (500 scenes)",
        )
        assert weighted_t < identity_t
        assert weighted_r < identity_r


class TestCriterion3LaplaceGeneralization:
    def test_laplace_median_reduction(self):
        # Guard against retuning: identical solver and detector settings.
        assert LAPLACE_CONFIG.solver == GAUSSIAN_CONFIG.solver
        assert LAPLACE_CONFIG.detector == GAUSSIAN_CONFIG.detector
        assert LAPLACE_CONFIG.cluster_gap == GAUSSIAN_CONFIG.cluster_gap
        level = run_benchmark(LAPLACE_CONFIG).levels[0]
        ratio = level.median_reduction_ratio["translation"]
        ok = ratio <= 0.50
        report_line("3 Laplace generalization", ok, f"translation ratio {ratio:.3f} <= 0.50")
        assert ratio <= 0.50


class TestCriterion4NoiselessExactness:
    def test_hundred_seeds(self):
        detector = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        worst_objective = 0.0
        worst_pose = 0.0
        for seed in range(100):
            scene = generate_scene(4, 10, area=(120.0, 120.0), seed=seed)
            messages = make_messages(scene, NoiseSpec(), detector, seed)
            ego = scene.agents[0].agent_id
            graph = build_pose_graph(messages, ego)
            result = optimize(graph)
            worst_objective = max(worst_objective, result.objective)
            rel = relative_poses(result.agent_poses, ego)
            true_rel = relative_poses({a.agent_id: a.pose for a in scene.agents}, ego)
            for aid, pose in rel.items():
                worst_pose = max(
                    worst_pose,
                    abs(pose.x - true_rel[aid].x),
                    abs(pose.y - true_rel[aid].y),
                    abs(normalize_angle(pose.theta - true_rel[aid].theta)),
                )
        ok = worst_objective <= 1e-16 and worst_pose <= 1e-8
        report_line(
            "4 noiseless exactness",
            ok,
            f"max objective {worst_objective:.2e} <= 1e-16, max pose err {worst_pose:.2e} <= 1e-8 (100 seeds)",
        )
        assert worst_objective <= 1e-16
        assert worst_pose <= 1e-8


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestCriterion5GradientSuite:
    def test_gaussian_center_loss_gradients(self):
        rng = np.random.default_rng(501)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            x_hat, x0 = rng.uniform(-5, 5, size=2)
            var = rng.uniform(0.05, 10.0)
            _, (gx, gv) = gaussian_center_loss(x_hat, var, x0)
            fdx = (gaussian_center_loss(x_hat + h, var, x0)[0] - gaussian_center_loss(x_hat - h, var, x0)[0]) / (2 * h)
            fdv = (gaussian_center_loss(x_hat, var + h, x0)[0] - gaussian_center_loss(x_hat, var - h, x0)[0]) / (2 * h)
            worst = max(worst, _rel_err(gx, fdx), _rel_err(gv, fdv))
        report_line("5a center-loss gradients", worst <= 1e-5, f"max rel err {worst:.2e} (1000 inputs)")
        assert worst <= 1e-5

    @pytest.mark.parametrize("absolute", [True, False])
    def test_von_mises_gradients(self, absolute):
        rng = np.random.default_rng(502 if absolute else 503)
        h = 1e-6
        worst = 0.0
        checked = 0
        while checked < 1000:
            theta_hat = rng.uniform(-math.pi, math.pi)
            theta0 = rng.uniform(-math.pi, math.pi)
            if abs(math.cos(theta_hat - theta0)) < 1e-3:
                continue  # kink of the absolute-cosine variant
            s = rng.uniform(-3, 3)
            _, (gt, gs) = von_mises_angle_loss(theta_hat, s, theta0, absolute_cosine=absolute)
            fdt = (
                von_mises_angle_loss(theta_hat + h, s, theta0, absolute_cosine=absolute)[0]
                - von_mises_angle_loss(theta_hat - h, s, theta0, absolute_cosine=absolute)[0]
            ) / (2 * h)
            fds = (
                von_mises_angle_loss(theta_hat, s + h, theta0, absolute_cosine=absolute)[0]
                - von_mises_angle_loss(theta_hat, s - h, theta0, absolute_cosine=absolute)[0]
            ) / (2 * h)
            worst = max(worst, _rel_err(gt, fdt), _rel_err(gs, fds))
            checked += 1
        variant = "absolute-cosine" if absolute else "plain-cosine"
        report_line(f"5b heading-loss gradients ({variant})", worst <= 1e-5, f"max rel err {worst:.2e} (1000 inputs)")
        assert worst <= 1e-5

    def test_residual_jacobians(self):
        rng = np.random.default_rng(504)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            prob = _Problem(random_noisy_graph(rng))
            poses = prob.p0.copy()
            _, jac = dense_jacobian(prob, poses)
            for rank, node in enumerate(prob.free_nodes):
                for c in range(3):
                    plus = poses.copy()
                    plus[node, c] += h
                    minus = poses.copy()
                    minus[node, c] -= h
                    fd = (prob.residuals(plus) - prob.residuals(minus)) / (2 * h)
                    col = jac[:, 3 * rank + c]
                    err = np.abs(col - fd) / np.maximum(1.0, np.maximum(np.abs(col), np.abs(fd)))
                    worst = max(worst, float(err.max()))
        report_line("5c residual Jacobians", worst <= 1e-5, f"max rel err {worst:.2e} (1000 graphs)")
        assert worst <= 1e-5


class TestCriterion6OracleEquivalence:
    def test_rotated_iou_vs_monte_carlo(self):
        rng = np.random.default_rng(601)
        worst = 0.0
        for _ in range(100):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(2, 6), rng.uniform(1, 3), rng.uniform(-math.pi, math.pi))
            b = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(2, 6), rng.uniform(1, 3), rng.uniform(-math.pi, math.pi))
            got = rotated_iou_bev(OrientedBox2(*a), OrientedBox2(*b))
            estimate = mc_iou(a, b, 1_000_000, rng)
            worst = max(worst, abs(got - estimate))
        report_line("6a IoU vs Monte-Carlo", worst <= 1e-2, f"max abs err {worst:.4f} (100 pairs, 1e6 samples)")
        assert worst <= 1e-2

    def test_ap_vs_bruteforce(self):
        rng = np.random.default_rng(602)
        mismatches = 0
        for _ in range(200):
            n_gt = int(rng.integers(0, 6))
            n_det = int(rng.integers(0, 9))
            gt_params = [(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)), 4.0, 2.0) for _ in range(n_gt)]
            det_params = [
                ((float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)), 4.0, 2.0), float(rng.uniform(0.05, 1.0)))
                for _ in range(n_det)
            ]
            got = average_precision(
                [(OrientedBox2(*p, 0.0), c) for p, c in det_params],
                [OrientedBox2(*p, 0.0) for p in gt_params],
                0.5,
            )
            if got != ap_bruteforce(det_params, gt_params, 0.5):
                mismatches += 1
        report_line("6b AP vs brute force", mismatches == 0, f"{200 - mismatches}/200 instances exactly equal")
        assert mismatches == 0

    def test_clustering_vs_transitive_closure(self):
        rng = np.random.default_rng(603)
        mismatches = 0
        for _ in range(500):
            n = int(rng.integers(0, 13))
            centers = [(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))) for _ in range(n)]
            xs, ys = np.array(centers, dtype=float).reshape(-1, 2).T
            # One agent per box, so no box is split off; both number clusters by smallest member.
            got = _cluster_labels(xs, ys, np.arange(n), np.full(n, 0.5), 2.0).tolist()
            want = [0] * n
            for label, members in enumerate(closure_clusters(centers, 2.0)):
                for i in members:
                    want[i] = label
            if got != want:
                mismatches += 1
        report_line("6c clustering vs closure", mismatches == 0, f"{500 - mismatches}/500 instances equal")
        assert mismatches == 0

    def test_lm_vs_independent_least_squares(self):
        rng = np.random.default_rng(604)
        worst = 0.0
        for _ in range(50):
            graph = random_noisy_graph(rng)
            mine = optimize(graph).objective
            oracle = independent_solver_objective(graph)
            worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1e-30))
        report_line("6d LM vs generic least squares", worst <= 1e-6, f"max rel err {worst:.2e} (50 graphs)")
        assert worst <= 1e-6


class TestCriterion7SolverContract:
    def test_monotonic_and_gauge_fixed_on_benchmark(self, gaussian_benchmark):
        level = gaussian_benchmark["result"].levels[0]
        contract = level.solver_contract
        ok = contract["monotonic_violations"] == 0 and contract["ego_moved"] == 0
        report_line(
            "7 solver contract",
            ok,
            f"monotonic violations {contract['monotonic_violations']}, ego moved {contract['ego_moved']} "
            f"over {level.n_scenes} scenes x 2 solves",
        )
        assert contract["monotonic_violations"] == 0
        assert contract["ego_moved"] == 0


class TestCriterion8Determinism:
    def test_byte_identical_reports(self, gaussian_benchmark, tmp_path):
        rerun = run_benchmark(GAUSSIAN_CONFIG)
        path = tmp_path / "criterion1_rerun.json"
        save_json(rerun.to_dict(), str(path))
        first = gaussian_benchmark["path"].read_bytes()
        second = path.read_bytes()
        ok = first == second
        report_line("8 determinism", ok, f"two runs, {len(first)} bytes each, byte-identical: {ok}")
        assert ok
