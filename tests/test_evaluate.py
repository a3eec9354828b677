"""Fusion and metric tests: AP against brute-force enumeration, NMS behavior,
late fusion and AP against their one-box-at-a-time references, benchmark
report structure and determinism."""

import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import agentpose.evaluate
from agentpose.evaluate import (
    BenchmarkConfig,
    _fuse_rows,
    _ground_truth_columns,
    _pair_errors,
    _ranked_ious,
    _run_scene,
    average_precision,
    histogram_rows,
    late_fuse,
    relative_pose_error,
    run_benchmark,
)
from agentpose.geometry import OrientedBox2, Pose2, compose, inverse, rotated_iou_bev
from agentpose.oracles import ap_bruteforce
from agentpose.posegraph import AgentMessage, build_pose_graph, optimize, relative_poses
from agentpose.scenario import DetectorSpec, NoiseSpec, derive_seed, generate_scene, make_messages, messages_from_dict
from agentpose.uncertainty import BoxDetection

from helpers import box_block, scalar_average_precision, scalar_late_fuse, scalar_pair_errors


def make_box(cx, cy, theta=0.0, confidence=0.8, length=4.0, width=2.0):
    """One block row of a box 1.6 m high."""
    return [cx, cy, 0.0, length, width, 1.6, theta, 0.04, 0.04, 0.01, confidence]


def message(agent_id, rows):
    return AgentMessage(agent_id, Pose2.identity(), box_block(rows))


class TestRelativePoseError:
    def test_exact_match_is_exact_zero(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            p = Pose2(*rng.uniform(-30, 30, 2), rng.uniform(-math.pi, math.pi))
            assert relative_pose_error(p, p) == (0.0, 0.0)

    def test_three_four_five(self):
        trans, rot = relative_pose_error(Pose2(3.0, 4.0, 0.0), Pose2.identity())
        assert trans == pytest.approx(5.0, abs=1e-12)
        assert rot == 0.0

    def test_rotated_frame_example(self):
        # Frozen from the matrix oracle: inverse(T_truth) @ T_est.
        trans, rot = relative_pose_error(Pose2(1.0, 1.0, math.pi / 2), Pose2(1.0, 0.0, math.pi / 2))
        assert trans == pytest.approx(1.0, abs=1e-12)
        assert rot == pytest.approx(0.0, abs=1e-12)

    def test_rotation_in_degrees(self):
        _, rot = relative_pose_error(Pose2(0.0, 0.0, math.radians(30.0)), Pose2.identity())
        assert rot == pytest.approx(30.0, abs=1e-9)


class TestPairErrorsMatchScalar:
    """The column pair errors equal the per-pair Pose2 ones bit for bit, sign of zero included."""

    @staticmethod
    def assert_matches(est, truth):
        (got,) = _pair_errors(truth, est)
        want = scalar_pair_errors(est, truth)
        assert len(got) == len(want) == len(truth) * (len(truth) - 1)
        assert [struct.pack("<2d", *e) for e in got] == [struct.pack("<2d", *e) for e in want]
        return got

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_random_rounds(self, offset):
        rng = np.random.default_rng(120)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            truth = {f"agent{k}": Pose2(*(offset + rng.uniform(-60, 60, 2)), rng.uniform(-3.2, 3.2)) for k in range(n)}
            # Some agents keep their true pose, so some pairs take the exact-match exit.
            est = {
                a: p if rng.random() < 0.3 else Pose2(*(np.array(p.as_tuple()) + rng.normal(0, (0.5, 0.5, 0.02))))
                for a, p in truth.items()
            }
            self.assert_matches(est, truth)

    def test_identical_estimate_and_truth(self):
        rng = np.random.default_rng(121)
        truth = {f"agent{k}": Pose2(*rng.uniform(-60, 60, 2), rng.uniform(-math.pi, math.pi)) for k in range(5)}
        assert set(self.assert_matches(dict(truth), truth)) == {(0.0, 0.0)}

    def test_relative_headings_that_wrap_at_pi(self):
        below_pi = math.nextafter(math.pi, 0.0)
        for t1, e1 in ((math.pi, -below_pi), (math.pi, below_pi), (-below_pi, math.pi), (3.0, -3.0), (0.0, math.pi)):
            for t0 in (0.0, -below_pi, math.pi, 1.0):
                truth = {"a0": Pose2(1.0, 2.0, t0), "a1": Pose2(-4.0, 7.0, t1), "a2": Pose2(0.0, 0.0, -t1)}
                est = {"a0": Pose2(1.0, 2.0, t0), "a1": Pose2(-4.0, 7.0, e1), "a2": Pose2(1e-9, 0.0, -e1)}
                self.assert_matches(est, truth)
                self.assert_matches(truth, est)

    def test_one_agent_has_no_pairs(self):
        assert _pair_errors({"a0": Pose2.identity()}, {"a0": Pose2(1.0, 2.0, 0.3)}) == [[]]

    def test_estimate_sets_in_one_call_match_one_call_each(self):
        rng = np.random.default_rng(122)
        truth = {f"agent{k}": Pose2(*rng.uniform(-60, 60, 2), rng.uniform(-math.pi, math.pi)) for k in range(5)}
        sets = [
            {a: Pose2(*(np.array(p.as_tuple()) + rng.normal(0, (0.5, 0.5, 0.02)))) for a, p in truth.items()}
            for _ in range(3)
        ] + [dict(truth)]
        assert _pair_errors(truth, *sets) == [_pair_errors(truth, est)[0] for est in sets]
        assert _pair_errors(truth) == []


def identity_rel(ids):
    return {aid: Pose2.identity() for aid in ids}


class TestLateFuse:
    def test_single_agent_boxes_unchanged(self):
        boxes = [make_box(3.0, 1.0, 0.2), make_box(20.0, -5.0, -0.7)]
        fused = late_fuse([message("a0", boxes)], identity_rel(["a0"]))
        assert fused == [BoxDetection(*row, agent_id="a0") for row in boxes]

    def test_duplicate_detections_deduplicated(self):
        boxes = [Pose2(5.0, 2.0, 0.3), Pose2(15.0, -4.0, 1.0)]
        msgs = [
            message("a0", [make_box(p.x, p.y, p.theta) for p in boxes]),
            message("a1", [make_box(p.x, p.y, p.theta) for p in boxes]),
        ]
        fused = late_fuse(msgs, identity_rel(["a0", "a1"]))
        assert len(fused) == 2

    def test_low_overlap_pair_kept(self):
        # 2x2 squares at distance 18/11 have IoU exactly 0.10 < 0.15.
        d = 18.0 / 11.0
        msgs = [
            message("a0", [make_box(0.0, 0.0, length=2.0, width=2.0)]),
            message("a1", [make_box(d, 0.0, length=2.0, width=2.0)]),
        ]
        fused = late_fuse(msgs, identity_rel(["a0", "a1"]))
        assert len(fused) == 2

    def test_moderate_overlap_suppressed(self):
        # Distance 4/3 gives IoU 0.20 >= 0.15: lower confidence box dropped.
        d = 4.0 / 3.0
        msgs = [
            message("a0", [make_box(0.0, 0.0, length=2.0, width=2.0, confidence=0.9)]),
            message("a1", [make_box(d, 0.0, length=2.0, width=2.0, confidence=0.5)]),
        ]
        fused = late_fuse(msgs, identity_rel(["a0", "a1"]))
        assert len(fused) == 1
        assert fused[0].confidence == 0.9

    def test_warps_through_relative_pose(self):
        msg = message("a1", [make_box(1.0, 0.0, 0.0)])
        rel = {"a1": Pose2(10.0, 0.0, math.pi / 2)}
        fused = late_fuse([msg], rel)
        assert fused[0].cx == pytest.approx(10.0, abs=1e-12)
        assert fused[0].cy == pytest.approx(1.0, abs=1e-12)

    def test_message_order_invariance(self):
        rng = np.random.default_rng(112)
        msgs = []
        for a in range(3):
            boxes = [
                make_box(
                    float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)), confidence=float(rng.uniform(0.2, 1.0))
                )
                for _ in range(5)
            ]
            msgs.append(message(f"a{a}", boxes))
        rel = identity_rel([m.agent_id for m in msgs])
        fused_fwd = late_fuse(msgs, rel)
        fused_rev = late_fuse(list(reversed(msgs)), rel)
        assert fused_fwd == fused_rev
        # Identity relative poses keep every centre's bits: each kept box names its sender.
        sender = {(row[0], row[1]): m.agent_id for m in msgs for row in m.block.tolist()}
        assert fused_fwd and all(b.agent_id == sender[b.cx, b.cy] for b in fused_fwd)

    def test_missing_relative_pose_rejected(self):
        with pytest.raises(ValueError):
            late_fuse([message("a0", [])], {})

    def test_duplicate_agent_ids_rejected(self):
        # Two messages from one agent would rank their boxes by message order.
        msgs = [
            message("a1", [make_box(0.0, 0.0, confidence=0.5)]),
            message("a1", [make_box(0.5, 0.0, confidence=0.5)]),
        ]
        with pytest.raises(ValueError, match="duplicate agent_id"):
            late_fuse(msgs, identity_rel(["a1"]))


# Circumradius 0.5 * hypot(3, 4) = 2.5 exactly, so two such boxes 5.0 apart have
# exactly tangent circumcircles.
TANGENT = 5.0
NEAR_TANGENT = (np.nextafter(TANGENT, 0.0), TANGENT, np.nextafter(TANGENT, np.inf))


def random_box(rng, cx, cy, confidence):
    return make_box(
        cx, cy, float(rng.uniform(-math.pi, math.pi)), confidence=confidence,
        length=float(rng.uniform(1.0, 6.0)), width=float(rng.uniform(0.5, 3.0)),
    )


def footprint(row):
    return BoxDetection(*row).footprint()


def random_round(rng, offset=0.0):
    """Messages and relative poses whose lifted boxes crowd a 16 m square around
    (offset, -offset); confidences come from a short list, so ties across
    agents are common."""
    n_agents = int(rng.integers(1, 6))
    base = Pose2(offset, -offset, float(rng.uniform(-math.pi, math.pi)))
    msgs, rel = [], {}
    for a in range(n_agents):
        aid = f"a{a}"
        rel[aid] = Pose2(base.x + rng.uniform(-2, 2), base.y + rng.uniform(-2, 2), base.theta + rng.uniform(-0.3, 0.3))
        boxes = [
            random_box(rng, *rng.uniform(-8, 8, 2), float(rng.choice([0.3, 0.5, 0.9])))
            for _ in range(int(rng.integers(0, 9)))
        ]
        msgs.append(message(aid, boxes))
    return msgs, rel


class TestLateFuseMatchesScalar:
    """late_fuse equals the one-box-at-a-time reference, kept boxes and their order."""

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_random_rounds(self, offset):
        rng = np.random.default_rng(115)
        for _ in range(300):
            msgs, rel = random_round(rng, offset)
            nms_iou = float(rng.choice([0.05, 0.15, 0.5, 1.0]))
            assert late_fuse(msgs, rel, nms_iou) == scalar_late_fuse(msgs, rel, nms_iou)

    def test_identical_boxes_from_two_agents(self):
        # Equal footprints take rotated_iou_bev's a == b exit (IoU exactly 1.0).
        rng = np.random.default_rng(116)
        boxes = [random_box(rng, *rng.uniform(-8, 8, 2), 0.7) for _ in range(6)]
        frame = Pose2(3.0, -2.0, 0.4)
        msgs = [message(a, boxes) for a in ("a1", "a0")]
        rel = {"a0": frame, "a1": frame}
        for nms_iou in (0.15, 1.0):
            fused = late_fuse(msgs, rel, nms_iou)
            assert fused == scalar_late_fuse(msgs, rel, nms_iou)
        assert len(fused) == len(boxes)

    @pytest.mark.parametrize("gap", NEAR_TANGENT)
    def test_tangent_circumcircles(self, gap):
        for heading in (0.0, math.atan2(4.0, 3.0), 1.0):
            msgs = [
                message(aid, [make_box(x, 0.0, heading, 0.5, length=3.0, width=4.0)])
                for aid, x in (("a0", 0.0), ("a1", float(gap)))
            ]
            rel = identity_rel(["a0", "a1"])
            assert late_fuse(msgs, rel, 0.01) == scalar_late_fuse(msgs, rel, 0.01)

    def test_candidate_is_clipped_against_kept_box_in_that_order(self):
        # IoU is symmetric only to about 1e-12: at an NMS threshold equal to
        # IoU(candidate, kept) the argument order decides whether it is dropped.
        rng = np.random.default_rng(118)
        while True:
            kept, cand = (random_box(rng, *rng.uniform(-1, 1, 2), conf) for conf in (0.9, 0.5))
            nms_iou = rotated_iou_bev(footprint(cand), footprint(kept))
            if nms_iou > rotated_iou_bev(footprint(kept), footprint(cand)):
                break
        msgs = [message("a0", [cand, kept])]
        fused = late_fuse(msgs, identity_rel(["a0"]), nms_iou)
        assert fused == scalar_late_fuse(msgs, identity_rel(["a0"]), nms_iou)
        assert len(fused) == 1

    def test_empty(self):
        assert late_fuse([], {}) == []
        msgs = [message("a0", []), message("a1", [])]
        assert late_fuse(msgs, identity_rel(["a0", "a1"])) == []


def aab(cx, cy, length=4.0, width=2.0):
    return OrientedBox2(cx, cy, length, width, 0.0)


class TestPairOrder:
    """Late fusion and the AP IoU rows do not depend on the order in which overlap_pairs lists its pairs."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_reversed_pairs_change_nothing(self, monkeypatch, seed):
        scene = generate_scene(6, 40, (120.0, 120.0), seed)
        msgs = make_messages(scene, NoiseSpec("gaussian", 0.6, 0.6), DetectorSpec(), seed)
        ego = scene.agents[0].agent_id
        rel = relative_poses({m.agent_id: m.measured_pose for m in msgs}, ego)
        gt = _ground_truth_columns(scene, ego)

        def outputs():
            rows, senders = _fuse_rows(msgs, rel, 0.15)
            return rows.tobytes(), senders, _ranked_ious(rows[:, [0, 1, 3, 4, 6]], rows[:, 10], gt)

        forward = outputs()
        pairs = agentpose.evaluate.overlap_pairs
        monkeypatch.setattr(agentpose.evaluate, "overlap_pairs", lambda *a: tuple(v[::-1] for v in pairs(*a)))
        assert outputs() == forward
        # The round has boxes that NMS drops and detections that meet a ground truth.
        assert len(forward[1]) < sum(len(m.block) for m in msgs)
        assert sum(len(row) for row in forward[2]) > len(gt) // 2


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [aab(0.0, 0.0), aab(20.0, 0.0)]
        dets = [(aab(0.0, 0.0), 0.3), (aab(20.0, 0.0), 0.9)]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_no_detections(self):
        assert average_precision([], [aab(0.0, 0.0)], 0.5) == 0.0

    def test_both_empty(self):
        assert average_precision([], [], 0.5) == 1.0

    def test_detections_without_ground_truth(self):
        assert average_precision([(aab(0.0, 0.0), 0.9)], [], 0.5) == 0.0

    def test_hand_enumerated_curve(self):
        # TP(0.9), FP(0.8), TP(0.7) over 2 ground truths: AP = 1*0.5 + (2/3)*0.5.
        gts = [aab(0.0, 0.0), aab(20.0, 0.0)]
        dets = [
            (aab(0.0, 0.0), 0.9),
            (aab(50.0, 50.0), 0.8),
            (aab(20.0, 0.0), 0.7),
        ]
        assert average_precision(dets, gts, 0.5) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            gts = [aab(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))) for _ in range(int(rng.integers(1, 5)))]
            dets = [
                (aab(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))), float(rng.uniform(0, 1)))
                for _ in range(int(rng.integers(0, 7)))
            ]
            values = [average_precision(dets, gts, thr) for thr in (0.3, 0.5, 0.7, 0.9)]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(114)
        for _ in range(30):
            n_gt = int(rng.integers(0, 5))
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
            assert got == ap_bruteforce(det_params, gt_params, 0.5)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            average_precision([], [], 0.0)
        with pytest.raises(ValueError):
            average_precision([], [], 1.0)


THRESHOLDS = (0.05, 0.3, 0.5, 0.7, 0.9)


class TestAveragePrecisionMatchesScalar:
    """average_precision equals the greedy match that clips every unmatched ground truth."""

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_random_rotated_boxes(self, offset):
        rng = np.random.default_rng(117)

        def box():
            return footprint(random_box(rng, *(offset + rng.uniform(-8, 8, 2)), 0.5))

        for _ in range(300):
            gts = [box() for _ in range(int(rng.integers(0, 8)))]
            # Detections near ground truth, some exact copies, confidences tied often.
            dets = [(box(), float(rng.choice([0.3, 0.5, 0.9]))) for _ in range(int(rng.integers(0, 8)))]
            dets += [(g, 0.5) for g in gts if rng.random() < 0.3]
            for thr in THRESHOLDS:
                assert average_precision(dets, gts, thr) == scalar_average_precision(dets, gts, thr)

    @pytest.mark.parametrize("gap", NEAR_TANGENT)
    def test_tangent_circumcircles(self, gap):
        for heading in (0.0, math.atan2(4.0, 3.0), 1.0):
            gts = [OrientedBox2(0.0, 0.0, 3.0, 4.0, heading), OrientedBox2(float(gap) + 1.0, 0.0, 3.0, 4.0, heading)]
            dets = [(OrientedBox2(float(gap), 0.0, 3.0, 4.0, heading), 0.8), (gts[0], 0.8)]
            for thr in THRESHOLDS:
                assert average_precision(dets, gts, thr) == scalar_average_precision(dets, gts, thr)

    def test_detection_is_clipped_against_ground_truth_in_that_order(self):
        rng = np.random.default_rng(119)
        while True:
            det, gt = (footprint(random_box(rng, *rng.uniform(-1, 1, 2), 0.5)) for _ in range(2))
            thr = rotated_iou_bev(det, gt)
            if 0.0 < rotated_iou_bev(gt, det) < thr < 1.0:
                break
        assert average_precision([(det, 0.5)], [gt], thr) == scalar_average_precision([(det, 0.5)], [gt], thr) == 1.0

    def test_equal_ious_go_to_the_first_ground_truth(self):
        # The first ground truth lies last in x, where the pair search meets it last.
        gts = [aab(2.0, 0.0), aab(-2.0, 0.0)]
        dets = [(aab(0.0, 0.0), 0.9), (aab(3.0, 0.0), 0.8)]
        assert rotated_iou_bev(dets[0][0], gts[0]) == rotated_iou_bev(dets[0][0], gts[1]) > 0.0
        assert average_precision(dets, gts, 0.3) == scalar_average_precision(dets, gts, 0.3) == 0.5

    def test_benchmark_scenes_score_every_threshold_from_one_match_table(self):
        config = BenchmarkConfig(seed=36, scenes=4, noise_grid=((0.6, 0.6),), ap_thresholds=THRESHOLDS)
        for idx in range(config.scenes):
            scene = generate_scene(
                config.num_agents, config.num_objects, area=config.area, seed=derive_seed(config.seed, "scene", idx),
                extent=config.extent, min_object_gap=config.min_object_gap,
            )
            messages = make_messages(scene, config.noise_at(0), config.detector, derive_seed(config.seed, "msgs", 0, idx))
            ego = scene.agents[0].agent_id
            result = optimize(build_pose_graph(messages, ego, config.cluster_gap), config.solver)
            # Ground truth in the ego frame, one compose per object.
            frame = inverse(scene.agent(ego).pose)
            local = [(compose(frame, o.pose), o) for o in scene.objects]
            gts = [OrientedBox2(p.x, p.y, o.length, o.width, p.theta) for p, o in local]
            poses = {
                "corrected": result.agent_poses,
                "uncorrected": {m.agent_id: m.measured_pose for m in messages},
            }
            want = {
                f"{thr:g}": {
                    kind: scalar_average_precision(
                        [(b.footprint(), b.confidence) for b in scalar_late_fuse(messages, relative_poses(p, ego), config.nms_iou)],
                        gts,
                        thr,
                    )
                    for kind, p in poses.items()
                }
                for thr in THRESHOLDS
            }
            assert _run_scene(config, 0, idx)["ap"] == want


class TestRunBenchmark:
    def test_report_structure(self):
        config = BenchmarkConfig(seed=31, scenes=4, noise_grid=((0.2, 0.2), (0.6, 0.6)))
        result = run_benchmark(config)
        assert result.status == "clean"
        assert len(result.levels) == 2
        for level in result.levels:
            for series in ("before", "after_graph", "after_weighted"):
                assert len(level.trans_errors[series]) == 4 * 4 * 3  # scenes * ordered pairs
            assert set(level.ap) == {"0.5", "0.7"}
            assert level.solver_contract["monotonic_violations"] == 0
            assert level.solver_contract["ego_moved"] == 0

    def test_correction_improves_noisy_level(self):
        config = BenchmarkConfig(seed=32, scenes=10, noise_grid=((0.6, 0.6),))
        level = run_benchmark(config).levels[0]
        assert level.median_reduction_ratio["translation"] < 1.0
        assert level.median_reduction_ratio["rotation"] < 1.0

    def test_zero_noise_level_degenerate(self):
        config = BenchmarkConfig(
            seed=33,
            scenes=4,
            noise_grid=((0.0, 0.0),),
            detector=DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0),
        )
        level = run_benchmark(config).levels[0]
        assert level.degenerate_before
        assert level.median_reduction_ratio == {"translation": None, "rotation": None}
        for pair in level.ap.values():
            assert pair["corrected"] == pair["uncorrected"]
        assert max(level.trans_errors["after_weighted"], default=0.0) <= 1e-8

    def test_deterministic_including_threads(self):
        config = BenchmarkConfig(seed=34, scenes=6, noise_grid=((0.4, 0.4),))
        a = json.dumps(run_benchmark(config).to_dict(), sort_keys=True)
        b = json.dumps(run_benchmark(config).to_dict(), sort_keys=True)
        c = json.dumps(run_benchmark(config, threads=2).to_dict(), sort_keys=True)
        assert a == b == c

    def test_serial_run_loads_no_process_pool(self):
        # The pool is imported on first use, so importing the package and a
        # serial run leave multiprocessing unloaded.
        code = (
            "import sys, agentpose\n"
            "from agentpose.evaluate import BenchmarkConfig, run_benchmark\n"
            "run_benchmark(BenchmarkConfig(seed=36, scenes=4))\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
        )
        src = str(Path(agentpose.evaluate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_infeasible_scenes_recorded_as_skips(self, monkeypatch):
        config = BenchmarkConfig(seed=35, scenes=2, num_objects=500, area=(20.0, 20.0), noise_grid=((0.2, 0.2),))
        result = run_benchmark(config)
        assert result.status == "partial"
        level = result.levels[0]
        assert len(level.skipped) == 2
        assert "infeasible packing" in level.skipped[0][1]
        # A level with no completed scene pools to zeros.
        assert level.solver_contract == {"monotonic_violations": 0, "ego_moved": 0, "nonconverged": 0}
        assert level.ap == {thr: {"corrected": 0.0, "uncorrected": 0.0} for thr in ("0.5", "0.7")}
        zero = {"p25": 0.0, "median": 0.0, "p75": 0.0}
        series = ("before", "after_graph", "after_weighted")
        assert level.quantiles == {s: {"translation": zero, "rotation": zero} for s in series}
        assert level.median_reduction_ratio == {"translation": None, "rotation": None}
        assert level.degenerate_before

        # Scenes 3 and 4 of this config cannot be packed. Every solve breaks all
        # three solver contracts, so each completed scene adds 2 to each counter.
        def broken(graph, params=None):
            res = optimize(graph, params)
            moved = dict(res.agent_poses)
            moved[graph.ego_id] = Pose2(1.0, 2.0, 0.5)
            trace = (*res.objective_trace, res.objective + 1.0)
            return replace(res, agent_poses=moved, converged=False, objective_trace=trace)

        monkeypatch.setattr(agentpose.evaluate, "optimize", broken)
        config = BenchmarkConfig(seed=35, scenes=6, num_objects=26, area=(30.0, 30.0), noise_grid=((0.2, 0.2),))
        level = run_benchmark(config).levels[0]
        assert [i for i, _ in level.skipped] == [3, 4]
        assert level.n_scenes == 6
        assert level.solver_contract == {"monotonic_violations": 8, "ego_moved": 8, "nonconverged": 8}
        assert len(level.trans_errors["before"]) == 4 * 4 * 3
        records = [_run_scene(config, 0, i) for i in (0, 1, 2, 5)]
        assert level.ap == {
            thr: {kind: sum(rec["ap"][thr][kind] for rec in records) / 4 for kind in ("corrected", "uncorrected")}
            for thr in ("0.5", "0.7")
        }

    def test_seed_required(self):
        with pytest.raises(TypeError):
            BenchmarkConfig()  # type: ignore[call-arg]

    def test_whole_number_counts(self):
        config = BenchmarkConfig(seed=7.0, scenes=100.0, num_agents=4.0, num_objects=10.0)
        assert config == BenchmarkConfig(seed=7)
        assert [type(v) for v in (config.seed, config.scenes, config.num_agents, config.num_objects)] == [int] * 4
        for bad in (
            {"scenes": 2.7}, {"num_agents": 3.5}, {"num_objects": 9.5}, {"seed": 2.7}, {"seed": -1},
            {"seed": True}, {"scenes": True},  # JSON true is not a number
        ):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be a whole number"):
                BenchmarkConfig(**{"seed": 1, **bad})

    # A JSON value that is not what its field holds: true is not a number, and a
    # string is not a list (it was read as its digits), nor is a level of three values.
    # Two AP thresholds that print alike under :g would share one report key.
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: BenchmarkConfig(seed=1, cluster_gap=True), "cluster_gap must be a number, got True"),
            (lambda: BenchmarkConfig(seed=1, noise_grid=((True, 0.6),)), "noise_grid[0][0] must be a number, got True"),
            (lambda: DetectorSpec(miss_rate=True), "miss_rate must be a number, got True"),
            (lambda: BenchmarkConfig(seed=1, extent="99"), "extent must be a list of 2 values, got '99'"),
            (lambda: BenchmarkConfig(seed=1, area="12"), "area must be a list of 2 values, got '12'"),
            (lambda: BenchmarkConfig(seed=1, noise_grid=["06"]), "noise_grid[0] must be a list of 2 values, got '06'"),
            (
                lambda: BenchmarkConfig(seed=1, noise_grid=[[0.1, 0.2, 0.3]]),
                "noise_grid[0] must be a list of 2 values, got [0.1, 0.2, 0.3]",
            ),
            (lambda: DetectorSpec(noise_scale_choices="25"), "noise_scale_choices must be a list, got '25'"),
            (
                lambda: BenchmarkConfig(seed=1, ap_thresholds=(0.3, 0.5, 0.7, 0.5000001)),
                "ap_thresholds[1] and ap_thresholds[3] share the report key '0.5', got 0.5 and 0.5000001",
            ),
            (
                lambda: BenchmarkConfig(seed=1, ap_thresholds=[0.7, 0.7]),
                "ap_thresholds[0] and ap_thresholds[1] share the report key '0.7', got 0.7 and 0.7",
            ),
            (
                lambda: messages_from_dict(
                    {
                        "type": "messages",
                        "version": 1,
                        "messages": [
                            {
                                "agent_id": "a0",
                                "measured_pose": [0, 0, 0],
                                "boxes": [{"b": "1111111111", "confidence": 0.8}],
                            }
                        ],
                    }
                ),
                "box vector b must be a list of 10 values, got '1111111111'",
            ),
        ],
        ids=[
            "cluster_gap", "noise_grid", "miss_rate", "extent_text", "area_text", "noise_grid_text",
            "noise_grid_three_values", "noise_scale_choices_text", "ap_thresholds_same_key", "ap_thresholds_repeated",
            "box_vector_text",
        ],
    )
    def test_misread_value_is_named(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make()

    def test_worker_count_is_a_whole_number(self):
        with pytest.raises(ValueError, match="^threads must be a whole number >= 1"):
            run_benchmark(BenchmarkConfig(seed=1, scenes=1), threads=0)


class TestHistograms:
    def test_rows_have_three_series(self):
        config = BenchmarkConfig(seed=36, scenes=3, noise_grid=((0.4, 0.4),))
        level = run_benchmark(config).levels[0]
        rows = histogram_rows(level, "translation", bins=10)
        series = {row[3] for row in rows}
        assert series == {"before", "after-graph", "after-graph+uncertainty"}
        assert len(rows) == 30
        # Bins tile [0, max] without gaps.
        for i in range(9):
            assert rows[i][1] == rows[i + 1][0]

    def test_density_normalized(self):
        config = BenchmarkConfig(seed=36, scenes=3, noise_grid=((0.4, 0.4),))
        level = run_benchmark(config).levels[0]
        rows = histogram_rows(level, "rotation", bins=20)
        for label in ("before", "after-graph", "after-graph+uncertainty"):
            mass = sum((r[1] - r[0]) * r[2] for r in rows if r[3] == label)
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_unknown_metric_rejected(self):
        config = BenchmarkConfig(seed=36, scenes=2, noise_grid=((0.2, 0.2),))
        level = run_benchmark(config).levels[0]
        with pytest.raises(ValueError):
            histogram_rows(level, "speed")
