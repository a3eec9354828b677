"""Scenario tests: determinism, packing, noise statistics, detector
calibration, the scalar references of placement and detection, and the JSON
wire formats."""

import json
import math

import numpy as np
import pytest

from agentpose.geometry import Pose2, compose, inverse
from agentpose.posegraph import AgentMessage
from agentpose.scenario import (
    DetectorSpec,
    NoiseSpec,
    ScenarioError,
    Scene,
    SceneAgent,
    SceneObject,
    _detect_block,
    _object_columns,
    corrupt_pose,
    derive_seed,
    generate_scene,
    make_messages,
    messages_from_dict,
    messages_to_dict,
    scene_from_dict,
    scene_to_dict,
)
from agentpose.uncertainty import BoxDetection
from helpers import box_block, scalar_detect, scalar_generate_scene


# Half sides of the areas the tests and perfbench place in, as generate_scene
# computes them, for the stream identities below.
HALF_SIDES = [0.5 * float(v) for v in (100.0, 75.0, 120.0, 200.0, 150.0, 240.0, 180.0, 30.0, 22.5, 1.0e6, 1.0e150)]
NORMAL_SCALES = (0.0, 5e-324, 0.05, 0.2, 3.0, 1e3)


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestStreamIdentities:
    """The bare draws the simulator makes give the numbers of the calls it replaced.

    generate_scene writes rng.uniform(lo, hi) as lo + (hi - lo) * rng.random(),
    and the detector and corrupt_pose write rng.normal(0.0, s) as
    0.0 + s * rng.standard_normal(). Both hold bit for bit on the streams'
    interleaving; a NumPy release that breaks one fails here by name.
    """

    def test_uniform_is_scaled_random(self):
        pairs = [(-h, h) for h in HALF_SIDES] + [(-math.pi, math.pi), (3.8, 5.2), (1.7, 2.1)]
        a, b = np.random.default_rng(101), np.random.default_rng(101)
        want, got = [], []
        for k in range(120_000):
            lo, hi = pairs[k % len(pairs)]
            want.append(a.uniform(lo, hi))
            got.append(lo + (hi - lo) * b.random())
        assert bits(got) == bits(want), f"uniform(lo, hi) != lo + (hi - lo) * random() on NumPy {np.__version__}"
        assert a.bit_generator.state == b.bit_generator.state

    def test_normal_is_scaled_standard_normal(self):
        a, b = np.random.default_rng(102), np.random.default_rng(102)
        want, got = [], []
        for k in range(120_000):
            scale = NORMAL_SCALES[k % len(NORMAL_SCALES)]
            want.append(a.normal(0.0, scale))
            got.append(0.0 + scale * b.standard_normal())
            if k % 5 == 0:  # the detector's miss draw sits between the normals
                want.append(a.random())
                got.append(b.random())
        assert bits(got) == bits(want), f"normal(0.0, s) != 0.0 + s * standard_normal() on NumPy {np.__version__}"
        assert a.bit_generator.state == b.bit_generator.state

    def test_vector_standard_normal_is_three_scalar_draws(self):
        a, b = np.random.default_rng(103), np.random.default_rng(103)
        want, got = [], []
        for _ in range(40_000):
            want += [a.standard_normal(), a.standard_normal(), a.standard_normal(), a.random()]
            got += b.standard_normal(3).tolist() + [b.random()]
        assert bits(got) == bits(want), f"standard_normal(3) != three standard_normal() on NumPy {np.__version__}"

    def test_zero_scale_normal_consumes_one_draw(self):
        a, b, fresh = (np.random.default_rng(104) for _ in range(3))
        assert a.normal(0.0, 0.0) == 0.0
        b.standard_normal()
        assert a.bit_generator.state == b.bit_generator.state != fresh.bit_generator.state, (
            f"normal(0.0, 0.0) does not consume one standard normal on NumPy {np.__version__}"
        )


class TestGenerateScene:
    def test_empty_objects(self):
        scene = generate_scene(1, 0, seed=7)
        assert len(scene.agents) == 1
        assert scene.objects == ()

    def test_deterministic(self):
        a = generate_scene(4, 10, area=(100.0, 100.0), seed=3)
        b = generate_scene(4, 10, area=(100.0, 100.0), seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_scene(2, 3, seed=1)
        b = generate_scene(2, 3, seed=2)
        assert a != b

    def test_pairwise_object_gaps(self):
        scene = generate_scene(4, 10, area=(100.0, 100.0), seed=1)
        objs = scene.objects
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                gap = math.hypot(objs[i].pose.x - objs[j].pose.x, objs[i].pose.y - objs[j].pose.y)
                assert gap >= 5.0

    def test_agents_inside_area(self):
        scene = generate_scene(6, 0, area=(50.0, 30.0), seed=9)
        for agent in scene.agents:
            assert abs(agent.pose.x) <= 25.0
            assert abs(agent.pose.y) <= 15.0

    def test_infeasible_packing_rejected(self):
        with pytest.raises(ScenarioError, match="infeasible packing"):
            generate_scene(1, 200, area=(20.0, 20.0), seed=0)

    def test_unique_ids(self):
        scene = generate_scene(3, 5, seed=4)
        ids = [a.agent_id for a in scene.agents] + [o.object_id for o in scene.objects]
        assert len(set(ids)) == len(ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_scene(0, 1, seed=0)
        with pytest.raises(ValueError):
            generate_scene(1, 1, area=(0.0, 10.0), seed=0)
        for gap in (-50.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="min_object_gap"):
                generate_scene(1, 2, seed=0, min_object_gap=gap)

    @pytest.mark.parametrize("side", [math.nan, math.inf, -math.inf])
    def test_non_finite_area_and_extent_rejected(self, side):
        with pytest.raises(ValueError, match="area must be two positive finite values"):
            generate_scene(1, 1, (side, 5.0))
        with pytest.raises(ValueError, match="area must be two positive finite values"):
            generate_scene(1, 1, (5.0, side))
        agents = (SceneAgent("a0", Pose2.identity()),)
        for extent in ((side, 5.0), (5.0, side)):
            with pytest.raises(ValueError, match="extent must be two positive finite values"):
                Scene(agents=agents, objects=(), extent=extent)

    @pytest.mark.parametrize("pair", [(50.0, 60.0, 70.0), (50.0,), ()])
    def test_area_and_extent_need_exactly_two_values(self, pair):
        with pytest.raises(ValueError, match="area must be two positive finite values"):
            generate_scene(2, 3, area=pair, seed=1)
        with pytest.raises(ValueError, match="extent must be two positive finite values"):
            generate_scene(2, 3, extent=pair, seed=1)
        with pytest.raises(ValueError, match="extent must be two positive finite values"):
            Scene(agents=(SceneAgent("a0", Pose2.identity()),), objects=(), extent=pair)


class TestPlacementMatchesScalar:
    """generate_scene's grid test places the objects that testing every placed one would."""

    @pytest.mark.parametrize(
        "agents, objects, side, gap",
        [(4, 10, 100.0, 5.0), (12, 200, 200.0, 5.0), (16, 400, 240.0, 5.0), (3, 40, 30.0, 0.0),
         (3, 30, 40.0, 1e-3), (2, 60, 50.0, 4.9), (2, 30, 1.0e6, 1.0e5), (2, 30, 1.0e150, 1.0e-160)],
    )
    def test_scenes_equal(self, agents, objects, side, gap):
        def outcome(generate, args):
            try:
                return generate(*args)
            except ScenarioError as exc:
                return str(exc)

        for seed in range(12):
            args = (agents, objects, (side, 0.75 * side), seed, (140.0, 140.0), gap)
            assert outcome(generate_scene, args) == outcome(scalar_generate_scene, args)

    def test_benchmark_shape(self):
        # perfbench's large rounds: 12 agents and 200 objects in 200 x 200 m.
        for seed in range(6):
            args = (12, 200, (200.0, 200.0), seed, (140.0, 140.0), 5.0)
            assert generate_scene(*args) == scalar_generate_scene(*args)

    def test_infeasible_packing_error_unchanged(self):
        for seed in range(3):
            args = (1, 60, (30.0, 30.0), seed, (140.0, 140.0), 5.0)
            with pytest.raises(ScenarioError) as scalar:
                scalar_generate_scene(*args)
            with pytest.raises(ScenarioError) as grid:
                generate_scene(*args)
            assert str(grid.value) == str(scalar.value)


class TestCorruptPose:
    def test_zero_scales_exact(self):
        pose = Pose2(3.123456789, -2.987654321, 0.777)
        rng = np.random.default_rng(0)
        out = corrupt_pose(pose, NoiseSpec(), rng)
        assert out.as_tuple() == pose.as_tuple()

    def test_gaussian_translation_scale(self):
        rng = np.random.default_rng(101)
        noise = NoiseSpec(kind="gaussian", trans_scale=0.6, rot_scale=0.0)
        draws = np.array([corrupt_pose(Pose2.identity(), noise, rng).x for _ in range(100_000)])
        assert draws.std() == pytest.approx(0.6, abs=0.01)

    def test_laplace_translation_scale(self):
        # Laplace with scale b has variance 2 b^2.
        rng = np.random.default_rng(102)
        noise = NoiseSpec(kind="laplace", trans_scale=0.6, rot_scale=0.0)
        draws = np.array([corrupt_pose(Pose2.identity(), noise, rng).x for _ in range(100_000)])
        assert draws.std() == pytest.approx(0.6 * math.sqrt(2.0), abs=0.02)

    def test_rotation_scale_in_degrees(self):
        rng = np.random.default_rng(103)
        noise = NoiseSpec(kind="gaussian", trans_scale=0.0, rot_scale=2.0)
        draws = np.array([corrupt_pose(Pose2.identity(), noise, rng).theta for _ in range(100_000)])
        assert draws.std() == pytest.approx(math.radians(2.0), abs=math.radians(0.05))

    def test_doubling_scale_doubles_sd(self):
        sds = []
        for scale in (0.3, 0.6):
            rng = np.random.default_rng(104)
            noise = NoiseSpec(trans_scale=scale)
            sds.append(np.array([corrupt_pose(Pose2.identity(), noise, rng).x for _ in range(100_000)]).std())
        assert sds[1] / sds[0] == pytest.approx(2.0, abs=0.02)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="cauchy")
        with pytest.raises(ValueError):
            NoiseSpec(trans_scale=-0.1)


def one_object_scene(object_pose=Pose2(20.0, 5.0, 0.8)) -> Scene:
    return Scene(
        agents=(SceneAgent("a0", Pose2(1.0, -2.0, 0.4)),),
        objects=(SceneObject("o0", object_pose, 4.4, 1.9),),
        extent=(140.0, 140.0),
    )


def detector_inputs(scene):
    """The first three arguments of _detect_block for the scene's first agent."""
    return _object_columns(scene), scene.agents[0].pose, scene.extent


class TestDetect:
    """_detect_block, which make_messages runs for every agent; a row per box."""

    def test_zero_noise_reprojects_exactly(self):
        scene = one_object_scene()
        spec = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        block = _detect_block(*detector_inputs(scene), spec, np.random.default_rng(0))
        assert block.shape == (1, 11)
        world = compose(scene.agents[0].pose, Pose2(block[0, 0], block[0, 1], block[0, 6]))
        obj = scene.objects[0].pose
        assert abs(world.x - obj.x) <= 1e-10
        assert abs(world.y - obj.y) <= 1e-10
        assert abs(world.theta - obj.theta) <= 1e-10
        assert block[0, 3] == scene.objects[0].length

    def test_miss_rate_one_empty(self):
        spec = DetectorSpec(miss_rate=1.0)
        assert _detect_block(*detector_inputs(one_object_scene()), spec, np.random.default_rng(1)).shape == (0, 11)

    def test_out_of_range_excluded(self):
        scene = Scene(
            agents=(SceneAgent("a0", Pose2.identity()),),
            objects=(SceneObject("o0", Pose2(50.0, 0.0, 0.0), 4.0, 2.0),),
            extent=(140.0, 140.0),
        )
        spec = DetectorSpec(detection_range=30.0)
        assert _detect_block(*detector_inputs(scene), spec, np.random.default_rng(2)).shape == (0, 11)

    def test_extent_rectangle_excluded(self):
        scene = Scene(
            agents=(SceneAgent("a0", Pose2.identity()),),
            objects=(SceneObject("o0", Pose2(10.0, 60.0, 0.0), 4.0, 2.0),),
            extent=(140.0, 40.0),
        )
        assert _detect_block(*detector_inputs(scene), DetectorSpec(), np.random.default_rng(3)).shape == (0, 11)

    def test_center_noise_statistics(self):
        inputs = detector_inputs(one_object_scene())
        spec = DetectorSpec(center_noise_sd=0.2, heading_noise_sd=0.0)
        rng = np.random.default_rng(105)
        exact = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        clean = _detect_block(*inputs, exact, np.random.default_rng(0))
        errs = [_detect_block(*inputs, spec, rng)[0, 0] - clean[0, 0] for _ in range(10_000)]
        assert np.std(errs) == pytest.approx(0.2, abs=0.01)

    def test_variance_calibration_unit(self):
        # Standardized residuals should have unit variance when calibration is 1.
        inputs = detector_inputs(one_object_scene())
        spec = DetectorSpec(center_noise_sd=0.3, heading_noise_sd=0.05, variance_calibration=1.0)
        rng = np.random.default_rng(106)
        exact = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        clean = _detect_block(*inputs, exact, np.random.default_rng(0))
        z = []
        for _ in range(10_000):
            cx, cy, _, _, _, _, _, var_x, var_y, _, _ = _detect_block(*inputs, spec, rng)[0]
            z.append((cx - clean[0, 0]) / math.sqrt(var_x))
            z.append((cy - clean[0, 1]) / math.sqrt(var_y))
        assert np.var(z) == pytest.approx(1.0, abs=0.05)

    def test_reported_variance_scales_with_calibration(self):
        inputs = detector_inputs(one_object_scene())
        rng = np.random.default_rng(107)
        block = _detect_block(*inputs, DetectorSpec(center_noise_sd=0.2, variance_calibration=2.0), rng)
        assert block[0, 7] == pytest.approx(2.0 * 0.04, abs=1e-12)

    def test_variance_floor_applies_at_zero_noise(self):
        inputs = detector_inputs(one_object_scene())
        spec = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        block = _detect_block(*inputs, spec, np.random.default_rng(0))
        assert block[0, 7] > 0.0 and block[0, 9] > 0.0

    def test_confidence_decays_with_distance(self):
        near = one_object_scene(Pose2(5.0, -1.0, 0.0))
        far = one_object_scene(Pose2(100.0, 30.0, 0.0))
        spec = DetectorSpec(center_noise_sd=0.0, heading_noise_sd=0.0)
        c_near, c_far = (_detect_block(*detector_inputs(s), spec, np.random.default_rng(0))[0, 10] for s in (near, far))
        assert 0.0 <= c_far < c_near <= 1.0

    def test_heteroscedastic_choices(self):
        inputs = detector_inputs(one_object_scene())
        spec = DetectorSpec(center_noise_sd=1.0, heading_noise_sd=0.25, noise_scale_choices=(0.1, 0.5))
        rng = np.random.default_rng(108)
        seen = {round(float(_detect_block(*inputs, spec, rng)[0, 7]), 12) for _ in range(200)}
        assert seen == {round(0.1**2, 12), round(0.5**2, 12)}

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError):
            one_object_scene().agent("ghost")


class TestMakeMessages:
    def test_zero_noise_measured_equals_true(self):
        scene = generate_scene(3, 4, seed=11)
        for msg in make_messages(scene, NoiseSpec(), DetectorSpec(), seed=5):
            true = scene.agent(msg.agent_id).pose
            assert msg.measured_pose.as_tuple() == true.as_tuple()

    def test_deterministic(self):
        scene = generate_scene(3, 4, seed=11)
        noise = NoiseSpec(trans_scale=0.4, rot_scale=0.4)
        a = make_messages(scene, noise, DetectorSpec(), seed=5)
        b = make_messages(scene, noise, DetectorSpec(), seed=5)
        assert a == b

    def test_per_agent_substreams_match_oracle(self):
        # Recompute one agent's draws from its derived streams directly.
        scene = generate_scene(3, 4, seed=11)
        noise = NoiseSpec(trans_scale=0.2, rot_scale=0.2)
        messages = make_messages(scene, noise, DetectorSpec(), seed=77)
        agent = scene.agents[1]
        pose_rng = np.random.default_rng(derive_seed(77, agent.agent_id, "pose"))
        expected = corrupt_pose(agent.pose, noise, pose_rng)
        assert messages[1].measured_pose.as_tuple() == expected.as_tuple()
        det_rng = np.random.default_rng(derive_seed(77, agent.agent_id, "detect"))
        block = _detect_block(_object_columns(scene), agent.pose, scene.extent, DetectorSpec(), det_rng)
        assert messages[1] == AgentMessage(agent.agent_id, expected, block)

    def test_adding_agent_does_not_perturb_others(self):
        base_agents = (
            SceneAgent("a0", Pose2(0.0, 0.0, 0.1)),
            SceneAgent("a1", Pose2(10.0, 5.0, -0.7)),
        )
        objects = (
            SceneObject("o0", Pose2(5.0, 2.0, 0.4), 4.2, 1.8),
            SceneObject("o1", Pose2(12.0, -6.0, 1.2), 4.8, 2.0),
        )
        small = Scene(agents=base_agents, objects=objects)
        big = Scene(agents=base_agents + (SceneAgent("a2", Pose2(-8.0, 3.0, 2.0)),), objects=objects)
        noise = NoiseSpec(trans_scale=0.5, rot_scale=0.5)
        msgs_small = make_messages(small, noise, DetectorSpec(), seed=13)
        msgs_big = make_messages(big, noise, DetectorSpec(), seed=13)
        assert msgs_small[0] == msgs_big[0]
        assert msgs_small[1] == msgs_big[1]


# Detector and pose-noise variants of the draw-order oracle: misses, per-box
# scale choices, over-reported variances and Laplace pose noise.
DETECTOR_VARIANTS = [
    (DetectorSpec(), NoiseSpec("gaussian", 0.6, 0.6)),
    (DetectorSpec(miss_rate=0.2, detection_range=90.0), NoiseSpec("laplace", 0.6, 0.6)),
    (DetectorSpec(miss_rate=0.3, noise_scale_choices=(0.5, 1.0, 2.0)), NoiseSpec("gaussian", 0.4, 0.4)),
    (DetectorSpec(variance_calibration=2.0, center_noise_sd=0.0), NoiseSpec("laplace", 1.0, 2.0)),
]


class TestMessagesMatchScalar:
    """make_messages draws every random number that the per-object detector loop draws, in its order."""

    @staticmethod
    def assert_round_matches(scene, noise, det, seed):
        messages = make_messages(scene, noise, det, seed)
        assert [m.agent_id for m in messages] == [a.agent_id for a in scene.agents]
        for agent, msg in zip(scene.agents, messages):
            pose_rng = np.random.default_rng(derive_seed(seed, agent.agent_id, "pose"))
            det_rng = np.random.default_rng(derive_seed(seed, agent.agent_id, "detect"))
            assert msg.measured_pose.as_tuple() == corrupt_pose(agent.pose, noise, pose_rng).as_tuple()
            assert msg.block.tobytes() == box_block(scalar_detect(scene, agent.agent_id, det, det_rng)).tobytes()
        return messages

    @pytest.mark.parametrize("variant", range(len(DETECTOR_VARIANTS)))
    def test_blocks_and_measured_poses_bit_identical(self, variant):
        det, noise = DETECTOR_VARIANTS[variant]
        for seed in range(200):
            scene = generate_scene(5, 12, area=(220.0, 160.0), seed=seed, extent=(90.0, 60.0))
            self.assert_round_matches(scene, noise, det, seed)

    @pytest.mark.parametrize("variant", range(len(DETECTOR_VARIANTS)))
    def test_benchmark_shape(self, variant):
        # perfbench's large rounds: 12 agents, 200 objects, 200 x 200 m, extent 140 m, gap 5 m.
        det, noise = DETECTOR_VARIANTS[variant]
        for seed in range(4):
            scene = generate_scene(12, 200, area=(200.0, 200.0), seed=seed, extent=(140.0, 140.0), min_object_gap=5.0)
            self.assert_round_matches(scene, noise, det, seed)

    def test_benchmark_shape_all_missed_and_exact_headings(self):
        scene = generate_scene(12, 200, area=(200.0, 200.0), seed=5, extent=(140.0, 140.0), min_object_gap=5.0)
        noise = NoiseSpec("gaussian", 0.6, 0.6)
        missed = self.assert_round_matches(scene, noise, DetectorSpec(miss_rate=1.0), 5)
        assert [m.block.shape for m in missed] == [(0, 11)] * 12
        exact = self.assert_round_matches(scene, noise, DetectorSpec(heading_noise_sd=0.0), 5)
        assert sum(len(m.block) for m in exact) > 1000
        for agent, msg in zip(scene.agents, exact):
            expected = [compose(inverse(agent.pose), o.pose).theta for o in scene.objects]
            assert set(msg.block[:, 6].tolist()) <= set(expected)

    def test_signed_zero_detector_values_send_no_negative_zero(self):
        # DetectorSpec stores -0.0 sds and base_confidence as 0.0, so neither the
        # scalar clamp max(-0.0, 0.0) nor the column one ever sees a -0.0.
        scene = generate_scene(3, 20, area=(150.0, 150.0), seed=6)
        det = DetectorSpec(center_noise_sd=-0.0, heading_noise_sd=-0.0, base_confidence=-0.0, confidence_decay=0.0)
        for name in ("center_noise_sd", "heading_noise_sd", "base_confidence"):
            assert math.copysign(1.0, getattr(det, name)) == 1.0
        messages = self.assert_round_matches(scene, NoiseSpec(), det, 6)
        assert sum(len(m.block) for m in messages) > 0
        numbers = []
        json.loads(json.dumps(messages_to_dict(messages)), parse_float=lambda text: numbers.append(text) or float(text))
        assert "0.0" in numbers and not [t for t in numbers if float(t) == 0.0 and t.startswith("-")]

    def test_detect_is_the_view_of_the_block(self):
        scene = generate_scene(3, 20, area=(150.0, 150.0), seed=4)
        det = DETECTOR_VARIANTS[2][0]
        objects = _object_columns(scene)
        for agent in scene.agents:
            rng_a, rng_b = (np.random.default_rng(derive_seed(4, agent.agent_id, "detect")) for _ in range(2))
            msg = AgentMessage(agent.agent_id, agent.pose, _detect_block(objects, agent.pose, scene.extent, det, rng_a))
            rows = scalar_detect(scene, agent.agent_id, det, rng_b)
            assert msg.boxes == tuple(BoxDetection(*row, agent_id=agent.agent_id) for row in rows)

    def test_extent_and_range_boundaries_are_inside(self):
        objects = tuple(
            SceneObject(f"o{k}", Pose2(x, y, 0.0), 4.0, 2.0)
            for k, (x, y) in enumerate([(140.0, 0.0), (0.0, -130.0), (-90.0, 120.0), (140.5, 0.0), (0.0, 130.5), (120.0, 91.0)])
        )
        scene = Scene(agents=(SceneAgent("a0", Pose2.identity()),), objects=objects, extent=(140.0, 130.0))
        spec = DetectorSpec(detection_range=150.0)
        block = _detect_block(*detector_inputs(scene), spec, np.random.default_rng(0))
        assert block.tobytes() == box_block(scalar_detect(scene, "a0", spec, np.random.default_rng(0))).tobytes()
        assert len(block) == 3

    def test_no_objects(self):
        messages = make_messages(generate_scene(2, 0, seed=1), NoiseSpec(), DetectorSpec(), seed=1)
        assert [m.block.shape for m in messages] == [(0, 11), (0, 11)]


# One valid wire box, field by field: the ten vector fields, then confidence.
GOOD_ROW = [3.0, -1.0, 0.0, 4.4, 1.9, 1.6, 0.3, 0.04, 0.04, 0.0025, 0.8]
FIELDS = ("cx", "cy", "cz", "length", "width", "height", "theta", "var_x", "var_y", "var_theta", "confidence")
BAD_FIELDS = (
    [(name, bad) for name in FIELDS for bad in (math.nan, math.inf)]
    + [(name, bad) for name in ("length", "width", "height", "var_x", "var_y", "var_theta") for bad in (0.0, -1.0)]
    + [("confidence", -0.1), ("confidence", 1.1)]
)


class TestMessageValidation:
    """A bad box field raises BoxDetection's ValueError through every way into a message."""

    @pytest.mark.parametrize("name, bad", BAD_FIELDS)
    def test_same_error_as_box_detection(self, name, bad):
        row = list(GOOD_ROW)
        row[FIELDS.index(name)] = bad
        with pytest.raises(ValueError) as direct:
            BoxDetection(*row)
        block = np.array([GOOD_ROW, row, GOOD_ROW])
        with pytest.raises(ValueError) as columns:
            AgentMessage("a0", Pose2.identity(), block)
        wire = {
            "type": "messages",
            "version": 1,
            "messages": [
                {"agent_id": "a0", "measured_pose": [0.0, 0.0, 0.0], "boxes": [{"b": r[:10], "confidence": r[10]} for r in block.tolist()]}
            ],
        }
        with pytest.raises(ValueError) as parsed:
            messages_from_dict(wire)
        assert str(columns.value) == str(parsed.value) == str(direct.value)

    def test_first_bad_box_decides_the_error(self):
        late, early = list(GOOD_ROW), list(GOOD_ROW)
        late[3] = -1.0  # a box dimension
        early[10] = 2.0  # confidence
        with pytest.raises(ValueError, match="confidence must be in"):
            AgentMessage("a0", Pose2.identity(), np.array([GOOD_ROW, early, late]))

    def test_block_shape_checked(self):
        for block in (np.zeros((2, 10)), np.array([GOOD_ROW], dtype=object), [GOOD_ROW], (BoxDetection(*GOOD_ROW),)):
            with pytest.raises(ValueError, match="block must be"):
                AgentMessage("a0", Pose2.identity(), block)

    def test_block_is_read_only_and_headings_wrapped(self):
        row = list(GOOD_ROW)
        row[6] = 3.0 * math.pi
        msg = AgentMessage("a0", Pose2.identity(), np.array([row]))
        assert msg.block[0, 6] == BoxDetection(*row).theta
        with pytest.raises(ValueError):
            msg.block[0, 0] = 1.0

    def test_boxes_are_the_senders_view_of_the_block(self):
        scene = generate_scene(3, 8, seed=5)
        for msg in make_messages(scene, NoiseSpec(trans_scale=0.2), DetectorSpec(), seed=5):
            assert msg.boxes == tuple(BoxDetection(*row, agent_id=msg.agent_id) for row in msg.block.tolist())
            again = AgentMessage(msg.agent_id, msg.measured_pose, msg.block)
            assert again == msg and again.boxes == msg.boxes
            assert msg.boxes is msg.boxes

    def test_wire_round_trip_is_byte_for_byte(self):
        scene = generate_scene(4, 30, area=(150.0, 150.0), seed=6)
        for det, noise in DETECTOR_VARIANTS:
            messages = make_messages(scene, noise, det, seed=6)
            assert messages_from_dict(messages_to_dict(messages)) == messages
            text = json.dumps(messages_to_dict(messages), sort_keys=True)
            again = json.dumps(messages_to_dict(messages_from_dict(json.loads(text))), sort_keys=True)
            assert again == text


class TestJsonFormats:
    def test_scene_roundtrip_lossless(self):
        scene = generate_scene(3, 5, seed=21)
        assert scene_from_dict(scene_to_dict(scene)) == scene

    def test_messages_roundtrip_lossless(self):
        scene = generate_scene(3, 5, seed=21)
        messages = make_messages(scene, NoiseSpec(trans_scale=0.3, rot_scale=0.3), DetectorSpec(), seed=2)
        assert messages_from_dict(messages_to_dict(messages)) == messages

    def test_box_vector_ordering(self):
        scene = one_object_scene()
        messages = make_messages(scene, NoiseSpec(), DetectorSpec(), seed=0)
        entry = messages_to_dict(messages)["messages"][0]["boxes"][0]
        box = messages[0].boxes[0]
        assert entry["b"] == [
            box.cx, box.cy, box.cz, box.length, box.width, box.height,
            box.theta, box.var_x, box.var_y, box.var_theta,
        ]

    def test_malformed_scene_rejected(self):
        with pytest.raises(ValueError):
            scene_from_dict({"type": "nope"})
        with pytest.raises(ValueError, match="malformed"):
            scene_from_dict({"type": "scene", "version": 1, "agents": [{"id": "a"}], "objects": [], "extent": [1, 1]})

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            Scene(agents=(), objects=())
        dup = SceneAgent("x", Pose2.identity())
        with pytest.raises(ValueError):
            Scene(agents=(dup, dup), objects=())
