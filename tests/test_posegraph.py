"""Pose graph tests: clustering against transitive closure, optimization
against construction (known minima), finite differences, and an independent
generic least-squares solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from agentpose.geometry import Pose2, compose, inverse, normalize_angle
from agentpose.oracles import closure_clusters, graph_residual_oracle
from agentpose.posegraph import (
    AgentMessage,
    GraphEdge,
    PoseGraph,
    SolverParams,
    _Problem,
    build_pose_graph,
    cluster_boxes,
    init_object_pose,
    optimize,
    relative_poses,
    with_uniform_info,
)
from agentpose.uncertainty import BoxDetection, InfoMatrix3

from helpers import independent_solver_objective, random_noisy_graph


def make_box(cx, cy, theta=0.0, var_x=0.04, var_y=0.04, var_theta=0.01, confidence=0.8, agent_id="a"):
    return BoxDetection(
        cx=cx, cy=cy, cz=0.0, length=4.0, width=2.0, height=1.6, theta=theta,
        var_x=var_x, var_y=var_y, var_theta=var_theta, confidence=confidence, agent_id=agent_id,
    )


def exact_message(agent_id, true_pose, object_poses, measured=None, **box_kwargs):
    """Message whose boxes are the exact local views of the given objects."""
    boxes = []
    for obj in object_poses:
        local = compose(inverse(true_pose), obj)
        boxes.append(make_box(local.x, local.y, local.theta, agent_id=agent_id, **box_kwargs))
    return AgentMessage(agent_id, measured if measured is not None else true_pose, tuple(boxes))


class TestClusterBoxes:
    def test_identical_centers_two_agents(self):
        boxes = [("a", make_box(1.0, 1.0, agent_id="a")), ("b", make_box(1.0, 1.0, agent_id="b"))]
        assert cluster_boxes(boxes) == [[0, 1]]

    def test_far_apart_singletons(self):
        boxes = [("a", make_box(0.0, 0.0)), ("b", make_box(100.0, 0.0))]
        assert cluster_boxes(boxes) == [[0], [1]]

    def test_chain_is_transitive(self):
        # A-B and B-C gaps 1.5 m, A-C gap 3 m: one component under gap 2.
        boxes = [
            ("a", make_box(0.0, 0.0, agent_id="a")),
            ("b", make_box(1.5, 0.0, agent_id="b")),
            ("c", make_box(3.0, 0.0, agent_id="c")),
        ]
        assert cluster_boxes(boxes, center_gap=2.0) == [[0, 1, 2]]

    def test_empty_input(self):
        assert cluster_boxes([]) == []

    def test_same_agent_duplicates_split(self):
        boxes = [
            ("a", make_box(0.0, 0.0, confidence=0.5, agent_id="a")),
            ("a", make_box(0.5, 0.0, confidence=0.9, agent_id="a")),
            ("b", make_box(0.2, 0.0, confidence=0.7, agent_id="b")),
        ]
        clusters = cluster_boxes(boxes, center_gap=2.0)
        # The higher-confidence box of agent "a" stays with "b"; the other splits off.
        assert [1, 2] in clusters and [0] in clusters
        for cluster in clusters:
            agents = [boxes[i][0] for i in cluster]
            assert len(agents) == len(set(agents))

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(0, 13))
            boxes = [
                (f"a{i}", make_box(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)), agent_id=f"a{i}"))
                for i in range(n)
            ]
            got = sorted(tuple(c) for c in cluster_boxes(boxes, center_gap=2.0))
            want = closure_clusters([(b.cx, b.cy) for _, b in boxes], 2.0)
            assert got == want

    def test_dropped_duplicate_does_not_leave_a_disconnected_cluster(self):
        # A-B1-B2-C is one chain under gap 2; dropping the weaker B1 cuts A off from B2-C.
        boxes = [
            ("a", make_box(0.0, 0.0, confidence=0.9, agent_id="a")),
            ("b", make_box(1.8, 0.0, confidence=0.5, agent_id="b")),
            ("b", make_box(3.0, 0.0, confidence=0.9, agent_id="b")),
            ("c", make_box(4.5, 0.0, confidence=0.9, agent_id="c")),
        ]
        assert cluster_boxes(boxes, center_gap=2.0) == [[0], [1], [2, 3]]

    def test_clusters_connected_with_distinct_agents(self):
        rng = np.random.default_rng(82)
        for _ in range(300):
            boxes = [
                (
                    agent,
                    make_box(
                        float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)),
                        confidence=float(rng.choice([0.5, 0.7, 0.9])), agent_id=agent,
                    ),
                )
                for agent in ("a", "b", "c", "d")
                for _ in range(int(rng.integers(1, 5)))
            ]
            clusters = cluster_boxes(boxes, center_gap=2.0)
            assert sorted(i for c in clusters for i in c) == list(range(len(boxes)))
            for cluster in clusters:
                agents = [boxes[i][0] for i in cluster]
                assert len(agents) == len(set(agents))
                centers = [(boxes[i][1].cx, boxes[i][1].cy) for i in cluster]
                assert len(closure_clusters(centers, 2.0)) == 1

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            cluster_boxes([], center_gap=0.0)


class TestInitObjectPose:
    def test_single_member(self):
        pose = init_object_pose([(make_box(1.0, 2.0, 0.5), Pose2.identity())])
        assert (pose.x, pose.y) == pytest.approx((1.0, 2.0), abs=1e-12)
        assert pose.theta == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_mean(self):
        members = [
            (make_box(0.0, 0.0, 0.0), Pose2.identity()),
            (make_box(2.0, 0.0, 0.0), Pose2.identity()),
        ]
        pose = init_object_pose(members)
        assert (pose.x, pose.y, pose.theta) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_circular_mean_wraps(self):
        # +170 and -170 degrees average to 180, not 0.
        members = [
            (make_box(0.0, 0.0, math.radians(170.0)), Pose2.identity()),
            (make_box(0.0, 0.0, math.radians(-170.0)), Pose2.identity()),
        ]
        assert init_object_pose(members).theta == pytest.approx(math.pi, abs=1e-12)

    def test_information_weighting(self):
        # Weights 1 and 4 on x: mean at (0*1 + 2*4)/5 = 1.6.
        members = [
            (make_box(0.0, 0.0, 0.0, var_x=1.0, var_y=1.0), Pose2.identity()),
            (make_box(2.0, 0.0, 0.0, var_x=0.25, var_y=0.25), Pose2.identity()),
        ]
        assert init_object_pose(members).x == pytest.approx(1.6, abs=1e-12)

    def test_owner_pose_applied(self):
        owner = Pose2(10.0, 0.0, math.pi / 2)
        pose = init_object_pose([(make_box(1.0, 0.0, 0.0), owner)])
        expected = compose(owner, Pose2(1.0, 0.0, 0.0))
        assert (pose.x, pose.y) == pytest.approx((expected.x, expected.y), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            init_object_pose([])


class TestBuildPoseGraph:
    def test_single_agent_prunes_everything(self):
        msg = exact_message("a0", Pose2.identity(), [Pose2(5, 0, 0), Pose2(15, 0, 0)])
        graph = build_pose_graph([msg], "a0")
        assert len(graph.agent_ids) == 1
        assert len(graph.object_poses) == 0
        assert len(graph.edges) == 0

    def test_two_agents_shared_object(self):
        obj = [Pose2(5.0, 5.0, 0.7)]
        messages = [
            exact_message("a0", Pose2.identity(), obj),
            exact_message("a1", Pose2(10.0, 0.0, 0.2), obj),
        ]
        graph = build_pose_graph(messages, "a0")
        assert len(graph.agent_ids) == 2
        assert len(graph.object_poses) == 1
        assert len(graph.edges) == 2
        assert graph.ego_id == "a0"

    def test_shared_and_solo_counts(self):
        # 5 objects seen by all 3 agents plus 2 solo objects: 3/5/15.
        shared = [Pose2(10.0 * k, 6.0 * (k % 2), 0.1 * k) for k in range(5)]
        solo_a = Pose2(-30.0, -30.0, 0.0)
        solo_b = Pose2(40.0, -40.0, 1.0)
        poses = [Pose2.identity(), Pose2(5.0, 20.0, 1.0), Pose2(-10.0, 8.0, -2.0)]
        messages = [
            exact_message("a0", poses[0], shared + [solo_a]),
            exact_message("a1", poses[1], shared + [solo_b]),
            exact_message("a2", poses[2], shared),
        ]
        graph = build_pose_graph(messages, "a1")
        assert len(graph.agent_ids) == 3
        assert len(graph.object_poses) == 5
        assert len(graph.edges) == 15

    def test_unknown_ego_rejected(self):
        msg = exact_message("a0", Pose2.identity(), [])
        with pytest.raises(ValueError):
            build_pose_graph([msg], "nope")

    def test_duplicate_agent_rejected(self):
        msg = exact_message("a0", Pose2.identity(), [])
        with pytest.raises(ValueError):
            build_pose_graph([msg, msg], "a0")

    def test_message_permutation_invariance(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), objs),
            exact_message("a2", Pose2(-6.0, 1.0, -0.4), objs),
        ]
        g1 = build_pose_graph(messages, "a0")
        g2 = build_pose_graph(list(reversed(messages)), "a0")
        assert g1 == g2

    def test_ego_choice_changes_only_flag(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), objs),
        ]
        g0 = build_pose_graph(messages, "a0")
        g1 = build_pose_graph(messages, "a1")
        assert g0.agent_ids == g1.agent_ids
        assert g0.edges == g1.edges
        assert g0.ego_index == 0 and g1.ego_index == 1

    def test_object_degree_invariant(self):
        with pytest.raises(ValueError):
            PoseGraph(
                agent_ids=("a",),
                agent_poses=(Pose2.identity(),),
                ego_index=0,
                object_poses=(Pose2(1, 0, 0),),
                edges=(GraphEdge(0, 0, Pose2(1, 0, 0), InfoMatrix3.identity()),),
            )


def two_agent_graph(perturb=(0.5, -0.3, 0.1)):
    """Exactly consistent two-agent graph with agent a1's measured pose perturbed."""
    true_poses = {"a0": Pose2.identity(), "a1": Pose2(10.0, 2.0, 0.3)}
    objs = [Pose2(5.0, 5.0, 1.0), Pose2(8.0, -3.0, -0.5), Pose2(15.0, 1.0, 2.0)]
    measured = Pose2(
        true_poses["a1"].x + perturb[0],
        true_poses["a1"].y + perturb[1],
        true_poses["a1"].theta + perturb[2],
    )
    messages = [
        exact_message("a0", true_poses["a0"], objs, var_x=1.0, var_y=1.0, var_theta=1.0),
        exact_message("a1", true_poses["a1"], objs, measured=measured, var_x=1.0, var_y=1.0, var_theta=1.0),
    ]
    return build_pose_graph(messages, "a0"), true_poses, objs


class TestOptimize:
    def test_noiseless_graph_zero_iterations(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), objs),
        ]
        graph = build_pose_graph(messages, "a0")
        result = optimize(graph)
        assert result.objective <= 1e-16
        assert result.iterations == 0
        assert result.converged

    def test_recovers_perturbed_pose(self):
        graph, true_poses, _ = two_agent_graph()
        result = optimize(graph)
        got = result.agent_poses["a1"]
        want = true_poses["a1"]
        assert abs(got.x - want.x) <= 1e-6
        assert abs(got.y - want.y) <= 1e-6
        assert abs(normalize_angle(got.theta - want.theta)) <= 1e-6
        assert result.objective <= 1e-12

    def test_ego_pose_bit_identical(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            graph, _, _ = two_agent_graph(perturb=tuple(rng.uniform(-1, 1, 3)))
            ego_before = graph.agent_poses[graph.ego_index]
            result = optimize(graph)
            after = result.agent_poses[graph.ego_id]
            assert (after.x, after.y, after.theta) == (ego_before.x, ego_before.y, ego_before.theta)

    def test_objective_trace_non_increasing(self):
        graph, _, _ = two_agent_graph(perturb=(2.0, -1.5, 0.6))
        result = optimize(graph)
        trace = result.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == result.objective

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            perturb = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(-0.05, 0.05))
            graph, _, _ = two_agent_graph(perturb=perturb)
            assert graph.edges
            prob = _Problem(graph)
            poses = prob.p0.copy()
            poses[prob.free_nodes] += rng.uniform(-0.3, 0.3, (len(prob.free_nodes), 3))
            _, jac = prob.residuals_and_jacobian(poses)
            h = 1e-6
            for rank, node in enumerate(prob.free_nodes):
                for c in range(3):
                    plus = poses.copy()
                    plus[node, c] += h
                    minus = poses.copy()
                    minus[node, c] -= h
                    fd = (prob.residuals(plus) - prob.residuals(minus)) / (2 * h)
                    col = jac[:, 3 * rank + c]
                    err = np.abs(col - fd) / np.maximum(1.0, np.maximum(np.abs(col), np.abs(fd)))
                    assert np.max(err) <= 1e-5

    def test_residuals_match_matrix_oracle(self):
        rng = np.random.default_rng(93)
        graph, _, _ = two_agent_graph()
        prob = _Problem(graph)
        poses = prob.p0.copy()
        poses[prob.free_nodes] += rng.uniform(-0.5, 0.5, (len(prob.free_nodes), 3))
        got = prob.residuals(poses)
        want = graph_residual_oracle(
            [p.as_tuple() for p in graph.agent_poses],
            [p.as_tuple() for p in graph.object_poses],
            [(e.agent_index, e.object_index, e.measurement.as_tuple(), e.info.diagonal()) for e in graph.edges],
            poses[prob.free_nodes].ravel(),
            list(prob.free_nodes),
            graph.ego_index,
        )
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_independent_least_squares(self):
        rng = np.random.default_rng(94)
        for _ in range(5):
            graph = random_noisy_graph(rng)
            result = optimize(graph)
            oracle = independent_solver_objective(graph)
            assert result.objective == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_weighting_pulls_optimum_toward_strong_edge(self):
        # Conflicting observations: boosting one edge's information must shrink
        # that edge's residual at the optimum.
        true_poses = {"a0": Pose2.identity(), "a1": Pose2(10.0, 0.0, 0.0)}
        objs = [Pose2(5.0, 4.0, 0.5), Pose2(6.0, -5.0, -0.2)]
        messages = [
            exact_message("a0", true_poses["a0"], objs, var_x=1.0, var_y=1.0, var_theta=1.0),
            exact_message("a1", true_poses["a1"], objs, var_x=1.0, var_y=1.0, var_theta=1.0),
        ]
        base = build_pose_graph(messages, "a0")
        # Corrupt one measurement so the system is inconsistent.
        bad = replace(base.edges[0], measurement=Pose2(
            base.edges[0].measurement.x + 0.8,
            base.edges[0].measurement.y - 0.5,
            base.edges[0].measurement.theta + 0.2,
        ))
        residual_norms = []
        for boost in (1.0, 10.0, 100.0, 1000.0):
            info = InfoMatrix3(boost, boost, boost)
            graph = replace(base, edges=(replace(bad, info=info),) + base.edges[1:])
            result = optimize(graph)
            prob = _Problem(graph)
            poses = np.array(
                [result.agent_poses[a].as_tuple() for a in graph.agent_ids]
                + [p.as_tuple() for p in result.object_poses]
            )
            r = prob.residuals(poses).reshape(-1, 3)
            unweighted = r[0] / prob.sqrt_w[0]
            residual_norms.append(float(np.linalg.norm(unweighted)))
        assert all(b < a for a, b in zip(residual_norms, residual_norms[1:]))

    def test_agent_without_edges_is_untouched(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        lonely = Pose2(50.0, 50.0, 1.0)
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), objs, measured=Pose2(8.3, 1.8, 0.55)),
            AgentMessage("a2", lonely, ()),
        ]
        graph = build_pose_graph(messages, "a0")
        result = optimize(graph)
        assert result.agent_poses["a2"].as_tuple() == lonely.as_tuple()

    def test_solver_params_validation(self):
        with pytest.raises(ValueError):
            SolverParams(max_iterations=0)
        with pytest.raises(ValueError):
            SolverParams(initial_damping=0.0)
        with pytest.raises(ValueError):
            SolverParams(damping_decrease=1.5)

    def test_uniform_info_override(self):
        graph, _, _ = two_agent_graph()
        flat = with_uniform_info(graph)
        assert all(e.info == InfoMatrix3.identity() for e in flat.edges)
        assert [e.measurement for e in flat.edges] == [e.measurement for e in graph.edges]


class TestRelativePoses:
    def test_ego_only(self):
        rel = relative_poses({"ego": Pose2(3.0, 4.0, 1.0)}, "ego")
        assert rel == {"ego": Pose2.identity()}

    def test_identity_ego(self):
        rel = relative_poses({"i": Pose2.identity(), "j": Pose2(1.0, 0.0, 0.0)}, "i")
        assert rel["j"].as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_rotated_ego_example(self):
        # Frozen from the matrix oracle: inverse(T_i) @ T_j.
        rel = relative_poses({"i": Pose2(1.0, 0.0, math.pi / 2), "j": Pose2(1.0, 1.0, math.pi / 2)}, "i")
        assert rel["j"].x == pytest.approx(1.0, abs=1e-12)
        assert rel["j"].y == pytest.approx(0.0, abs=1e-12)
        assert rel["j"].theta == pytest.approx(0.0, abs=1e-12)

    def test_self_consistency(self):
        rng = np.random.default_rng(95)
        for _ in range(100):
            poses = {
                name: Pose2(*rng.uniform(-30, 30, 2), rng.uniform(-math.pi, math.pi))
                for name in ("i", "j", "k")
            }
            to_i = relative_poses(poses, "i")
            to_j = relative_poses(poses, "j")
            chained = compose(to_i["j"], to_j["k"])
            direct = to_i["k"]
            assert chained.x == pytest.approx(direct.x, abs=1e-10)
            assert chained.y == pytest.approx(direct.y, abs=1e-10)
            assert abs(normalize_angle(chained.theta - direct.theta)) <= 1e-10

    def test_missing_ego_rejected(self):
        with pytest.raises(ValueError):
            relative_poses({"a": Pose2.identity()}, "b")
