"""Pose graph tests: clustering against transitive closure, optimization
against construction (known minima), finite differences, and an independent
generic least-squares solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from agentpose.cli import main
from agentpose.evaluate import BenchmarkConfig, _run_scene, run_benchmark
from agentpose.geometry import OrientedBox2, Pose2, compose, inverse, normalize_angle
from agentpose.oracles import closure_clusters, graph_residual_oracle
from agentpose.posegraph import (
    AgentMessage,
    GraphEdge,
    PoseGraph,
    SolverParams,
    _Problem,
    _cluster_labels,
    _components,
    _schur_step,
    _seed_poses,
    build_pose_graph,
    optimize,
    relative_poses,
    with_uniform_info,
)
from agentpose.scenario import DetectorSpec, NoiseSpec, derive_seed, generate_scene, make_messages
from agentpose.uncertainty import BoxDetection

import helpers
from helpers import (
    box_block,
    dense_jacobian,
    dense_normal_equations,
    graph_from_edges,
    independent_solver_objective,
    random_noisy_graph,
    scalar_build_oracle,
    with_anisotropic_info,
)


def make_box(cx, cy, theta=0.0, var_x=0.04, var_y=0.04, var_theta=0.01, confidence=0.8):
    """One block row of a 4 x 2 x 1.6 m box."""
    return [cx, cy, 0.0, 4.0, 2.0, 1.6, theta, var_x, var_y, var_theta, confidence]


def exact_message(agent_id, true_pose, object_poses, measured=None, **box_kwargs):
    """Message whose boxes are the exact local views of the given objects."""
    boxes = []
    for obj in object_poses:
        local = compose(inverse(true_pose), obj)
        boxes.append(make_box(local.x, local.y, local.theta, **box_kwargs))
    return AgentMessage(agent_id, measured if measured is not None else true_pose, box_block(boxes))


def cluster_labels(boxes, center_gap=2.0):
    """_cluster_labels of boxes given as (agent number, cx, cy, confidence), as a list."""
    agent, xs, ys, confidence = np.array(boxes, dtype=float).reshape(-1, 4).T
    return _cluster_labels(xs, ys, agent.astype(np.intp), confidence, center_gap).tolist()


def closure_labels(centers, gap):
    """Each center's cluster number under closure_clusters, which sorts clusters by smallest member."""
    labels = [0] * len(centers)
    for label, members in enumerate(closure_clusters(centers, gap)):
        for i in members:
            labels[i] = label
    return labels


class TestClusterBoxes:
    def test_identical_centers_two_agents(self):
        assert cluster_labels([(0, 1.0, 1.0, 0.8), (1, 1.0, 1.0, 0.8)]) == [0, 0]

    def test_far_apart_singletons(self):
        assert cluster_labels([(0, 0.0, 0.0, 0.8), (1, 100.0, 0.0, 0.8)]) == [0, 1]

    def test_chain_is_transitive(self):
        # A-B and B-C gaps 1.5 m, A-C gap 3 m: one component under gap 2.
        assert cluster_labels([(0, 0.0, 0.0, 0.8), (1, 1.5, 0.0, 0.8), (2, 3.0, 0.0, 0.8)]) == [0, 0, 0]

    def test_empty_input(self):
        assert cluster_labels([]) == []

    def test_same_agent_duplicates_split(self):
        # The higher-confidence box of agent 0 stays with agent 1's; the other splits off.
        assert cluster_labels([(0, 0.0, 0.0, 0.5), (0, 0.5, 0.0, 0.9), (1, 0.2, 0.0, 0.7)]) == [0, 1, 1]

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(200):
            n = int(rng.integers(0, 13))
            centers = [(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))) for _ in range(n)]
            got = cluster_labels([(i, cx, cy, 0.8) for i, (cx, cy) in enumerate(centers)])
            assert got == closure_labels(centers, 2.0)

    def test_dropped_duplicate_does_not_leave_a_disconnected_cluster(self):
        # A-B1-B2-C is one chain under gap 2; dropping the weaker B1 cuts A off from B2-C.
        boxes = [(0, 0.0, 0.0, 0.9), (1, 1.8, 0.0, 0.5), (1, 3.0, 0.0, 0.9), (2, 4.5, 0.0, 0.9)]
        assert cluster_labels(boxes) == [0, 1, 2, 2]

    def test_clusters_connected_with_distinct_agents(self):
        rng = np.random.default_rng(82)
        for _ in range(300):
            boxes = [
                (agent, float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)), float(rng.choice([0.5, 0.7, 0.9])))
                for agent in range(4)
                for _ in range(int(rng.integers(1, 5)))
            ]
            labels = cluster_labels(boxes)
            assert sorted(set(labels)) == list(range(max(labels) + 1))
            for label in set(labels):
                members = [box for box, other in zip(boxes, labels) if other == label]
                agents = [agent for agent, _, _, _ in members]
                assert len(agents) == len(set(agents))
                assert len(closure_clusters([(cx, cy) for _, cx, cy, _ in members], 2.0)) == 1

    def test_components_match_all_pairs_reference(self):
        # Lattice points put many pairs exactly at the gap (not linked: the test
        # is strict) and many points at the same x.
        def all_pairs(xs, ys, gap2):
            n = len(xs)
            label = list(range(n))
            for i in range(n):
                for j in range(i + 1, n):
                    if (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 < gap2 and label[i] != label[j]:
                        old, new = label[j], label[i]
                        label = [new if v == old else v for v in label]
            # Each point's root: the smallest index in its component.
            return [label.index(label[i]) for i in range(n)]

        assert _components(np.array([0.0, 2.0 - 1e-12]), np.zeros(2), 4.0).tolist() == [0, 0]
        assert _components(np.array([2.0, 0.0]), np.zeros(2), 4.0).tolist() == [0, 1]
        rng = np.random.default_rng(83)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            if rng.random() < 0.5:
                xs, ys = rng.integers(0, 8, n).astype(float), rng.integers(0, 8, n).astype(float)
            else:
                xs, ys = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
            for gap in (1.0, 1.5, 2.0):
                assert _components(xs, ys, gap * gap).tolist() == all_pairs(xs, ys, gap * gap)

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError, match="center_gap"):
            cluster_labels([], center_gap=0.0)


def seed_args(members, obj=None):
    """_seed_poses arguments of members given as (gx, gy, gt, var_x, var_y, var_theta), one object by default."""
    cols = np.array(members, dtype=float)
    obj = np.zeros(len(cols), dtype=np.intp) if obj is None else np.array(obj)
    return (*cols[:, :3].T, 1.0 / cols[:, 3:], obj, int(obj.max()) + 1)


class TestInitObjectPose:
    """The object seeds of _seed_poses; build_pose_graph lifts the members first."""

    def test_single_member(self):
        (pose,) = _seed_poses(*seed_args([(1.0, 2.0, 0.5, 0.04, 0.04, 0.01)]))
        assert tuple(pose) == pytest.approx((1.0, 2.0, 0.5), abs=1e-12)

    def test_symmetric_mean(self):
        # Two objects seeded in one call, their members interleaved.
        members = [
            (0.0, 0.0, 0.0, 0.04, 0.04, 0.01),
            (5.0, 5.0, 1.0, 0.04, 0.04, 0.01),
            (2.0, 0.0, 0.0, 0.04, 0.04, 0.01),
            (5.0, 7.0, 1.0, 0.04, 0.04, 0.01),
        ]
        first, second = _seed_poses(*seed_args(members, obj=[0, 1, 0, 1]))
        assert tuple(first) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert tuple(second) == pytest.approx((5.0, 6.0, 1.0), abs=1e-12)

    def test_circular_mean_wraps(self):
        # +170 and -170 degrees average to 180, not 0.
        members = [(0.0, 0.0, math.radians(t), 0.04, 0.04, 0.01) for t in (170.0, -170.0)]
        assert _seed_poses(*seed_args(members))[0, 2] == pytest.approx(math.pi, abs=1e-12)

    def test_information_weighting(self):
        # Weights 1 and 4 on x: mean at (0*1 + 2*4)/5 = 1.6.
        members = [(0.0, 0.0, 0.0, 1.0, 1.0, 0.01), (2.0, 0.0, 0.0, 0.25, 0.25, 0.01)]
        assert _seed_poses(*seed_args(members))[0, 0] == pytest.approx(1.6, abs=1e-12)

    def test_owner_pose_applied(self):
        # Both boxes lift to the same global pose, which seeds the object.
        owner = Pose2(10.0, 0.0, math.pi / 2)
        expected = compose(owner, Pose2(1.0, 0.0, 0.0))
        messages = [
            AgentMessage("a0", owner, box_block([make_box(1.0, 0.0, 0.0)])),
            AgentMessage("a1", Pose2.identity(), box_block([make_box(expected.x, expected.y, expected.theta)])),
        ]
        (pose,) = build_pose_graph(messages, "a1").object_poses
        assert tuple(pose) == pytest.approx(expected.as_tuple(), abs=1e-12)


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


def valid_columns():
    """Constructor arguments of a valid graph: agents a and b both see objects 0 and 1."""
    return dict(
        agent_ids=("a", "b"),
        agent_poses=(Pose2.identity(), Pose2(1.0, 0.0, 0.0)),
        ego_index=0,
        object_poses=np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]),
        edge_nodes=np.array([[0, 0], [1, 0], [0, 1], [1, 1]]),
        measurements=np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-1.0, 3.0, 0.0]]),
        info=np.array([[1.0, 2.0, 3.0]] * 4),
    )


def with_entry(name, row, col, value):
    def make():
        columns = valid_columns()
        columns[name] = columns[name].astype(type(value))
        columns[name][row, col] = value
        return columns
    return make


def with_column(name, transform):
    def make():
        columns = valid_columns()
        columns[name] = transform(columns[name])
        return columns
    return make


class TestPoseGraphColumns:
    @pytest.mark.parametrize(
        "make_columns",
        [
            with_column("measurements", lambda z: z[:3]),
            with_column("info", lambda w: np.vstack((w, w[:1]))),
            with_column("edge_nodes", lambda e: e[:, :1]),
            with_column("info", lambda w: w.ravel()),
            with_entry("edge_nodes", 1, 0, -1),
            with_entry("edge_nodes", 1, 0, 2),
            with_entry("edge_nodes", 2, 1, -1),
            with_entry("edge_nodes", 2, 1, 2),
            with_column("edge_nodes", lambda e: e.astype(float)),
            with_entry("measurements", 0, 0, math.nan),
            with_entry("measurements", 1, 1, math.inf),
            with_entry("measurements", 2, 2, -math.inf),
            with_entry("info", 0, 0, 0.0),
            with_entry("info", 1, 1, -1.0),
            with_entry("info", 2, 2, math.inf),
            with_entry("info", 3, 0, math.nan),
            with_entry("edge_nodes", 3, 1, 0),
            with_column("object_poses", lambda p: p.ravel()),
            with_column("object_poses", lambda p: p[:, :2]),
            with_column("object_poses", lambda p: [Pose2(*row) for row in p.tolist()]),
            with_entry("object_poses", 0, 0, math.nan),
            with_entry("object_poses", 1, 1, -math.inf),
            with_entry("object_poses", 0, 2, math.inf),
            with_entry("object_poses", 1, 2, math.nan),
        ],
        ids=[
            "fewer_measurements", "more_info", "one_node_column", "flat_info",
            "agent_negative", "agent_too_large", "object_negative", "object_too_large", "float_indices",
            "measurement_nan", "measurement_inf", "heading_minus_inf",
            "info_zero", "info_negative", "info_inf", "info_nan",
            "object_degree_1",
            "flat_object_poses", "object_pose_two_columns", "object_pose2_sequence",
            "object_x_nan", "object_y_minus_inf", "object_heading_inf", "object_heading_nan",
        ],
    )
    def test_rejects_invalid_columns(self, make_columns):
        with pytest.raises(ValueError):
            PoseGraph(**make_columns())

    def test_columns_are_read_only_copies(self):
        columns = valid_columns()
        graph = PoseGraph(**columns)
        for name in ("object_poses", "edge_nodes", "measurements", "info"):
            with pytest.raises(ValueError):
                getattr(graph, name)[0, 0] = 1
            columns[name][0, 0] = 7
        assert graph == PoseGraph(**valid_columns())

    def test_headings_wrapped_like_normalize_angle(self):
        headings = [4.0, -4.0, 3 * math.pi, -3 * math.pi, math.pi, -math.pi, 2 * math.pi, 100.0]
        columns = valid_columns()
        columns["edge_nodes"] = np.array([[0, 0], [1, 1]] * 4)
        columns["measurements"] = np.array([[1.0, 2.0, t] for t in headings])
        columns["info"] = np.ones((8, 3))
        got = PoseGraph(**columns).measurements[:, 2]
        assert got.tobytes() == np.array([normalize_angle(t) for t in headings]).tobytes()

    def test_object_headings_wrapped_like_normalize_angle(self):
        columns = valid_columns()
        columns["object_poses"][:, 2] = (3 * math.pi, -math.pi)
        got = PoseGraph(**columns).object_poses
        assert got[:, 2].tobytes() == np.array([normalize_angle(3 * math.pi), normalize_angle(-math.pi)]).tobytes()
        assert got[:, 2].tolist() == [Pose2(0.0, 0.0, t).theta for t in (3 * math.pi, -math.pi)]
        assert got[:, :2].tolist() == valid_columns()["object_poses"][:, :2].tolist()

    def test_equality_is_bitwise(self):
        graph = PoseGraph(**valid_columns())
        assert graph == PoseGraph(**valid_columns())
        for name, col, value in (
            ("info", 0, np.nextafter(1.0, 2.0)), ("measurements", 1, -0.0), ("object_poses", 0, np.nextafter(2.0, 3.0)),
        ):
            columns = valid_columns()
            columns[name][0, col] = value
            assert graph != PoseGraph(**columns)
        assert graph.edges[1] == GraphEdge(1, 0, Pose2(1.0, 0.0, 0.0), (1.0, 2.0, 3.0))


def random_messages(rng, n_agents, max_boxes=8, span=6.0):
    """Messages with boxes crowded enough to form multi-view clusters, same-agent
    duplicates and confidence ties; in shuffled order."""
    messages = []
    for k in range(n_agents):
        boxes = tuple(
            make_box(
                float(rng.uniform(-span, span)), float(rng.uniform(-span, span)),
                float(rng.uniform(-math.pi, math.pi)),
                var_x=float(rng.uniform(0.01, 0.2)), var_y=float(rng.uniform(0.01, 0.2)),
                var_theta=float(rng.uniform(0.001, 0.05)),
                confidence=float(rng.choice([0.5, 0.7, 0.9])),
            )
            for _ in range(int(rng.integers(0, max_boxes + 1)))
        )
        pose = Pose2(*rng.uniform(-3.0, 3.0, 2), rng.uniform(-math.pi, math.pi))
        messages.append(AgentMessage(f"a{k}", pose, box_block(boxes)))
    return [messages[i] for i in rng.permutation(n_agents)]


class TestBuildMatchesScalarOracle:
    def test_random_messages(self):
        rng = np.random.default_rng(91)
        objects = 0
        for _ in range(300):
            messages = random_messages(rng, int(rng.integers(1, 6)))
            ego = messages[int(rng.integers(len(messages)))].agent_id
            gap = float(rng.choice([1.0, 2.0, 3.0]))
            graph = build_pose_graph(messages, ego, center_gap=gap)
            assert graph == scalar_build_oracle(messages, ego, center_gap=gap)
            objects += len(graph.object_poses)
        assert objects > 300

    def test_acceptance_shape_scenes(self):
        config = BenchmarkConfig(seed=91, noise_grid=((0.6, 0.6),))
        for k in range(20):
            scene = generate_scene(
                config.num_agents, config.num_objects, area=config.area, seed=derive_seed(91, "scene", k),
                extent=config.extent, min_object_gap=config.min_object_gap,
            )
            messages = make_messages(scene, config.noise_at(0), config.detector, derive_seed(91, "msgs", k))
            ego = scene.agents[0].agent_id
            assert build_pose_graph(messages, ego) == scalar_build_oracle(messages, ego)

    def test_confidence_tie_keeps_the_lowest_index(self):
        messages = [
            AgentMessage("a", Pose2.identity(), box_block([make_box(0.5, 0.0), make_box(0.0, 0.0)])),
            AgentMessage("b", Pose2.identity(), box_block([make_box(0.2, 0.0)])),
        ]
        graph = build_pose_graph(messages, "a")
        assert graph == scalar_build_oracle(messages, "a")
        assert [(e.agent_index, e.measurement.x) for e in graph.edges] == [(0, 0.5), (1, 0.2)]

    def test_agent_without_boxes(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            AgentMessage("a1", Pose2(3.0, 1.0, 0.2), box_block([])),
            exact_message("a2", Pose2(8.0, 2.0, 0.5), objs),
        ]
        graph = build_pose_graph(messages, "a1")
        assert graph == scalar_build_oracle(messages, "a1")
        assert len(graph.edges) == 4 and all(e.agent_index != 1 for e in graph.edges)

    def test_no_boxes_at_all(self):
        messages = [
            AgentMessage("a0", Pose2.identity(), box_block([])),
            AgentMessage("a1", Pose2(1.0, 0.0, 0.0), box_block([])),
        ]
        graph = build_pose_graph(messages, "a0")
        assert graph == scalar_build_oracle(messages, "a0")
        assert graph.object_poses.shape == (0, 3) and graph.edges == ()

    def test_all_singleton_clusters(self):
        messages = [
            exact_message("a0", Pose2.identity(), [Pose2(0.0, 0.0, 0.0), Pose2(20.0, 0.0, 1.0)]),
            exact_message("a1", Pose2(5.0, 5.0, 0.4), [Pose2(40.0, 0.0, 0.0), Pose2(0.0, 40.0, -1.0)]),
        ]
        graph = build_pose_graph(messages, "a1")
        assert graph == scalar_build_oracle(messages, "a1")
        assert graph.object_poses.shape == (0, 3) and graph.edges == ()

    def test_non_ego_agent_without_shared_objects(self):
        shared = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [
            exact_message("a0", Pose2.identity(), shared),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), shared),
            exact_message("a2", Pose2(-6.0, 1.0, -0.4), [Pose2(60.0, 60.0, 0.0)]),
        ]
        graph = build_pose_graph(messages, "a0")
        assert graph == scalar_build_oracle(messages, "a0")
        assert len(graph.object_poses) == 2 and all(e.agent_index != 2 for e in graph.edges)

    @pytest.mark.parametrize("gap", [0.0, -1.0])
    def test_rejects_bad_gap(self, gap):
        objs = [Pose2(4.0, 4.0, 0.3)]
        messages = [exact_message("a0", Pose2.identity(), objs), exact_message("a1", Pose2(8.0, 2.0, 0.5), objs)]
        for msgs in (messages, [AgentMessage("a0", Pose2.identity(), box_block([]))]):
            with pytest.raises(ValueError, match="center_gap"):
                build_pose_graph(msgs, "a0", center_gap=gap)


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
    def test_object_poses_stay_columns(self, monkeypatch):
        # At 12 agents / 200 objects the build makes no Pose2 and the solve only
        # its non-ego agents; the solved objects are the read-only tail of the state.
        scene = generate_scene(12, 200, area=(200.0, 200.0), seed=1)
        messages = make_messages(scene, NoiseSpec("gaussian", 0.6, 0.6), DetectorSpec(), 1)
        made = []
        init = Pose2.__post_init__
        monkeypatch.setattr(Pose2, "__post_init__", lambda pose: made.append(pose) or init(pose))
        graph = build_pose_graph(messages, "agent0")
        assert made == []
        result = optimize(graph)
        assert len(made) == len(graph.agent_ids) - 1
        assert len(graph.object_poses) > 150 and result.object_poses.shape == graph.object_poses.shape
        with pytest.raises(ValueError):
            result.object_poses[0, 0] = 0.0

    def test_results_compare_bit_for_bit(self):
        graph = two_agent_graph()[0]
        result = optimize(graph)
        assert result == optimize(graph)
        moved = result.object_poses.copy()
        moved[0, 0] = np.nextafter(moved[0, 0], math.inf)
        assert result != replace(result, object_poses=moved)

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

    @pytest.mark.parametrize("ego_index", [0, 1, 2])
    def test_step_leaves_the_ego_row_bit_identical(self, ego_index):
        graph = random_noisy_graph(np.random.default_rng(106))
        graph = replace(graph, ego_index=min(ego_index, len(graph.agent_ids) - 1))
        prob = _Problem(graph)
        delta = np.random.default_rng(107).uniform(-4.0, 4.0, prob.n_free)
        moved = prob.apply_step(prob.p0, delta)
        assert moved[prob.ego].tobytes() == prob.p0[prob.ego].tobytes()
        want = prob.p0[prob.free_nodes] + delta.reshape(-1, 3)
        np.testing.assert_array_equal(moved[prob.free_nodes, :2], want[:, :2])
        np.testing.assert_allclose(np.cos(moved[prob.free_nodes, 2]), np.cos(want[:, 2]), atol=1e-12)
        assert np.all(np.abs(moved[:, 2]) <= math.pi)

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
            _, jac = dense_jacobian(prob, poses)
            h = 1e-6
            for rank, node in enumerate(prob.free_nodes):
                for c in range(3):
                    plus = poses.copy()
                    plus[node, c] += h
                    minus = poses.copy()
                    minus[node, c] -= h
                    fd = (prob.evaluate(plus)[1].ravel() - prob.evaluate(minus)[1].ravel()) / (2 * h)
                    col = jac[:, 3 * rank + c]
                    err = np.abs(col - fd) / np.maximum(1.0, np.maximum(np.abs(col), np.abs(fd)))
                    assert np.max(err) <= 1e-5

    def test_residuals_match_matrix_oracle(self):
        rng = np.random.default_rng(93)
        graph, _, _ = two_agent_graph()
        prob = _Problem(graph)
        poses = prob.p0.copy()
        poses[prob.free_nodes] += rng.uniform(-0.5, 0.5, (len(prob.free_nodes), 3))
        got = prob.evaluate(poses)[1].ravel()
        want = graph_residual_oracle(
            [p.as_tuple() for p in graph.agent_poses],
            graph.object_poses.tolist(),
            [(e.agent_index, e.object_index, e.measurement.as_tuple(), e.info) for e in graph.edges],
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
        bad = base.measurements.copy()
        bad[0] += (0.8, -0.5, 0.2)
        residual_norms = []
        for boost in (1.0, 10.0, 100.0, 1000.0):
            info = base.info.copy()
            info[0] = boost
            graph = replace(base, measurements=bad, info=info)
            result = optimize(graph)
            prob = _Problem(graph)
            poses = np.array(
                [result.agent_poses[a].as_tuple() for a in graph.agent_ids] + result.object_poses.tolist()
            )
            r = prob.evaluate(poses)[1]
            unweighted = r[0] / prob.sqrt_w[0]
            residual_norms.append(float(np.linalg.norm(unweighted)))
        assert all(b < a for a, b in zip(residual_norms, residual_norms[1:]))

    def test_agent_without_edges_is_untouched(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        lonely = Pose2(50.0, 50.0, 1.0)
        messages = [
            exact_message("a0", Pose2.identity(), objs),
            exact_message("a1", Pose2(8.0, 2.0, 0.5), objs, measured=Pose2(8.3, 1.8, 0.55)),
            AgentMessage("a2", lonely, box_block([])),
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
        graph = random_noisy_graph(np.random.default_rng(103))
        assert np.all(graph.info != 1.0)
        flat = with_uniform_info(graph)
        assert flat == replace(graph, info=np.ones((len(graph.info), 3)))
        assert all(e.info == (1.0, 1.0, 1.0) for e in flat.edges)
        assert [e.measurement for e in flat.edges] == [e.measurement for e in graph.edges]


def acceptance_graph(scene_idx):
    """Weighted graph of one scene of the acceptance benchmark, built as run_benchmark builds it."""
    config = BenchmarkConfig(seed=20230601, noise_grid=((0.6, 0.6),))
    scene = generate_scene(
        config.num_agents, config.num_objects, area=config.area,
        seed=derive_seed(config.seed, "scene", scene_idx), extent=config.extent,
        min_object_gap=config.min_object_gap,
    )
    noise_seed = derive_seed(config.seed, "msgs", 0, scene_idx)
    messages = make_messages(scene, config.noise_at(0), config.detector, noise_seed)
    return build_pose_graph(messages, scene.agents[0].agent_id, center_gap=config.cluster_gap)


def edgeless_agent_graph():
    """Ego a1 in the middle of the agent order; a2 has no edges."""
    objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8), Pose2(7.0, 9.0, 2.0)]
    messages = [
        exact_message("a0", Pose2(8.0, 2.0, 0.5), objs, measured=Pose2(8.3, 1.8, 0.55)),
        exact_message("a1", Pose2.identity(), objs),
        AgentMessage("a2", Pose2(50.0, 50.0, 1.0), box_block([])),
    ]
    return build_pose_graph(messages, "a1")


def detached_graph():
    """Ego a0 and a1 share two objects; a2 and a3 share two others and never meet the ego."""
    near = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
    far = [Pose2(80.0, 60.0, 1.1), Pose2(90.0, 52.0, -2.0)]
    messages = [
        exact_message("a0", Pose2.identity(), near),
        exact_message("a1", Pose2(8.0, 2.0, 0.5), near, measured=Pose2(8.3, 1.8, 0.55)),
        exact_message("a2", Pose2(70.0, 55.0, -0.4), far, measured=Pose2(70.4, 55.2, -0.35)),
        exact_message("a3", Pose2(85.0, 62.0, 2.5), far),
    ]
    return build_pose_graph(messages, "a0")


class TestNormalEquations:
    def assert_match_dense(self, graph, rng):
        prob = _Problem(graph)
        poses = prob.p0.copy()
        poses[prob.free_nodes] += rng.uniform(-0.3, 0.3, (len(prob.free_nodes), 3))
        hess, grad = dense_normal_equations(prob.normal_blocks(poses, *prob.evaluate(poses)))
        r, jac = dense_jacobian(prob, poses)
        for got, want in ((hess, jac.T @ jac), (grad, jac.T @ r)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_random_graphs(self):
        rng = np.random.default_rng(96)
        for _ in range(50):
            self.assert_match_dense(random_noisy_graph(rng), rng)

    def test_anisotropic_weights(self):
        # w_x / w_y up to 1e4 either way makes the object translation block's
        # off-diagonal (w_x - w_y) cos(phi) sin(phi) large.
        rng = np.random.default_rng(104)
        for _ in range(50):
            self.assert_match_dense(with_anisotropic_info(random_noisy_graph(rng), rng), rng)

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: two_agent_graph()[0], edgeless_agent_graph, detached_graph],
        ids=["ego_with_edges", "agent_without_edges", "detached_component"],
    )
    def test_special_graphs(self, make_graph):
        graph = make_graph()
        assert len(graph.agent_ids) >= 2 and graph.edges
        self.assert_match_dense(graph, np.random.default_rng(97))

    def test_optimize_never_forms_the_dense_jacobian(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("optimize formed the dense Jacobian")

        monkeypatch.setattr(helpers, "dense_jacobian", refuse)
        monkeypatch.setattr(_Problem, "edge_blocks", refuse)
        graph, true_poses, _ = two_agent_graph(perturb=(1.0, -0.8, 0.2))
        result = optimize(graph)
        assert result.converged and result.iterations > 0
        assert result.agent_poses["a1"].x == pytest.approx(true_poses["a1"].x, abs=1e-6)

    def test_hot_path_never_builds_the_edge_view(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("the GraphEdge view was built")

        monkeypatch.setattr(PoseGraph, "edges", property(refuse))
        graph, _, _ = two_agent_graph(perturb=(1.0, -0.8, 0.2))
        assert optimize(graph).iterations > 0 and optimize(with_uniform_info(graph)).iterations > 0
        result = run_benchmark(BenchmarkConfig(seed=3, scenes=1, noise_grid=((0.6, 0.6),)))
        assert result.to_dict()
        scene = str(tmp_path / "scene.json")
        assert main(["generate", "--seed", "3", "--out", scene]) == 0
        assert main(["solve", "--scene", scene, "--seed", "3", "--out", str(tmp_path / "solve.json")]) == 0

    def test_hot_path_never_builds_the_box_view(self, monkeypatch, tmp_path):
        def refuse(self):
            raise AssertionError("the BoxDetection view was built")

        monkeypatch.setattr(AgentMessage, "boxes", property(refuse))
        result = run_benchmark(BenchmarkConfig(seed=5, scenes=20, noise_grid=((0.6, 0.6),)))
        assert result.status == "clean" and result.levels[0].n_scenes == 20
        scene = generate_scene(12, 200, (200.0, 200.0), 5, (140.0, 140.0), 5.0)
        messages = make_messages(scene, NoiseSpec("gaussian", 0.6, 0.6), DetectorSpec(), 5)
        graph = build_pose_graph(messages, "agent0")
        solved = optimize(graph)
        assert solved.converged and len(relative_poses(solved.agent_poses, "agent0")) == 12
        scene_path, solve_path = str(tmp_path / "scene.json"), str(tmp_path / "solve.json")
        assert main(["generate", "--seed", "3", "--out", scene_path]) == 0
        assert main(["solve", "--scene", scene_path, "--seed", "3", "--out", solve_path]) == 0

    def test_scene_scoring_builds_no_box_objects(self, monkeypatch):
        # A benchmark scene fuses and scores on box columns: no OrientedBox2 per
        # box or pair and no BoxDetection per kept box.
        built = []
        for cls in (OrientedBox2, BoxDetection):
            def counting(self, post_init=cls.__post_init__):
                built.append(self)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        config = BenchmarkConfig(seed=5, scenes=3, noise_grid=((0.6, 0.6),), ap_thresholds=(0.3, 0.5, 0.7))
        records = [_run_scene(config, 0, idx) for idx in range(config.scenes)]
        assert all(rec["ok"] for rec in records) and any(rec["ap"]["0.5"]["corrected"] > 0.0 for rec in records)
        assert built == []
        OrientedBox2(0.0, 0.0, 4.0, 2.0, 0.0)
        BoxDetection(0.0, 0.0, 0.0, 4.0, 2.0, 1.6, 0.0, 0.04, 0.04, 0.01, 0.5)
        assert [type(b) for b in built] == [OrientedBox2, BoxDetection]


class TestDampingLoop:
    @pytest.mark.parametrize("scene_idx", [9, 41, None])
    def test_normal_equations_only_on_accepted_states(self, monkeypatch, scene_idx):
        # Trials evaluate only the residuals; the normal equations are formed at
        # the start and at each accepted state the loop goes on from.
        formed_at, evaluated = [], []
        normal_blocks, evaluate = _Problem.normal_blocks, _Problem.evaluate

        def counting_blocks(self, poses, e, r):
            formed_at.append(float(np.vdot(r, r)))
            return normal_blocks(self, poses, e, r)

        def counting_evaluate(self, poses):
            evaluated.append(poses)
            return evaluate(self, poses)

        monkeypatch.setattr(_Problem, "normal_blocks", counting_blocks)
        monkeypatch.setattr(_Problem, "evaluate", counting_evaluate)
        graph = acceptance_graph(scene_idx) if scene_idx is not None else random_noisy_graph(np.random.default_rng(5))
        result = optimize(graph)
        accepted = len(result.objective_trace) - 1
        assert len(evaluated) == 1 + accepted + result.rejected_steps
        assert formed_at == list(result.objective_trace[: result.iterations])
        if scene_idx is not None:
            assert result.termination == "no_step_accepted" and result.rejected_steps >= 1

    @pytest.mark.parametrize("scene_idx", [9, 41, 75, 76])
    def test_noise_floor_costs_no_extra_trials(self, monkeypatch, scene_idx):
        # These solves end with a step whose true decrease is below the rounding
        # noise of the objective. A rejected step there must end the solve, not
        # raise the damping tenfold per trial up to its cap.
        cholesky = np.linalg.cholesky
        calls = []

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        graph = acceptance_graph(scene_idx)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        result = optimize(graph)
        assert result.converged
        assert len(calls) == result.iterations


@pytest.fixture
def cholesky_shapes(monkeypatch):
    """Shapes of the matrices np.linalg.cholesky is called on while the test runs."""
    cholesky = np.linalg.cholesky
    shapes = []

    def spy(a):
        shapes.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return shapes


def ego_only_graph():
    """The ego is the only agent and sees each object twice, so no agent is free."""
    objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
    edges = [
        (0, k, Pose2(o.x + dx, o.y + dy, o.theta + dt), (2.0, 2.0, 4.0))
        for k, o in enumerate(objs)
        for dx, dy, dt in ((0.1, -0.2, 0.05), (-0.15, 0.1, -0.03))
    ]
    return graph_from_edges(("ego",), (Pose2.identity(),), 0, objs, edges)


def repeated_edge_graph():
    """two_agent_graph plus a second, different measurement of a1's first edge."""
    graph = two_agent_graph()[0]
    edges = [(e.agent_index, e.object_index, e.measurement, e.info) for e in graph.edges]
    a, o, z, _ = next(e for e in edges if e[0] != graph.ego_index)
    extra = (a, o, Pose2(z.x + 0.4, z.y - 0.3, z.theta + 0.1), (3.0, 0.5, 2.0))
    objects = [Pose2(*p) for p in graph.object_poses.tolist()]
    return graph_from_edges(graph.agent_ids, graph.agent_poses, graph.ego_index, objects, edges + [extra])


class TestSchurStep:
    LAMBDAS = (1e-6, 1e-4, 1e-1, 10.0)

    def dense_and_schur(self, graph, lam, rng):
        """The Schur step and the dense solve of (JᵀJ + lam I) delta = -Jᵀr at a perturbed state."""
        prob = _Problem(graph)
        poses = prob.p0.copy()
        poses[prob.free_nodes] += rng.uniform(-0.3, 0.3, (len(prob.free_nodes), 3))
        blocks = prob.normal_blocks(poses, *prob.evaluate(poses))
        hess, grad = dense_normal_equations(blocks)
        damped = hess + lam * np.eye(prob.n_free)
        return _schur_step(*blocks, lam), np.linalg.solve(damped, -grad), damped

    def assert_step_matches(self, graph, rtol=1e-9, seed=98):
        rng = np.random.default_rng(seed)
        for lam in self.LAMBDAS:
            got, want, _ = self.dense_and_schur(graph, lam, rng)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)

    def test_random_graphs(self):
        rng = np.random.default_rng(99)
        for k in range(50):
            self.assert_step_matches(random_noisy_graph(rng), seed=k)

    def test_anisotropic_weights(self):
        rng = np.random.default_rng(105)
        for k in range(50):
            self.assert_step_matches(with_anisotropic_info(random_noisy_graph(rng), rng), seed=k)

    @pytest.mark.parametrize(
        "make_graph",
        [lambda: two_agent_graph()[0], edgeless_agent_graph, ego_only_graph, repeated_edge_graph],
        ids=["ego_with_edges", "agent_without_edges", "ego_only", "repeated_edge"],
    )
    def test_special_graphs(self, make_graph):
        self.assert_step_matches(make_graph())

    def test_detached_component(self):
        # A component detached from the ego leaves JᵀJ singular, so at small
        # damping both solves carry an error of order cond * eps.
        rng = np.random.default_rng(100)
        for lam in self.LAMBDAS:
            got, want, damped = self.dense_and_schur(detached_graph(), lam, rng)
            tol = 10.0 * np.linalg.cond(damped) * np.finfo(float).eps
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("make_graph", [ego_only_graph, repeated_edge_graph], ids=["ego_only", "repeated_edge"])
    def test_block_sums_match_the_dense_jacobian(self, make_graph):
        # A repeated (agent, object) edge must add to the cross block, not overwrite it.
        TestNormalEquations().assert_match_dense(make_graph(), np.random.default_rng(101))

    def test_cholesky_only_on_the_reduced_system(self, cholesky_shapes):
        rng = np.random.default_rng(102)
        graphs = [acceptance_graph(9), detached_graph(), ego_only_graph(), repeated_edge_graph()]
        for graph in graphs + [random_noisy_graph(rng) for _ in range(5)]:
            cholesky_shapes.clear()
            result = optimize(graph)
            n = 3 * (len(graph.agent_ids) - 1)
            assert result.iterations > 0
            assert set(cholesky_shapes) == {(n, n)}

    def test_ego_only_graph_solves_the_objects(self):
        # Equal x/y weights and an identity ego: each object's optimum is the
        # mean of its two measurements.
        graph = ego_only_graph()
        result = optimize(graph)
        assert result.converged
        for k, obj in enumerate(result.object_poses):
            zs = [e.measurement for e in graph.edges if e.object_index == k]
            want = (sum(z.x for z in zs) / 2, sum(z.y for z in zs) / 2, sum(z.theta for z in zs) / 2)
            np.testing.assert_allclose(obj, want, atol=1e-9)
        assert result.agent_poses["ego"] == graph.agent_poses[0]


class TestTermination:
    def test_nothing_to_solve(self):
        graph = graph_from_edges(("ego",), (Pose2(3.0, 4.0, 1.0),), 0, (), [])
        result = optimize(graph)
        assert (result.termination, result.converged, result.iterations, result.rejected_steps) == (
            "nothing_to_solve", True, 0, 0,
        )

    def test_gradient_tol(self):
        objs = [Pose2(4.0, 4.0, 0.3), Pose2(12.0, -3.0, -0.8)]
        messages = [exact_message("a0", Pose2.identity(), objs), exact_message("a1", Pose2(8.0, 2.0, 0.5), objs)]
        result = optimize(build_pose_graph(messages, "a0"))
        assert (result.termination, result.converged, result.iterations) == ("gradient_tol", True, 0)

    def test_decrease_tol(self):
        result = optimize(random_noisy_graph(np.random.default_rng(5)))
        assert (result.termination, result.converged, result.rejected_steps) == ("decrease_tol", True, 0)
        assert result.iterations == len(result.objective_trace) - 1

    @pytest.mark.parametrize("scene_idx", [9, 41])
    def test_no_step_accepted(self, cholesky_shapes, scene_idx):
        result = optimize(acceptance_graph(scene_idx))
        assert (result.termination, result.converged) == ("no_step_accepted", True)
        # The last iteration's trial was rejected and added nothing to the trace.
        assert result.iterations == len(result.objective_trace)
        assert result.rejected_steps == len(cholesky_shapes) - (len(result.objective_trace) - 1) == 1

    @pytest.mark.parametrize("make_graph", [lambda: random_noisy_graph(np.random.default_rng(5)), ego_only_graph])
    def test_max_iterations(self, make_graph):
        result = optimize(make_graph(), SolverParams(max_iterations=1))
        assert (result.termination, result.converged, result.iterations) == ("max_iterations", False, 1)
        assert len(result.objective_trace) == 2


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
