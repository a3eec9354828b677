"""Shared test scaffolding: randomized problem instances and the independent
least-squares solve used to cross-check the optimizer."""

import math

import numpy as np
from scipy.optimize import least_squares

from agentpose.geometry import Pose2, compose, inverse
from agentpose.oracles import graph_residual_oracle
from agentpose.posegraph import GraphEdge, PoseGraph
from agentpose.uncertainty import InfoMatrix3


def random_noisy_graph(rng) -> PoseGraph:
    """Small inconsistent graph with randomized measurements and weights."""
    n_agents = int(rng.integers(2, 4))
    n_objects = int(rng.integers(3, 5))
    agents = [Pose2(*rng.uniform(-20, 20, 2), rng.uniform(-math.pi, math.pi)) for _ in range(n_agents)]
    objects = [Pose2(*rng.uniform(-20, 20, 2), rng.uniform(-math.pi, math.pi)) for _ in range(n_objects)]
    edges = []
    for a_idx, agent in enumerate(agents):
        for o_idx, obj in enumerate(objects):
            z = compose(inverse(agent), obj)
            z = Pose2(z.x + rng.normal(0, 0.2), z.y + rng.normal(0, 0.2), z.theta + rng.normal(0, 0.05))
            info = InfoMatrix3(*rng.uniform(0.5, 5.0, 3))
            edges.append(GraphEdge(a_idx, o_idx, z, info))
    init_objects = [
        Pose2(o.x + rng.normal(0, 0.3), o.y + rng.normal(0, 0.3), o.theta + rng.normal(0, 0.1))
        for o in objects
    ]
    measured = [Pose2(a.x + rng.normal(0, 0.3), a.y + rng.normal(0, 0.3), a.theta + rng.normal(0, 0.1)) for a in agents]
    return PoseGraph(
        agent_ids=tuple(f"a{i}" for i in range(n_agents)),
        agent_poses=tuple(measured),
        ego_index=0,
        object_poses=tuple(init_objects),
        edges=tuple(edges),
    )


def independent_solver_objective(graph: PoseGraph) -> float:
    """Final objective from scipy's generic least-squares on a matrix-built residual."""
    free_nodes = [i for i in range(len(graph.agent_ids) + len(graph.object_poses)) if i != graph.ego_index]
    agent_poses = [p.as_tuple() for p in graph.agent_poses]
    object_poses = [p.as_tuple() for p in graph.object_poses]
    edges = [
        (e.agent_index, e.object_index, e.measurement.as_tuple(), e.info.diagonal())
        for e in graph.edges
    ]

    def fun(state):
        return graph_residual_oracle(agent_poses, object_poses, edges, state, free_nodes, graph.ego_index)

    all_poses = agent_poses + object_poses
    x0 = np.array([all_poses[node] for node in free_nodes], dtype=float).ravel()
    sol = least_squares(fun, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=50000)
    return 2.0 * sol.cost
