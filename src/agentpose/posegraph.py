"""Agent-object pose graph construction and uncertainty-weighted optimization.

The graph is bipartite: agent nodes carry (noisy) global poses, object nodes
carry poses initialized from clustered detections, and each edge stores the
detecting agent's local box pose as a relative-pose measurement together with
its information weight. Optimization minimizes the weighted pose consistency
error over all edges with the ego agent's pose held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .geometry import Pose2, compose, inverse, wrap_angles
from .uncertainty import BoxDetection, InfoMatrix3, information_matrix, transform_box

DEFAULT_CLUSTER_GAP = 2.0


@dataclass(frozen=True)
class AgentMessage:
    """One agent's collaboration payload: measured global pose plus local-frame boxes."""

    agent_id: str
    measured_pose: Pose2
    boxes: tuple[BoxDetection, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True)
class GraphEdge:
    agent_index: int
    object_index: int
    measurement: Pose2
    info: InfoMatrix3


@dataclass(frozen=True)
class PoseGraph:
    """Bipartite agent-object graph; exactly one agent (the ego) is gauge-fixed."""

    agent_ids: tuple[str, ...]
    agent_poses: tuple[Pose2, ...]
    ego_index: int
    object_poses: tuple[Pose2, ...]
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
        object.__setattr__(self, "agent_poses", tuple(self.agent_poses))
        object.__setattr__(self, "object_poses", tuple(self.object_poses))
        object.__setattr__(self, "edges", tuple(self.edges))
        n_a = len(self.agent_ids)
        if len(self.agent_poses) != n_a:
            raise ValueError("agent_ids and agent_poses must align")
        if len(set(self.agent_ids)) != n_a:
            raise ValueError("agent ids must be unique")
        if not 0 <= self.ego_index < n_a:
            raise ValueError(f"ego_index {self.ego_index} out of range for {n_a} agents")
        degree = [0] * len(self.object_poses)
        for e in self.edges:
            if not 0 <= e.agent_index < n_a:
                raise ValueError(f"edge agent index {e.agent_index} out of range")
            if not 0 <= e.object_index < len(self.object_poses):
                raise ValueError(f"edge object index {e.object_index} out of range")
            degree[e.object_index] += 1
        if any(d < 2 for d in degree):
            raise ValueError("every object node must have degree >= 2")

    @property
    def ego_id(self) -> str:
        return self.agent_ids[self.ego_index]


@dataclass(frozen=True)
class SolverParams:
    """Levenberg-Marquardt controls for the pose-consistency problem."""

    max_iterations: int = 1000
    initial_damping: float = 1e-4
    damping_increase: float = 10.0
    damping_decrease: float = 0.5
    convergence_tol: float = 1e-9
    gradient_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_damping <= 0.0:
            raise ValueError("initial_damping must be positive")
        if self.damping_increase <= 1.0 or not 0.0 < self.damping_decrease < 1.0:
            raise ValueError("damping factors must satisfy increase > 1, 0 < decrease < 1")
        if self.convergence_tol <= 0.0 or self.gradient_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SolveResult:
    agent_poses: dict[str, Pose2]
    object_poses: tuple[Pose2, ...]
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]


def _components(xs: np.ndarray, ys: np.ndarray, gap2: float) -> list[list[int]]:
    """Connected components of the points linked by squared distance below gap2.

    Components are ordered by smallest member, members ascending.
    """
    n = len(xs)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        d2 = (xs[i + 1 :] - xs[i]) ** 2 + (ys[i + 1 :] - ys[i]) ** 2
        for j in np.nonzero(d2 < gap2)[0]:
            ri, rj = find(i), find(int(j) + i + 1)
            if ri != rj:
                parent[rj] = ri

    components: dict[int, list[int]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    return list(components.values())


def cluster_boxes(
    global_boxes: Sequence[tuple[str, BoxDetection]],
    center_gap: float = DEFAULT_CLUSTER_GAP,
) -> list[list[int]]:
    """Group boxes (given in a common global frame) into object clusters.

    Clusters start as connected components of the graph linking boxes whose
    BEV center distance is below center_gap. A component never keeps two boxes
    of the same agent: only the highest-confidence one stays (ties to the
    lowest index), the rest are split off as singleton clusters. Dropping a
    box can disconnect the boxes kept, so a component that lost one is split
    again into the connected components of its kept boxes. Every cluster is
    therefore connected under center_gap and holds at most one box per agent.
    Clusters are ordered by smallest member index, members ascending.
    """
    if center_gap <= 0.0:
        raise ValueError(f"center_gap must be positive, got {center_gap!r}")
    if not global_boxes:
        return []
    xs = np.array([b.cx for _, b in global_boxes])
    ys = np.array([b.cy for _, b in global_boxes])
    gap2 = center_gap * center_gap

    clusters: list[list[int]] = []
    for members in _components(xs, ys, gap2):
        by_agent: dict[str, list[int]] = {}
        for i in members:
            by_agent.setdefault(global_boxes[i][0], []).append(i)
        kept: list[int] = []
        for indices in by_agent.values():
            best = max(indices, key=lambda i: (global_boxes[i][1].confidence, -i))
            kept.append(best)
            clusters.extend([i] for i in indices if i != best)
        kept.sort()
        if len(kept) == len(members):
            clusters.append(kept)
        else:
            clusters.extend([kept[k] for k in part] for part in _components(xs[kept], ys[kept], gap2))
    clusters.sort(key=lambda c: c[0])
    return clusters


def init_object_pose(members: Sequence[tuple[BoxDetection, Pose2]]) -> Pose2:
    """Initial object pose from cluster members as (box, owner measured pose) pairs.

    The center is the per-axis inverse-variance weighted mean of the global
    box centers; the heading is the circular mean of global headings weighted
    by inverse heading variance.
    """
    if not members:
        raise ValueError("cluster must be non-empty")
    sx = sy = swx = swy = 0.0
    sin_acc = cos_acc = 0.0
    for box, owner in members:
        g = compose(owner, box.local_pose())
        wx = 1.0 / box.var_x
        wy = 1.0 / box.var_y
        wt = 1.0 / box.var_theta
        sx += wx * g.x
        sy += wy * g.y
        swx += wx
        swy += wy
        sin_acc += wt * math.sin(g.theta)
        cos_acc += wt * math.cos(g.theta)
    return Pose2(sx / swx, sy / swy, math.atan2(sin_acc, cos_acc))


def build_pose_graph(
    messages: Sequence[AgentMessage],
    ego_id: str,
    center_gap: float = DEFAULT_CLUSTER_GAP,
) -> PoseGraph:
    """Assemble the agent-object pose graph from one collaboration round.

    Boxes are lifted to the global frame through each sender's measured pose,
    clustered, and every cluster seen by at least two agents becomes an object
    node (single-view clusters constrain nothing pairwise and are pruned).
    Node and edge order depend only on agent ids and box order, so permuting
    the input messages yields an identical graph.
    """
    ids = [m.agent_id for m in messages]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate agent_id in messages")
    if ego_id not in ids:
        raise ValueError(f"ego agent {ego_id!r} not present in messages")
    ordered = sorted(messages, key=lambda m: m.agent_id)
    agent_index = {m.agent_id: i for i, m in enumerate(ordered)}

    flat: list[tuple[int, BoxDetection]] = []
    global_boxes: list[tuple[str, BoxDetection]] = []
    for m in ordered:
        for box in m.boxes:
            flat.append((agent_index[m.agent_id], box))
            global_boxes.append((m.agent_id, transform_box(box, m.measured_pose)))

    object_poses: list[Pose2] = []
    edges: list[GraphEdge] = []
    for cluster in cluster_boxes(global_boxes, center_gap):
        if len(cluster) < 2:
            continue
        obj_idx = len(object_poses)
        object_poses.append(
            init_object_pose([(flat[i][1], ordered[flat[i][0]].measured_pose) for i in cluster])
        )
        for i in cluster:
            a_idx, box = flat[i]
            edges.append(GraphEdge(a_idx, obj_idx, box.local_pose(), information_matrix(box)))

    return PoseGraph(
        agent_ids=tuple(m.agent_id for m in ordered),
        agent_poses=tuple(m.measured_pose for m in ordered),
        ego_index=agent_index[ego_id],
        object_poses=tuple(object_poses),
        edges=tuple(edges),
    )


class _Problem:
    """Packed array view of a pose graph for vectorized residual/Jacobian evaluation.

    _linearize gives each edge's weighted residual and its weighted Jacobian
    blocks, A for the agent pose and O for the object pose. normal_equations
    sums JᵀJ and Jᵀr over the free state (every node but the ego) from those
    blocks; residuals_and_jacobian scatters them into the dense Jacobian, a
    view kept for verification only.
    """

    def __init__(self, graph: PoseGraph):
        n_a = len(graph.agent_ids)
        self.n_agents = n_a
        self.n_nodes = n_a + len(graph.object_poses)
        self.ego = graph.ego_index
        self.free_nodes = np.array([i for i in range(self.n_nodes) if i != self.ego], dtype=int)
        self.n_free = 3 * len(self.free_nodes)
        self.p0 = np.array([p.as_tuple() for p in graph.agent_poses + graph.object_poses], dtype=float)
        m = len(graph.edges)
        self.m = m
        self.ai = np.array([e.agent_index for e in graph.edges], dtype=int)
        self.oi = np.array([n_a + e.object_index for e in graph.edges], dtype=int)
        self.zx = np.array([e.measurement.x for e in graph.edges])
        self.zy = np.array([e.measurement.y for e in graph.edges])
        self.zt = np.array([e.measurement.theta for e in graph.edges])
        self.sqrt_w = np.sqrt(np.array([e.info.diagonal() for e in graph.edges], dtype=float)).reshape(m, 3)

        # State column of each of an edge's six Jacobian columns [A | O]. The
        # ego's columns go to one extra slot past the free state, dropped later.
        slot = np.full(self.n_nodes, len(self.free_nodes))
        slot[self.free_nodes] = np.arange(len(self.free_nodes))
        self._cols = (3 * slot[np.stack((self.ai, self.oi), axis=1)][:, :, None] + np.arange(3)).reshape(m, 6)
        # Flat index of every entry of an edge's [A|O]ᵀ[A | O | r] (6 x 7) into
        # the augmented JᵀJ (size x size, row-major) followed by Jᵀr (size).
        size = self.n_free + 3
        self._sum_index = np.concatenate(
            (self._cols[:, :, None] * size + self._cols[:, None, :], size * size + self._cols[:, :, None]),
            axis=2,
        ).ravel()

    def _linearize(self, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted residuals, flat (3m,), and the weighted blocks [A | O], shape (m, 3, 6)."""
        tj = poses[self.ai]
        tk = poses[self.oi]
        dx = tk[:, 0] - tj[:, 0]
        dy = tk[:, 1] - tj[:, 1]
        cj = np.cos(tj[:, 2])
        sj = np.sin(tj[:, 2])
        ax = cj * dx + sj * dy
        ay = -sj * dx + cj * dy
        cz = np.cos(self.zt)
        sz = np.sin(self.zt)
        e = np.empty((self.m, 3))
        e[:, 0] = cz * (ax - self.zx) + sz * (ay - self.zy)
        e[:, 1] = -sz * (ax - self.zx) + cz * (ay - self.zy)
        e[:, 2] = wrap_angles(tk[:, 2] - tj[:, 2] - self.zt)

        # Rotation R(-(theta_z + theta_j)) appears in both translation blocks.
        phi = self.zt + tj[:, 2]
        cphi = np.cos(phi)
        sphi = np.sin(phi)
        jac = np.zeros((self.m, 3, 6))
        jac[:, 0, 0] = -cphi
        jac[:, 0, 1] = -sphi
        jac[:, 0, 2] = cz * ay - sz * ax
        jac[:, 1, 0] = sphi
        jac[:, 1, 1] = -cphi
        jac[:, 1, 2] = -sz * ay - cz * ax
        jac[:, 2, 2] = -1.0
        jac[:, :2, 3:5] = -jac[:, :2, :2]
        jac[:, 2, 5] = 1.0
        return (e * self.sqrt_w).ravel(), jac * self.sqrt_w[:, :, None]

    def residuals(self, poses: np.ndarray) -> np.ndarray:
        return self._linearize(poses)[0]

    def normal_equations(self, r: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """JᵀJ and Jᵀr over the free state, summed from the edges' [A|O]ᵀ[A | O | r]."""
        per_edge = jac.transpose(0, 2, 1) @ np.concatenate((jac, r.reshape(-1, 3, 1)), axis=2)
        size = self.n_free + 3
        sums = np.bincount(self._sum_index, per_edge.ravel(), minlength=size * (size + 1))
        hess = sums[: size * size].reshape(size, size)[: self.n_free, : self.n_free]
        return hess, sums[size * size : size * size + self.n_free]

    def residuals_and_jacobian(self, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and the dense (3m, n_free) Jacobian, scattered from the edge blocks."""
        r, jac = self._linearize(poses)
        dense = np.zeros((self.m, 3, self.n_free + 3))
        np.put_along_axis(dense, np.broadcast_to(self._cols[:, None, :], jac.shape), jac, axis=2)
        return r, dense.reshape(3 * self.m, self.n_free + 3)[:, : self.n_free]

    def apply_step(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        out = poses.copy()
        out[self.free_nodes] += delta.reshape(-1, 3)
        out[self.free_nodes, 2] = wrap_angles(out[self.free_nodes, 2])
        return out


def optimize(graph: PoseGraph, params: SolverParams = SolverParams()) -> SolveResult:
    """Minimize the weighted pose-consistency objective with Levenberg-Marquardt.

    Each iteration sums the normal equations from the per-edge Jacobian blocks;
    the dense Jacobian is never formed. The ego pose never enters the state
    vector and is returned bit-identical. The objective over accepted steps is
    non-increasing by construction; a singular normal system only raises the
    damping, never an error. The solve stops when a step would gain less than
    convergence_tol: measured on an accepted step, predicted by the linear
    model on a rejected one. Returns the best state found even when the
    iteration budget runs out.
    """
    prob = _Problem(graph)
    poses = prob.p0.copy()
    r, jac = prob._linearize(poses)
    objective = float(r @ r)
    trace = [objective]
    lam = params.initial_damping
    iterations = 0
    converged = False

    if prob.n_free == 0 or prob.m == 0:
        converged = True
    else:
        identity = np.eye(prob.n_free)
        for _ in range(params.max_iterations):
            hess, grad = prob.normal_equations(r, jac)
            if float(np.max(np.abs(grad), initial=0.0)) < params.gradient_tol:
                converged = True
                break
            iterations += 1
            accepted = False
            decrease = 0.0
            while lam < 1e15:
                damped = hess + lam * identity
                try:
                    # Cholesky is the positive-definiteness guard: a component
                    # detached from the ego leaves JᵀJ singular, and solve alone
                    # would accept steps along the free gauge.
                    np.linalg.cholesky(damped)
                    delta = np.linalg.solve(damped, -grad)
                except np.linalg.LinAlgError:
                    lam *= params.damping_increase
                    continue
                if not np.all(np.isfinite(delta)):
                    lam *= params.damping_increase
                    continue
                candidate = prob.apply_step(poses, delta)
                r_new, jac_new = prob._linearize(candidate)
                objective_new = float(r_new @ r_new)
                if objective_new < objective:
                    decrease = objective - objective_new
                    poses, r, jac = candidate, r_new, jac_new
                    objective = objective_new
                    lam = max(lam * params.damping_decrease, 1e-15)
                    accepted = True
                    break
                # The linear model's decrease only shrinks as lam grows; once it
                # is below tolerance, more damping cannot gain anything real.
                if float(delta @ (lam * delta - grad)) < params.convergence_tol:
                    break
                lam *= params.damping_increase
            if not accepted:
                # No step accepted: the damping hit its cap, or the linear
                # model predicts a gain below convergence_tol.
                converged = True
                break
            trace.append(objective)
            if decrease < params.convergence_tol:
                converged = True
                break

    agent_poses: dict[str, Pose2] = {}
    for i, aid in enumerate(graph.agent_ids):
        if i == prob.ego:
            agent_poses[aid] = graph.agent_poses[i]
        else:
            agent_poses[aid] = Pose2(poses[i, 0], poses[i, 1], poses[i, 2])
    object_poses = tuple(
        Pose2(poses[prob.n_agents + k, 0], poses[prob.n_agents + k, 1], poses[prob.n_agents + k, 2])
        for k in range(len(graph.object_poses))
    )
    return SolveResult(
        agent_poses=agent_poses,
        object_poses=object_poses,
        objective=objective,
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(trace),
    )


def relative_poses(agent_poses: Mapping[str, Pose2], ego_id: str) -> dict[str, Pose2]:
    """Relative poses mapping each agent's frame into the ego frame; ego maps to identity."""
    if ego_id not in agent_poses:
        raise ValueError(f"ego agent {ego_id!r} not present")
    ego_inv = inverse(agent_poses[ego_id])
    out: dict[str, Pose2] = {}
    for aid, pose in agent_poses.items():
        out[aid] = Pose2.identity() if aid == ego_id else compose(ego_inv, pose)
    return out


def with_uniform_info(graph: PoseGraph, info: InfoMatrix3 = InfoMatrix3.identity()) -> PoseGraph:
    """Copy of the graph with every edge's information matrix replaced."""
    return replace(graph, edges=tuple(replace(e, info=info) for e in graph.edges))
