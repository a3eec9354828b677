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
    """Solved poses and why the solve stopped.

    termination is one of "nothing_to_solve" (no free node or no edge),
    "gradient_tol", "decrease_tol" (an accepted step gained less than
    convergence_tol), "no_step_accepted" (the damping hit its cap, or the
    linear model predicts a gain below convergence_tol) and "max_iterations".
    converged is true for all but "max_iterations". rejected_steps counts the
    trial steps not accepted.
    """

    agent_poses: dict[str, Pose2]
    object_poses: tuple[Pose2, ...]
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]
    termination: str
    rejected_steps: int


def _components(xs: np.ndarray, ys: np.ndarray, gap2: float) -> list[list[int]]:
    """Connected components of the points linked by squared distance below gap2.

    Components are ordered by smallest member, members ascending. Candidate
    partners come from a sort by x: a linked pair is less than the gap apart
    in x, so each point's candidates are the points after it in x order up to
    x + gap. The squared-distance test then runs on all candidates at once.
    """
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    sx = xs[order]
    sy = ys[order]
    # The slack keeps every pair whose rounded squared distance is below gap2
    # among the candidates; the exact test below decides which are linked.
    reach = np.searchsorted(sx, sx + math.sqrt(gap2) * (1.0 + 1e-6), side="right")
    counts = reach - np.arange(1, n + 1)
    # Pair t of sorted point p is (p, p + 1 + t - (number of pairs before p's)).
    first = np.repeat(np.arange(n), counts)
    second = np.arange(len(first)) + np.repeat(reach - np.cumsum(counts), counts)
    linked = (sx[second] - sx[first]) ** 2 + (sy[second] - sy[first]) ** 2 < gap2

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(order[first[linked]].tolist(), order[second[linked]].tolist()):
        ri, rj = find(i), find(j)
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
    blocks, A for the agent pose and O for the object pose. block_sums sums
    JᵀJ and Jᵀr over the free state (every node but the ego) from those blocks
    into the agent, cross and object blocks that the Schur step takes.
    normal_equations assembles the dense JᵀJ and Jᵀr from the same sums and
    residuals_and_jacobian scatters the edge blocks into the dense Jacobian;
    both are views kept for verification only.
    """

    def __init__(self, graph: PoseGraph):
        n_a = len(graph.agent_ids)
        n_o = len(graph.object_poses)
        self.n_agents = n_a
        self.n_nodes = n_a + n_o
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

        # Free state: the free agents (n_free_agents entries), then the objects.
        # The ego's rows and columns go to one extra agent slot, sliced off.
        self.n_free_agents = 3 * (n_a - 1)
        agent_slot = np.full(n_a, n_a - 1)
        agent_slot[self.free_nodes[self.free_nodes < n_a]] = np.arange(n_a - 1)
        ra = 3 * agent_slot[self.ai][:, None] + np.arange(3)
        ro = 3 * (self.oi - n_a)[:, None] + np.arange(3)
        na, no = 3 * n_a, 3 * n_o
        # Flat index of every entry of an edge's [A|O]ᵀ[A | O | r] (6 x 7) into
        # H_aa (na x na), H_ao (na x no), H_oo (n_o x 3 x 3), g_a (na) and g_o
        # (no), laid end to end. OᵀA is AᵀO transposed and goes to a discard
        # slot. Entries are summed, so a repeated edge counts twice.
        self._bounds = np.cumsum([na * na, na * no, 3 * no, na, no]).tolist()
        index = np.empty((m, 6, 7), dtype=np.intp)
        index[:, :3, :3] = ra[:, :, None] * na + ra[:, None, :]
        index[:, :3, 3:6] = self._bounds[0] + ra[:, :, None] * no + ro[:, None, :]
        index[:, 3:, :3] = self._bounds[-1]
        index[:, 3:, 3:6] = self._bounds[1] + 3 * ro[:, :, None] + np.arange(3)
        index[:, :3, 6] = self._bounds[2] + ra
        index[:, 3:, 6] = self._bounds[3] + ro
        self._block_index = index.ravel()

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

    def block_sums(self, r: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, ...]:
        """JᵀJ and Jᵀr over the free state as blocks (H_aa, H_ao, H_oo, g_a, g_o).

        H_aa and H_ao are the free agents' rows, H_oo holds one 3x3 block per
        object, g_a and g_o are the agents' and the objects' parts of Jᵀr.
        """
        per_edge = jac.transpose(0, 2, 1) @ np.concatenate((jac, r.reshape(-1, 3, 1)), axis=2)
        b = self._bounds
        sums = np.bincount(self._block_index, per_edge.ravel(), minlength=b[-1] + 1)
        fa = self.n_free_agents
        na = fa + 3
        return (
            sums[: b[0]].reshape(na, na)[:fa, :fa],
            sums[b[0] : b[1]].reshape(na, -1)[:fa],
            sums[b[1] : b[2]].reshape(-1, 3, 3),
            sums[b[2] : b[2] + fa],
            sums[b[3] : b[4]],
        )

    def normal_equations(self, r: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense JᵀJ and Jᵀr over the free state, assembled from block_sums."""
        h_aa, h_ao, h_oo, g_a, g_o = self.block_sums(r, jac)
        fa = self.n_free_agents
        n_o = len(h_oo)
        hess = np.zeros((self.n_free, self.n_free))
        hess[:fa, :fa] = h_aa
        hess[:fa, fa:] = h_ao
        hess[fa:, :fa] = h_ao.T
        objects = hess[fa:, fa:].reshape(n_o, 3, n_o, 3)
        objects[np.arange(n_o), :, np.arange(n_o), :] = h_oo
        return hess, np.concatenate((g_a, g_o))

    def residuals_and_jacobian(self, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and the dense (3m, n_free) Jacobian, scattered from the edge blocks."""
        r, jac = self._linearize(poses)
        slot = np.full(self.n_nodes, len(self.free_nodes))
        slot[self.free_nodes] = np.arange(len(self.free_nodes))
        cols = (3 * slot[np.stack((self.ai, self.oi), axis=1)][:, :, None] + np.arange(3)).reshape(self.m, 1, 6)
        dense = np.zeros((self.m, 3, self.n_free + 3))
        np.put_along_axis(dense, np.broadcast_to(cols, jac.shape), jac, axis=2)
        return r, dense.reshape(3 * self.m, self.n_free + 3)[:, : self.n_free]

    def apply_step(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        out = poses.copy()
        out[self.free_nodes] += delta.reshape(-1, 3)
        out[self.free_nodes, 2] = wrap_angles(out[self.free_nodes, 2])
        return out


def _schur_step(
    h_aa: np.ndarray, h_ao: np.ndarray, h_oo: np.ndarray, g_a: np.ndarray, g_o: np.ndarray, lam: float
) -> np.ndarray:
    """Solve (JᵀJ + lam I) delta = -Jᵀr from block_sums by eliminating the objects.

    With C the damped object blocks, the agent step solves the Schur complement
    S = H_aa + lam I - H_ao C⁻¹ H_aoᵀ, and each object's step follows from it.
    Every block of C is positive definite, so the damped system is positive
    definite exactly when S is: the Cholesky of S is the guard. It raises
    LinAlgError otherwise, e.g. for a component detached from the ego, whose
    JᵀJ is singular and whose free gauge a plain solve would step along.
    """
    fa, n_o = len(g_a), len(h_oo)
    c_inv = np.linalg.inv(h_oo + lam * np.eye(3))
    # W = H_ao C⁻¹, one (fa x 3) @ (3 x 3) product per object.
    w = (h_ao.reshape(fa, n_o, 3).transpose(1, 0, 2) @ c_inv).transpose(1, 0, 2).reshape(fa, 3 * n_o)
    s = h_aa - w @ h_ao.T
    s.flat[:: fa + 1] += lam  # + lam I
    np.linalg.cholesky(s)
    delta_a = np.linalg.solve(s, w @ g_o - g_a)
    delta_o = c_inv @ (-g_o - h_ao.T @ delta_a).reshape(n_o, 3, 1)
    return np.concatenate((delta_a, delta_o.ravel()))


def optimize(graph: PoseGraph, params: SolverParams = SolverParams()) -> SolveResult:
    """Minimize the weighted pose-consistency objective with Levenberg-Marquardt.

    Each iteration sums the normal equations from the per-edge Jacobian blocks;
    the dense Jacobian is never formed. Each trial step eliminates the 3x3
    object blocks and solves the Schur complement over the free agents
    (3(n_agents-1) square), then back-substitutes the object steps. The ego
    pose never enters the state vector and is returned bit-identical. The
    objective over accepted steps is non-increasing by construction; a
    singular normal system only raises the damping, never an error. The solve
    stops when a step would gain less than convergence_tol: measured on an
    accepted step, predicted by the linear model on a rejected one. Returns
    the best state found even when the iteration budget runs out; the
    result's termination says which exit was taken.
    """
    prob = _Problem(graph)
    poses = prob.p0.copy()
    r, jac = prob._linearize(poses)
    objective = float(r @ r)
    trace = [objective]
    lam = params.initial_damping
    iterations = 0
    trials = 0

    if prob.n_free == 0 or prob.m == 0:
        termination = "nothing_to_solve"
    else:
        termination = "max_iterations"
        for _ in range(params.max_iterations):
            blocks = prob.block_sums(r, jac)
            grad = np.concatenate(blocks[3:])
            if float(np.max(np.abs(grad), initial=0.0)) < params.gradient_tol:
                termination = "gradient_tol"
                break
            iterations += 1
            accepted = False
            decrease = 0.0
            while lam < 1e15:
                trials += 1
                try:
                    delta = _schur_step(*blocks, lam)
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
                termination = "no_step_accepted"
                break
            trace.append(objective)
            if decrease < params.convergence_tol:
                termination = "decrease_tol"
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
        converged=termination != "max_iterations",
        objective_trace=tuple(trace),
        termination=termination,
        rejected_steps=trials - (len(trace) - 1),
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
