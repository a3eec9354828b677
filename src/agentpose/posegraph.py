"""Agent-object pose graph construction and uncertainty-weighted optimization.

The graph is bipartite: agent nodes carry (noisy) global poses, object nodes
carry poses initialized from clustered detections, and each edge stores the
detecting agent's local box pose as a relative-pose measurement together with
its information weight. Optimization minimizes the weighted pose consistency
error over all edges with the ego agent's pose held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .geometry import Pose2, _cos_sin, close_pairs, compose, compose_columns, inverse, wrap_angles
# information_matrix and transform_box are not called here; both stay bound as names
# in perfbench/tracing.py's INTERCEPTED table, which rebinds them in this module.
from .uncertainty import BoxDetection, information_matrix, transform_box  # noqa: F401

DEFAULT_CLUSTER_GAP = 2.0
# Columns of a message's box block: the BoxDetection fields but agent_id.
BOX_WIDTH = 11
# Pose2 is frozen, so every relative_poses result can share one ego identity.
_IDENTITY = Pose2.identity()


def _bitwise_key(obj) -> tuple:
    """Field values, arrays as bytes (their dtype and row width are fixed): equal keys mean fields equal bit for bit."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in (getattr(obj, f.name) for f in fields(obj)))


@dataclass(frozen=True, eq=False)
class AgentMessage:
    """One agent's collaboration payload: measured global pose plus local-frame boxes.

    The boxes are one read-only (k, 11) float array, a row per box in the
    field order of BoxDetection: cx, cy, cz, length, width, height, theta,
    var_x, var_y, var_theta, confidence. The block is validated once, with
    BoxDetection's errors, and its headings are wrapped as normalize_angle
    does. Equality compares the block bit for bit.
    """

    agent_id: str
    measured_pose: Pose2
    block: np.ndarray

    def __post_init__(self) -> None:
        block = self.block
        if not isinstance(block, np.ndarray):
            raise ValueError(f"block must be a (k, {BOX_WIDTH}) float array, got {type(block).__name__}")
        if block.ndim != 2 or block.shape[1] != BOX_WIDTH or not np.can_cast(block.dtype, float, "same_kind"):
            raise ValueError(f"block must be (k, {BOX_WIDTH}) float, got {block.dtype} {block.shape}")
        block = np.array(block, dtype=float)
        bad = ~(
            np.isfinite(block).all(axis=1)
            & (block[:, 3:6] > 0.0).all(axis=1)
            & (block[:, 7:10] > 0.0).all(axis=1)
            & (block[:, 10] >= 0.0)
            & (block[:, 10] <= 1.0)
        )
        if bad.any():
            BoxDetection(*block[np.argmax(bad)].tolist())  # raises the first bad box's error
        block[:, 6] = wrap_angles(block[:, 6])
        block.flags.writeable = False
        object.__setattr__(self, "block", block)

    def __eq__(self, other: object) -> bool:
        return _bitwise_key(self) == _bitwise_key(other) if isinstance(other, AgentMessage) else NotImplemented

    @cached_property
    def boxes(self) -> tuple[BoxDetection, ...]:
        """The boxes as BoxDetection views of the sender, built from the block on first read."""
        return tuple(BoxDetection(*row, agent_id=self.agent_id) for row in self.block.tolist())


def box_columns(messages: Sequence[AgentMessage]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of the messages stacked into one (K, 11) block, and each row's message index."""
    block = np.concatenate([np.empty((0, BOX_WIDTH))] + [m.block for m in messages])
    owner = np.repeat(np.arange(len(messages)), [len(m.block) for m in messages])
    return block, owner


@dataclass(frozen=True)
class GraphEdge:
    """One edge read back from a PoseGraph's columns; info is (w_x, w_y, w_theta)."""

    agent_index: int
    object_index: int
    measurement: Pose2
    info: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class PoseGraph:
    """Bipartite agent-object graph; exactly one agent (the ego) is gauge-fixed.

    Agents are named Pose2s; objects and edges are read-only columns:
    object_poses (n_o, 3) the global (x, y, theta) of each object, and per edge
    edge_nodes (m, 2) its agent and object index, measurements (m, 3) its local
    box pose and info (m, 3) its diagonal information weight. Poses are finite,
    headings wrapped as normalize_angle does. Equality compares bit for bit.
    """

    agent_ids: tuple[str, ...]
    agent_poses: tuple[Pose2, ...]
    ego_index: int
    object_poses: np.ndarray
    edge_nodes: np.ndarray
    measurements: np.ndarray
    info: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "agent_ids", tuple(self.agent_ids))
        object.__setattr__(self, "agent_poses", tuple(self.agent_poses))
        n_a = len(self.agent_ids)
        if len(self.agent_poses) != n_a:
            raise ValueError("agent_ids and agent_poses must align")
        if len(set(self.agent_ids)) != n_a:
            raise ValueError("agent ids must be unique")
        if not 0 <= self.ego_index < n_a:
            raise ValueError(f"ego_index {self.ego_index} out of range for {n_a} agents")
        n_o, m = len(self.object_poses), len(self.edge_nodes)
        columns = (("object_poses", n_o, 3, float), ("edge_nodes", m, 2, np.intp),
                   ("measurements", m, 3, float), ("info", m, 3, float))
        for name, rows, width, dtype in columns:
            col = np.asarray(getattr(self, name))
            if col.shape != (rows, width) or not np.can_cast(col.dtype, dtype, "same_kind"):
                raise ValueError(f"{name} must be ({rows}, {width}) {np.dtype(dtype)}, got {col.dtype} {col.shape}")
            object.__setattr__(self, name, col.astype(dtype))
        if not np.all((0 <= self.edge_nodes) & (self.edge_nodes < (n_a, n_o))):
            raise ValueError("edge agent or object index out of range")
        if np.any(np.bincount(self.edge_nodes[:, 1], minlength=n_o) < 2):
            raise ValueError("every object node must have degree >= 2")
        if not (np.isfinite(self.object_poses).all() and np.isfinite(self.measurements).all()
                and ((self.info > 0.0) & np.isfinite(self.info)).all()):
            raise ValueError("poses must be finite and information weights positive and finite")
        for col in (self.object_poses, self.measurements):
            col[:, 2] = wrap_angles(col[:, 2])
        for name, *_ in columns:
            getattr(self, name).flags.writeable = False

    def __eq__(self, other: object) -> bool:
        return _bitwise_key(self) == _bitwise_key(other) if isinstance(other, PoseGraph) else NotImplemented

    @property
    def ego_id(self) -> str:
        return self.agent_ids[self.ego_index]

    @property
    def edges(self) -> tuple[GraphEdge, ...]:
        """The edges as GraphEdge views, built from the columns on every read."""
        rows = zip(self.edge_nodes.tolist(), self.measurements.tolist(), self.info.tolist())
        return tuple(GraphEdge(a, o, Pose2(*z), tuple(w)) for (a, o), z, w in rows)


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
        if any(isinstance(v, float) and not math.isfinite(v) for v in (getattr(self, f.name) for f in fields(self))):
            raise ValueError("solver parameters must be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.initial_damping <= 0.0:
            raise ValueError("initial_damping must be positive")
        if self.damping_increase <= 1.0 or not 0.0 < self.damping_decrease < 1.0:
            raise ValueError("damping factors must satisfy increase > 1, 0 < decrease < 1")
        if self.convergence_tol <= 0.0 or self.gradient_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solved poses and why the solve stopped.

    termination is one of "nothing_to_solve" (no free node or no edge),
    "gradient_tol", "decrease_tol" (an accepted step gained less than
    convergence_tol), "no_step_accepted" (the damping hit its cap, or the
    linear model predicts a gain below convergence_tol) and "max_iterations".
    converged is true for all but "max_iterations". rejected_steps counts the
    trial steps not accepted. object_poses is read-only, in graph order, and
    equality compares it bit for bit.
    """

    agent_poses: dict[str, Pose2]
    object_poses: np.ndarray
    objective: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...]
    termination: str
    rejected_steps: int

    def __eq__(self, other: object) -> bool:
        return _bitwise_key(self) == _bitwise_key(other) if isinstance(other, SolveResult) else NotImplemented


def _components(xs: np.ndarray, ys: np.ndarray, gap2: float) -> np.ndarray:
    """Connected components of the points linked by squared distance below gap2.

    Returns each point's root: the smallest index in its component. Candidate
    pairs come from close_pairs' sorted-x search; the squared-distance test
    then runs on all of them at once. Roots are then merged over the linked
    pairs in rounds: every pair whose ends still have different roots hooks
    the larger root to the smaller, and pointers are followed until each
    point holds a root. Each round with an unmerged pair removes a root, so
    the loop ends, and the smallest member of a component is never hooked,
    so it is the component's root.
    """
    i, j = close_pairs(xs, ys, math.sqrt(gap2))
    linked = (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 < gap2
    i, j = i[linked], j[linked]

    root = np.arange(len(xs))
    while i.size:
        ri, rj = root[i], root[j]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
        open_pair = root[i] != root[j]
        i, j = i[open_pair], j[open_pair]
    return root


def _cluster_labels(
    xs: np.ndarray, ys: np.ndarray, agent: np.ndarray, confidence: np.ndarray, center_gap: float
) -> np.ndarray:
    """Cluster number of every box, xs and ys its global centre; clusters number by smallest member.

    Clusters start as connected components of the graph linking boxes whose
    BEV center distance is below center_gap. A component never keeps two boxes
    of the same agent: only the highest-confidence one stays (ties to the
    lowest index), the rest are split off as singleton clusters. Dropping a
    box can disconnect the boxes kept, so a component that lost one is split
    again into the connected components of its kept boxes. Every cluster is
    therefore connected under center_gap and holds at most one box per agent.

    The duplicates of all components are found by one lexsort on component,
    agent, descending confidence and index, and the boxes kept in all the
    components that lost one are split again by one more _components call.
    """
    if center_gap <= 0.0:
        raise ValueError(f"center_gap must be positive, got {center_gap!r}")
    gap2 = center_gap * center_gap
    root = _components(xs, ys, gap2)
    order = np.lexsort((np.arange(len(xs)), -confidence, agent, root))
    dup = np.zeros(len(xs), dtype=bool)
    dup[1:] = (root[order[1:]] == root[order[:-1]]) & (agent[order[1:]] == agent[order[:-1]])
    dropped = order[dup]
    if dropped.size:
        lost = np.zeros(len(xs), dtype=bool)
        lost[root[dropped]] = True
        kept = lost[root]
        kept[dropped] = False
        root[dropped] = dropped
        sub = np.flatnonzero(kept)
        root[sub] = sub[_components(xs[sub], ys[sub], gap2)]
    return np.unique(root, return_inverse=True)[1]


def _seed_poses(
    gx: np.ndarray, gy: np.ndarray, gt: np.ndarray, w: np.ndarray, obj: np.ndarray, n_objects: int
) -> np.ndarray:
    """Initial object poses from lifted member boxes, object obj[i] for box i, as (n_objects, 3) rows.

    Each center coordinate is the inverse-variance weighted mean of the
    members' global centers; the heading is math.atan2 of the circular mean
    of the global headings weighted by inverse heading variance. w holds the
    inverse variance columns. The sums run over the boxes in the given order.
    """
    c, s = _cos_sin(gt).T
    sx, swx, sy, swy, ss, sc = (
        np.bincount(obj, weights, n_objects)
        for weights in (w[:, 0] * gx, w[:, 0], w[:, 1] * gy, w[:, 1], w[:, 2] * s, w[:, 2] * c)
    )
    return np.stack((sx / swx, sy / swy, [math.atan2(u, v) for u, v in zip(ss.tolist(), sc.tolist())]), axis=1)


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
    the input messages yields an identical graph. The boxes go through the
    lift, the clustering and the object seeds as columns, bit-identical to
    the one-box-at-a-time build that tests/helpers.py keeps as a reference.
    """
    ids = [m.agent_id for m in messages]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate agent_id in messages")
    if ego_id not in ids:
        raise ValueError(f"ego agent {ego_id!r} not present in messages")
    ordered = sorted(messages, key=lambda m: m.agent_id)
    block, owner = box_columns(ordered)
    # cx, cy, theta, var_x, var_y, var_theta, confidence
    cols = block[:, [0, 1, 6, 7, 8, 9, 10]]
    gx, gy, gt = compose_columns([m.measured_pose.as_tuple() for m in ordered], owner, *cols[:, :3].T)
    labels = _cluster_labels(gx, gy, owner, cols[:, 6], center_gap)

    # Object nodes are the clusters of two or more boxes, in cluster order;
    # edges run over them in that order, members ascending.
    is_object = np.bincount(labels) >= 2
    member = np.flatnonzero(is_object[labels])
    member = member[np.argsort(labels[member], kind="stable")]
    obj = (np.cumsum(is_object) - 1)[labels[member]]
    w = 1.0 / cols[member, 3:6]
    agent_ids = tuple(m.agent_id for m in ordered)
    return PoseGraph(
        agent_ids=agent_ids,
        agent_poses=tuple(m.measured_pose for m in ordered),
        ego_index=agent_ids.index(ego_id),
        object_poses=_seed_poses(gx[member], gy[member], gt[member], w, obj, int(is_object.sum())),
        edge_nodes=np.stack((owner[member], obj), axis=1),
        measurements=cols[member, :3],
        info=w,
    )


# Rows of the summed Gram behind g_o, and the 2x2 identity and adjugate signs
# over a trailing object axis.
_G_O_ROWS = np.array([1, 2, 0])
_EYE2 = np.eye(2)[:, :, None]
_ADJUGATE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]


class _Problem:
    """Packed array view of a pose graph for the Levenberg-Marquardt solve.

    evaluate gives the residuals alone, which is all a trial step needs.
    normal_blocks forms an accepted state's normal equations from one Gram
    G = [o | A]ᵀ[A | r] per edge, where A is the edge's weighted 3x3 agent
    block, r its weighted residual and o = (0, 0, -sqrt(w_theta)). The object
    block is O = [-A[:, :2] | -o], so every block of JᵀJ and Jᵀr over the free
    state (every node but the ego) follows from G. edge_blocks returns the
    per-edge [A | O], filled by the same code, for verification.
    """

    def __init__(self, graph: PoseGraph):
        n_a = len(graph.agent_ids)
        n_o = len(graph.object_poses)
        self.n_agents = n_a
        self.n_objects = n_o
        self.n_nodes = n_a + n_o
        self.ego = graph.ego_index
        self.free_nodes = np.array([i for i in range(self.n_nodes) if i != self.ego], dtype=int)
        self.n_free = 3 * len(self.free_nodes)
        self.n_free_agents = 3 * (n_a - 1)
        self.p0 = np.concatenate((np.array([p.as_tuple() for p in graph.agent_poses], dtype=float), graph.object_poses))
        self.m = m = len(graph.measurements)
        self.ai = graph.edge_nodes[:, 0]
        self.oi = n_a + graph.edge_nodes[:, 1]
        self.zx, self.zy, self.zt = np.ascontiguousarray(graph.measurements.T)
        self.cz = np.cos(self.zt)
        self.sz = np.sin(self.zt)
        self.sqrt_w = np.sqrt(graph.info)

        # Gram buffer [o | A | r] per edge; o and the heading row of A are
        # constant. The translation columns of A are -R(-phi), phi = theta_z +
        # theta_j, whitened. Its heading column is (e_y + zr_y, -(e_x + zr_x))
        # whitened, for the unweighted residual e and zr = R(-theta_z)(z_x, z_y).
        self._buf = np.zeros((m, 3, 5))
        self._gram = np.empty((m, 4, 4))
        self._buf[:, 2, 0] = self._buf[:, 2, 3] = -self.sqrt_w[:, 2]
        self._neg_sqrt_w = -self.sqrt_w
        self._zr_swapped = np.stack((self.cz * self.zy - self.sz * self.zx, self.cz * self.zx + self.sz * self.zy), axis=1)
        self._turn_weight = self.sqrt_w[:, :2] * (1.0, -1.0)
        self._heading_index = 3 * self.ai + 2

        # Grams are summed per (agent slot, row p, column q of G, object): the
        # free agents in order, then the ego, whose agent rows are sliced off.
        # A repeated (agent, object) edge lands on the same entries and adds.
        agent_slot = np.full(n_a, n_a - 1)
        agent_slot[self.free_nodes[self.free_nodes < n_a]] = np.arange(n_a - 1)
        entry = 16 * agent_slot[self.ai, None] + np.arange(16)
        self._pair_index = (entry * n_o + graph.edge_nodes[:, 1, None]).ravel()
        self._pair_shape = (n_a, 4, 4, n_o)
        self._pair_size = 16 * n_a * n_o
        self._agent_diag = np.arange(n_a - 1)

    def evaluate(self, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unweighted and weighted residuals, both (m, 3), at the given node poses."""
        tj = poses.take(self.ai, axis=0)
        tk = poses.take(self.oi, axis=0)
        d = tk[:, :2] - tj[:, :2]
        cj = np.cos(tj[:, 2])
        sj = np.sin(tj[:, 2])
        # The object's offset from the measured box, in the agent frame.
        ax = cj * d[:, 0] + sj * d[:, 1] - self.zx
        ay = cj * d[:, 1] - sj * d[:, 0] - self.zy
        e = np.empty((self.m, 3))
        e[:, 0] = self.cz * ax + self.sz * ay
        e[:, 1] = self.cz * ay - self.sz * ax
        e[:, 2] = wrap_angles(tk[:, 2] - tj[:, 2] - self.zt)
        return e, e * self.sqrt_w

    def _fill(self, poses: np.ndarray, e: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The Gram buffer [o | A | r], (m, 3, 5), filled at the given state."""
        phi = self.zt + poses.take(self._heading_index)
        c = np.cos(phi)
        s = np.sin(phi)
        buf = self._buf
        np.multiply(c, self._neg_sqrt_w[:, 0], out=buf[:, 0, 1])
        np.multiply(s, self._neg_sqrt_w[:, 0], out=buf[:, 0, 2])
        np.multiply(s, self.sqrt_w[:, 1], out=buf[:, 1, 1])
        np.multiply(c, self._neg_sqrt_w[:, 1], out=buf[:, 1, 2])
        np.multiply(e[:, 1::-1] + self._zr_swapped, self._turn_weight, out=buf[:, :2, 3])
        buf[:, :, 4] = r
        return buf

    def normal_blocks(self, poses: np.ndarray, e: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
        """JᵀJ and Jᵀr over the free state as (H_aa, H_ao, H_xy, H_theta, g_a, g_o).

        H_aa (fa x fa, block diagonal) and g_a (fa,) are the free agents' parts.
        The object parts are component-major, with the object last: H_ao (fa x
        3 n_objects) has its columns ordered (component, object) and g_o is (3,
        n_objects). Each object's block is [[H_xy, 0], [0, H_theta]], with H_xy
        (2, 2, n_objects) and H_theta (n_objects,). Rows p and columns q of G
        are o, A_0, A_1, A_2 and A_0, A_1, A_2, r.
        """
        buf = self._fill(poses, e, r)
        gram = np.matmul(buf[:, :, :4].transpose(0, 2, 1), buf[:, :, 1:], out=self._gram)
        pairs = np.bincount(self._pair_index, gram.ravel(), minlength=self._pair_size).reshape(self._pair_shape)
        agents = pairs[:-1].sum(axis=3)
        objects = pairs.sum(axis=0)
        n_fa, fa, n_o = len(self._agent_diag), self.n_free_agents, self.n_objects
        h_aa = np.zeros((n_fa, 3, n_fa, 3))
        h_aa[self._agent_diag, :, self._agent_diag, :] = agents[:, 1:, :3]
        # H_ao = -[AᵀA[:, :2] | Aᵀo], indexed (agent, i, j, object).
        h_ao = np.empty((n_fa, 3, 3, n_o))
        np.negative(pairs[:-1, 1:, :2], out=h_ao[:, :, :2])
        np.negative(pairs[:-1, 0, :3], out=h_ao[:, :, 2])
        return (
            h_aa.reshape(fa, fa),
            h_ao.reshape(fa, 3 * n_o),
            objects[1:3, :2],  # A[:, :2]ᵀA[:, :2]
            objects[0, 2],  # oᵀA_2 = oᵀo
            agents[:, 1:, 3].ravel(),
            -objects[_G_O_ROWS, 3],  # -(A_0ᵀr, A_1ᵀr, oᵀr)
        )

    def edge_blocks(self, poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weighted residuals, flat (3m,), and each edge's weighted blocks [A | O], (m, 3, 6).

        The blocks are read from the Gram buffer; kept for verification only.
        """
        e, r = self.evaluate(poses)
        buf = self._fill(poses, e, r)
        return r.ravel(), np.concatenate((buf[:, :, 1:4], -buf[:, :, 1:3], -buf[:, :, :1]), axis=2)

    def apply_step(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Poses moved by the free-state step; the ego's row is copied, and its
        heading, already wrapped, passes through wrap_angles unchanged."""
        step = delta.reshape(-1, 3)
        out = poses.copy()
        out[: self.ego] += step[: self.ego]
        out[self.ego + 1 :] += step[self.ego :]
        out[:, 2] = wrap_angles(out[:, 2])
        return out


def _schur_step(
    h_aa: np.ndarray,
    h_ao: np.ndarray,
    h_xy: np.ndarray,
    h_theta: np.ndarray,
    g_a: np.ndarray,
    g_o: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Solve (JᵀJ + lam I) delta = -Jᵀr from normal_blocks by eliminating the objects.

    With C the damped object blocks, the agent step solves the Schur complement
    S = H_aa + lam I - H_ao C⁻¹ H_aoᵀ, and each object's step follows from it.
    Each C is a 2x2 translation block and a heading scalar, inverted in closed
    form: the 2x2 adjugate over the determinant. Every C is positive definite,
    so the damped system is positive definite exactly when S is: the Cholesky
    of S is the guard. It raises LinAlgError otherwise, e.g. for a component
    detached from the ego, whose JᵀJ is singular and whose free gauge a plain
    solve would step along. The step is returned in state order.
    """
    fa, n_o = len(g_a), g_o.shape[1]
    damped = h_xy + lam * _EYE2
    det = damped[0, 0] * damped[1, 1] - damped[0, 1] * damped[1, 0]
    c_inv = np.zeros((3, 3, n_o))
    c_inv[:2, :2] = damped[::-1, ::-1] * _ADJUGATE_SIGN / det
    c_inv[2, 2] = 1.0 / (h_theta + lam)
    w = np.einsum("aio,ijo->ajo", h_ao.reshape(fa, 3, n_o), c_inv).reshape(fa, 3 * n_o)  # H_ao C⁻¹
    s = h_aa - w @ h_ao.T
    s.flat[:: fa + 1] += lam  # + lam I
    np.linalg.cholesky(s)
    delta_a = np.linalg.solve(s, w @ g_o.ravel() - g_a)
    v = -g_o - (delta_a @ h_ao).reshape(3, n_o)
    delta_o = np.einsum("io,ijo->oj", v, c_inv)
    return np.concatenate((delta_a, delta_o.ravel()))


def optimize(graph: PoseGraph, params: SolverParams = SolverParams()) -> SolveResult:
    """Minimize the weighted pose-consistency objective with Levenberg-Marquardt.

    Each accepted state sums its normal equations from one Gram matrix per
    edge; a trial step evaluates only the residuals, and the dense Jacobian
    is never formed. Each trial step eliminates the 3x3 object blocks and
    solves the Schur complement over the free agents (3(n_agents-1)
    square), then back-substitutes the object steps. The ego
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
    e, r = prob.evaluate(poses)
    objective = float(np.vdot(r, r))
    trace = [objective]
    lam = params.initial_damping
    iterations = 0
    trials = 0

    if prob.n_free == 0 or prob.m == 0:
        termination = "nothing_to_solve"
    else:
        termination = "max_iterations"
        for _ in range(params.max_iterations):
            blocks = prob.normal_blocks(poses, e, r)
            grad = np.concatenate((blocks[4], blocks[5].T.ravel()))
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
                e_new, r_new = prob.evaluate(candidate)
                objective_new = float(np.vdot(r_new, r_new))
                if objective_new < objective:
                    decrease = objective - objective_new
                    poses, e, r = candidate, e_new, r_new
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

    poses.flags.writeable = False
    rows = poses[: prob.n_agents].tolist()
    agent_poses = {
        aid: graph.agent_poses[i] if i == prob.ego else Pose2(*rows[i]) for i, aid in enumerate(graph.agent_ids)
    }
    return SolveResult(
        agent_poses=agent_poses,
        object_poses=poses[prob.n_agents :],
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
        out[aid] = _IDENTITY if aid == ego_id else compose(ego_inv, pose)
    return out


def with_uniform_info(graph: PoseGraph) -> PoseGraph:
    """Copy of the graph with every edge's information weight set to the identity."""
    return replace(graph, info=np.ones_like(graph.info))
