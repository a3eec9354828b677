"""Shared test scaffolding: graphs built from per-edge tuples, randomized
problem instances, the independent least-squares solve used to cross-check
the optimizer, the dense Jacobian and normal equations that the solver's
blocks are checked against, the scalar graph build, late fusion, AP match,
box IoU, pair errors, detector and object placement that the columnar ones
are checked against, and the message block builder of the tests."""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import least_squares

from agentpose.evaluate import relative_pose_error
from agentpose.geometry import Pose2, _clip_polygon, _polygon_area, compose, inverse, normalize_angle
from agentpose.oracles import graph_residual_oracle
from agentpose.posegraph import BOX_WIDTH, PoseGraph, relative_poses
from agentpose.scenario import VARIANCE_FLOOR, ScenarioError, Scene, SceneAgent, SceneObject, derive_seed
from agentpose.uncertainty import transform_box


def box_block(rows) -> np.ndarray:
    """A message block from box rows, each in AgentMessage's 11 columns; no rows give (0, 11)."""
    return np.array(rows, dtype=float).reshape(-1, BOX_WIDTH)


def graph_from_edges(agent_ids, agent_poses, ego_index, object_poses, edges) -> PoseGraph:
    """PoseGraph from object Pose2s and from edges given one at a time as
    (agent index, object index, measurement Pose2, (w_x, w_y, w_theta))."""
    edges = list(edges)
    return PoseGraph(
        agent_ids=tuple(agent_ids),
        agent_poses=tuple(agent_poses),
        ego_index=ego_index,
        object_poses=np.array([p.as_tuple() for p in object_poses], dtype=float).reshape(-1, 3),
        edge_nodes=np.array([(a, o) for a, o, _, _ in edges], dtype=np.intp).reshape(-1, 2),
        measurements=np.array([z.as_tuple() for _, _, z, _ in edges], dtype=float).reshape(-1, 3),
        info=np.array([w for _, _, _, w in edges], dtype=float).reshape(-1, 3),
    )


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
            edges.append((a_idx, o_idx, z, tuple(rng.uniform(0.5, 5.0, 3))))
    init_objects = [
        Pose2(o.x + rng.normal(0, 0.3), o.y + rng.normal(0, 0.3), o.theta + rng.normal(0, 0.1))
        for o in objects
    ]
    measured = [Pose2(a.x + rng.normal(0, 0.3), a.y + rng.normal(0, 0.3), a.theta + rng.normal(0, 0.1)) for a in agents]
    return graph_from_edges([f"a{i}" for i in range(n_agents)], measured, 0, init_objects, edges)


def with_anisotropic_info(graph: PoseGraph, rng, max_ratio=1e4) -> PoseGraph:
    """Copy of the graph whose x and y weights differ by a factor of up to max_ratio either way."""
    info = graph.info.copy()
    ratio = np.exp(rng.uniform(-1.0, 1.0, len(info)) * math.log(max_ratio))
    info[:, 0] *= np.sqrt(ratio)
    info[:, 1] /= np.sqrt(ratio)
    return replace(graph, info=info)


def dense_jacobian(prob, poses):
    """Weighted residuals and the dense (3m, n_free) Jacobian, scattered from
    the solver's own per-edge [A | O] blocks (_Problem.edge_blocks)."""
    r, blocks = prob.edge_blocks(poses)
    slot = np.full(prob.n_nodes, len(prob.free_nodes))
    slot[prob.free_nodes] = np.arange(len(prob.free_nodes))
    cols = (3 * slot[np.stack((prob.ai, prob.oi), axis=1)][:, :, None] + np.arange(3)).reshape(prob.m, 1, 6)
    dense = np.zeros((prob.m, 3, prob.n_free + 3))
    np.put_along_axis(dense, np.broadcast_to(cols, blocks.shape), blocks, axis=2)
    return r, dense.reshape(3 * prob.m, prob.n_free + 3)[:, : prob.n_free]


def dense_normal_equations(blocks):
    """Dense JᵀJ and Jᵀr over the free state, assembled from _Problem.normal_blocks
    (whose object parts are component-major)."""
    h_aa, h_ao, h_xy, h_theta, g_a, g_o = blocks
    fa, n_o = len(g_a), g_o.shape[1]
    h_ao = h_ao.reshape(fa, 3, n_o).transpose(0, 2, 1).reshape(fa, 3 * n_o)
    hess = np.zeros((fa + 3 * n_o, fa + 3 * n_o))
    hess[:fa, :fa] = h_aa
    hess[:fa, fa:] = h_ao
    hess[fa:, :fa] = h_ao.T
    objects = hess[fa:, fa:].reshape(n_o, 3, n_o, 3)
    k = np.arange(n_o)
    objects[k, :2, k, :2] = h_xy.transpose(2, 0, 1)
    objects[k, 2, k, 2] = h_theta
    return hess, np.concatenate((g_a, g_o.T.ravel()))


def independent_solver_objective(graph: PoseGraph) -> float:
    """Final objective from scipy's generic least-squares on a matrix-built residual."""
    free_nodes = [i for i in range(len(graph.agent_ids) + len(graph.object_poses)) if i != graph.ego_index]
    agent_poses = [p.as_tuple() for p in graph.agent_poses]
    object_poses = [tuple(p) for p in graph.object_poses.tolist()]
    edges = [(e.agent_index, e.object_index, e.measurement.as_tuple(), e.info) for e in graph.edges]

    def fun(state):
        return graph_residual_oracle(agent_poses, object_poses, edges, state, free_nodes, graph.ego_index)

    all_poses = agent_poses + object_poses
    x0 = np.array([all_poses[node] for node in free_nodes], dtype=float).ravel()
    sol = least_squares(fun, x0, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=50000)
    return 2.0 * sol.cost


def _scalar_components(points, members, gap2):
    """Connected components of members under squared distance below gap2, by an all-pairs scan."""
    label = {i: i for i in members}
    for a, i in enumerate(members):
        for j in members[a + 1:]:
            (xi, yi), (xj, yj) = points[i], points[j]
            if (xj - xi) ** 2 + (yj - yi) ** 2 < gap2 and label[i] != label[j]:
                old, new = label[j], label[i]
                label = {k: new if v == old else v for k, v in label.items()}
    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(label[i], []).append(i)
    return list(groups.values())


def scalar_build_oracle(messages, ego_id, center_gap=2.0) -> PoseGraph:
    """The graph build one box at a time, from compose alone.

    Every box is lifted with compose through its sender's measured pose. The
    clusters are the connected components under center_gap; in each, a
    same-agent duplicate other than the most confident box (ties to the lowest
    index) becomes a singleton, and a component that lost a box is split into
    the components of the boxes it kept. Each cluster of two or more boxes is
    an object, seeded by a scalar loop over its members in ascending order.
    """
    if center_gap <= 0.0:
        raise ValueError("center_gap must be positive")
    ordered = sorted(messages, key=lambda m: m.agent_id)
    flat = [(a, box) for a, m in enumerate(ordered) for box in m.boxes]
    lifted = [compose(ordered[a].measured_pose, box.local_pose()) for a, box in flat]
    points = [(g.x, g.y) for g in lifted]
    gap2 = center_gap * center_gap

    clusters = []
    for members in _scalar_components(points, list(range(len(flat))), gap2):
        best = {}
        for i in members:
            a = flat[i][0]
            if a not in best or flat[i][1].confidence > flat[best[a]][1].confidence:
                best[a] = i
        kept = sorted(best.values())
        clusters.extend([i] for i in members if i not in kept)
        clusters.extend(_scalar_components(points, kept, gap2))
    clusters.sort(key=lambda c: c[0])

    object_poses, edges = [], []
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        sx = sy = swx = swy = sin_acc = cos_acc = 0.0
        for i in cluster:
            box, g = flat[i][1], lifted[i]
            wx, wy, wt = 1.0 / box.var_x, 1.0 / box.var_y, 1.0 / box.var_theta
            sx += wx * g.x
            sy += wy * g.y
            swx += wx
            swy += wy
            sin_acc += wt * math.sin(g.theta)
            cos_acc += wt * math.cos(g.theta)
        for i in cluster:
            a, box = flat[i]
            info = (1.0 / box.var_x, 1.0 / box.var_y, 1.0 / box.var_theta)
            edges.append((a, len(object_poses), box.local_pose(), info))
        object_poses.append(Pose2(sx / swx, sy / swy, math.atan2(sin_acc, cos_acc)))
    return graph_from_edges(
        [m.agent_id for m in ordered],
        [m.measured_pose for m in ordered],
        [m.agent_id for m in ordered].index(ego_id),
        object_poses,
        edges,
    )


def scalar_corners(box):
    """The corners of one OrientedBox2, counterclockwise, from its fields."""
    c = math.cos(box.heading)
    s = math.sin(box.heading)
    hl = 0.5 * box.length
    hw = 0.5 * box.width
    return [
        (box.cx + c * dx - s * dy, box.cy + s * dx + c * dy)
        for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    ]


def scalar_rotated_iou_bev(a, b):
    """rotated_iou_bev of two OrientedBox2, each call computing both boxes'
    corners, shoelace areas and circumradii itself."""
    if a == b:
        return 1.0
    radius_a, radius_b = (0.5 * math.hypot(box.length, box.width) for box in (a, b))
    if math.hypot(b.cx - a.cx, b.cy - a.cy) > radius_a + radius_b:
        return 0.0
    pa = scalar_corners(a)
    pb = scalar_corners(b)
    inter = _polygon_area(_clip_polygon(pa, pb))
    if inter <= 0.0:
        return 0.0
    union = _polygon_area(pa) + _polygon_area(pb) - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def scalar_pair_errors(est, truth):
    """relative_pose_error of every ordered agent pair, one Pose2 relative pose at a time."""
    ids = sorted(truth)
    out = []
    for i in ids:
        rel_est, rel_true = relative_poses(est, i), relative_poses(truth, i)
        out.extend(relative_pose_error(rel_est[j], rel_true[j]) for j in ids if j != i)
    return out


def scalar_late_fuse(messages, rel_poses, nms_iou):
    """late_fuse one box at a time: every box is lifted with transform_box,
    and each candidate, in (-confidence, agent_id, box index) order, is
    clipped against every box kept so far."""
    candidates = [
        (-box.confidence, m.agent_id, k, transform_box(box, rel_poses[m.agent_id]))
        for m in messages
        for k, box in enumerate(m.boxes)
    ]
    candidates.sort(key=lambda c: c[:3])
    kept, kept_fp = [], []
    for *_, box in candidates:
        fp = box.footprint()
        if all(scalar_rotated_iou_bev(fp, other) < nms_iou for other in kept_fp):
            kept.append(box)
            kept_fp.append(fp)
    return kept


def scalar_average_precision(detections, ground_truth, iou_threshold):
    """average_precision with the greedy match clipping each detection, in
    (-confidence, index) order, against every unmatched ground truth."""
    npos = len(ground_truth)
    if npos == 0:
        return 1.0 if len(detections) == 0 else 0.0
    if len(detections) == 0:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    matched = [False] * npos
    flags = []
    for i in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(ground_truth):
            if matched[j]:
                continue
            iou = scalar_rotated_iou_bev(detections[i][0], gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        flags.append(best_j >= 0 and best_iou >= iou_threshold)
        if flags[-1]:
            matched[best_j] = True
    precisions, recalls, tp = [], [], 0
    for k, flag in enumerate(flags, start=1):
        tp += flag
        precisions.append(tp / k)
        recalls.append(tp / npos)
    for k in range(len(flags) - 2, -1, -1):
        if precisions[k + 1] > precisions[k]:
            precisions[k] = precisions[k + 1]
    ap, prev = 0.0, 0.0
    for k in range(len(flags)):
        ap += (recalls[k] - prev) * precisions[k]
        prev = recalls[k]
    return ap


def scalar_generate_scene(num_agents, num_objects, area=(100.0, 100.0), seed=0, extent=(140.0, 140.0), min_object_gap=5.0):
    """generate_scene with each candidate centre tested against every placed one."""
    rng = np.random.default_rng(derive_seed(seed, "scene-gen"))
    hx, hy = 0.5 * float(area[0]), 0.5 * float(area[1])

    agents = tuple(
        SceneAgent(
            agent_id=f"agent{i}",
            pose=Pose2(rng.uniform(-hx, hx), rng.uniform(-hy, hy), rng.uniform(-math.pi, math.pi)),
        )
        for i in range(num_agents)
    )

    placed = []
    objects = []
    gap2 = min_object_gap * min_object_gap
    for k in range(num_objects):
        for _ in range(200):
            x = rng.uniform(-hx, hx)
            y = rng.uniform(-hy, hy)
            if all((x - px) ** 2 + (y - py) ** 2 >= gap2 for px, py in placed):
                break
        else:
            raise ScenarioError(
                f"infeasible packing: could not place object {k + 1}/{num_objects} "
                f"with gap {min_object_gap} m in {area[0]} x {area[1]} m"
            )
        placed.append((x, y))
        objects.append(
            SceneObject(
                object_id=f"obj{k}",
                pose=Pose2(x, y, rng.uniform(-math.pi, math.pi)),
                length=rng.uniform(3.8, 5.2),
                width=rng.uniform(1.7, 2.1),
            )
        )
    return Scene(agents=agents, objects=tuple(objects), extent=extent)


def scalar_detect(scene, agent_id, spec, rng):
    """An agent's message block rows one object at a time, each local pose from compose."""
    agent = scene.agent(agent_id)
    inv_pose = inverse(agent.pose)
    ex, ey = scene.extent
    out = []
    for obj in scene.objects:
        local = compose(inv_pose, obj.pose)
        dist = math.hypot(local.x, local.y)
        if abs(local.x) > ex or abs(local.y) > ey or dist > spec.detection_range:
            continue
        if rng.random() < spec.miss_rate:
            continue
        scale = 1.0
        if spec.noise_scale_choices is not None:
            scale = spec.noise_scale_choices[int(rng.integers(len(spec.noise_scale_choices)))]
        center_sd = spec.center_noise_sd * scale
        heading_sd = spec.heading_noise_sd * scale
        nx = float(rng.normal(0.0, center_sd))
        ny = float(rng.normal(0.0, center_sd))
        nt = float(rng.normal(0.0, heading_sd))
        var_center = max(spec.variance_calibration * center_sd * center_sd, VARIANCE_FLOOR)
        var_heading = max(spec.variance_calibration * heading_sd * heading_sd, VARIANCE_FLOOR)
        confidence = min(max(spec.base_confidence - spec.confidence_decay * dist / spec.detection_range, 0.0), 1.0)
        out.append([
            local.x + nx, local.y + ny, 0.0, obj.length, obj.width, 1.6, normalize_angle(local.theta + nt),
            var_center, var_center, var_heading, confidence,
        ])
    return out
