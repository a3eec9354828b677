"""Independent oracles used by the test suite and `agentpose selftest`.

These deliberately avoid the library's own code paths (this module imports
nothing from the package, and no pipeline module imports it): pose algebra goes
through explicit 3x3 homogeneous matrices, IoU through Monte-Carlo area
estimation or axis-aligned interval arithmetic, Bessel functions through
exact rational power series, AP through direct cut-point enumeration, and
clustering through boolean-matrix transitive closure.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def pose_matrix(x: float, y: float, theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def matrix_pose(m: np.ndarray) -> tuple[float, float, float]:
    return (float(m[0, 2]), float(m[1, 2]), math.atan2(m[1, 0], m[0, 0]))


def compose_oracle(a, b) -> tuple[float, float, float]:
    return matrix_pose(pose_matrix(*a) @ pose_matrix(*b))


def inverse_oracle(p) -> tuple[float, float, float]:
    return matrix_pose(np.linalg.inv(pose_matrix(*p)))


def consistency_oracle(z, xi, chi) -> tuple[float, float, float]:
    m = np.linalg.inv(pose_matrix(*z)) @ np.linalg.inv(pose_matrix(*xi)) @ pose_matrix(*chi)
    return matrix_pose(m)


def box_corners(cx: float, cy: float, length: float, width: float, heading: float) -> np.ndarray:
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([(hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def mc_iou(box_a, box_b, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo IoU of two (cx, cy, length, width, heading) boxes."""
    corners = np.vstack([box_corners(*box_a), box_corners(*box_b)])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box) -> np.ndarray:
        cx, cy, length, width, heading = box
        dx = pts[:, 0] - cx
        dy = pts[:, 1] - cy
        c, s = math.cos(heading), math.sin(heading)
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (np.abs(lx) <= 0.5 * length) & (np.abs(ly) <= 0.5 * width)

    in_a = inside(box_a)
    in_b = inside(box_b)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


def i0_fraction(x: float, max_terms: int = 3000) -> Fraction:
    """Exact rational power series for I0; tail truncated below 1e-40 relative."""
    xf = Fraction(x)
    q = xf * xf / 4
    term = Fraction(1)
    acc = Fraction(1)
    cutoff = Fraction(1, 10**40)
    for k in range(1, max_terms):
        term *= q / (k * k)
        acc += term
        if term < acc * cutoff:
            break
    return acc


def i1_fraction(x: float, max_terms: int = 3000) -> Fraction:
    xf = Fraction(x)
    q = xf * xf / 4
    term = Fraction(1)
    acc = Fraction(1)
    cutoff = Fraction(1, 10**40)
    for k in range(1, max_terms):
        term *= q / (k * (k + 1))
        acc += term
        if term < acc * cutoff:
            break
    return acc * xf / 2


def log_fraction(f: Fraction) -> float:
    """Natural log of a positive Fraction without overflowing float64."""
    num, den = f.numerator, f.denominator

    def log_int(n: int) -> float:
        shift = max(0, n.bit_length() - 64)
        return shift * math.log(2.0) + math.log(n >> shift)

    return log_int(num) - log_int(den)


def axis_aligned_iou(a, b) -> float:
    """Interval-overlap IoU for (cx, cy, length, width) axis-aligned boxes."""
    ax, ay, al, aw = a
    bx, by, bl, bw = b
    ix = max(0.0, min(ax + al / 2, bx + bl / 2) - max(ax - al / 2, bx - bl / 2))
    iy = max(0.0, min(ay + aw / 2, by + bw / 2) - max(ay - aw / 2, by - bw / 2))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    return inter / (al * aw + bl * bw - inter)


def ap_bruteforce(detections, ground_truth, threshold: float) -> float:
    """AP by direct precision/recall computation at every confidence cut point.

    detections: list of ((cx, cy, length, width), confidence), axis aligned.
    ground_truth: list of (cx, cy, length, width).
    """
    if not ground_truth:
        return 1.0 if not detections else 0.0
    if not detections:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    taken = [False] * len(ground_truth)
    labels = []
    for i in order:
        best_iou, best_j = 0.0, None
        for j, gt in enumerate(ground_truth):
            if taken[j]:
                continue
            iou = axis_aligned_iou(detections[i][0], gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j is not None and best_iou >= threshold:
            taken[best_j] = True
            labels.append(True)
        else:
            labels.append(False)
    precisions = []
    recalls = []
    for k in range(1, len(labels) + 1):
        tp = sum(labels[:k])
        precisions.append(tp / k)
        recalls.append(tp / len(ground_truth))
    envelope = precisions[:]
    for k in range(len(envelope) - 2, -1, -1):
        envelope[k] = max(envelope[k], envelope[k + 1])
    ap = 0.0
    prev = 0.0
    for k in range(len(envelope)):
        ap += (recalls[k] - prev) * envelope[k]
        prev = recalls[k]
    return ap


def closure_clusters(centers, gap: float) -> list[tuple[int, ...]]:
    """Connected components via boolean matrix transitive closure."""
    n = len(centers)
    if n == 0:
        return []
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, i] = True
        for j in range(n):
            if math.hypot(centers[i][0] - centers[j][0], centers[i][1] - centers[j][1]) < gap:
                adj[i, j] = True
    for _ in range(n):
        new = adj | (adj @ adj)
        if np.array_equal(new, adj):
            break
        adj = new
    return sorted({tuple(sorted(np.nonzero(adj[i])[0].tolist())) for i in range(n)})


def graph_residual_oracle(agent_poses, object_poses, edges, state, free_nodes, ego_index):
    """Weighted residual vector of a pose graph through matrix algebra only.

    agent_poses/object_poses: lists of (x, y, theta) initial node poses.
    edges: list of (agent_index, object_index, (zx, zy, zt), (wx, wy, wt)).
    state: flat array overriding the poses of free_nodes (3 per node).
    """
    poses = [tuple(p) for p in agent_poses] + [tuple(p) for p in object_poses]
    for rank, node in enumerate(free_nodes):
        poses[node] = tuple(state[3 * rank : 3 * rank + 3])
    n_agents = len(agent_poses)
    out = []
    for a_idx, o_idx, z, w in edges:
        m = (
            np.linalg.inv(pose_matrix(*z))
            @ np.linalg.inv(pose_matrix(*poses[a_idx]))
            @ pose_matrix(*poses[n_agents + o_idx])
        )
        ex, ey, et = matrix_pose(m)
        out.extend([math.sqrt(w[0]) * ex, math.sqrt(w[1]) * ey, math.sqrt(w[2]) * et])
    return np.array(out)
