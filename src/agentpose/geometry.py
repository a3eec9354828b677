"""SE(2) pose algebra and rotated-box geometry in the bird's-eye-view plane."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi], with pi as the boundary representative.

    Angles already in range are returned bit-identical, so repeated
    normalization is a no-op.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    if -math.pi < theta <= math.pi:
        return theta
    wrapped = math.fmod(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    elif wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized normalize_angle, bit for bit; values already in (-pi, pi] pass through exactly.

    fmod leaves an angle smaller than TWO_PI in magnitude unchanged and
    neither correction touches one in (-pi, pi], so those pass through; every
    other angle takes normalize_angle's steps.
    """
    out = np.fmod(np.asarray(angles, dtype=float), TWO_PI)
    np.add(out, TWO_PI, out=out, where=out <= -math.pi)
    np.subtract(out, TWO_PI, out=out, where=out > math.pi)
    return out


@dataclass(frozen=True)
class Pose2:
    """A planar pose / rigid transform (x, y, theta), theta in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        x, y = float(self.x), float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"pose translation must be finite, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.theta)


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Motion composition a . b, the product of the homogeneous transforms."""
    c = math.cos(a.theta)
    s = math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def _cos_sin(theta: np.ndarray) -> np.ndarray:
    """math.cos and math.sin of every angle as (n, 2) rows, the bits the scalar pose algebra uses."""
    return np.array([(math.cos(t), math.sin(t)) for t in theta.tolist()], dtype=float).reshape(-1, 2)


def compose_columns(
    frames: np.ndarray, owner: np.ndarray, x: np.ndarray, y: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """compose(frames[owner[i]], Pose2(x[i], y[i], theta[i])) for every i, as three columns.

    frames holds (x, y, theta) rows, headings wrapped. Each frame's cosine and
    sine come from math.cos and math.sin once, and the products and sums run
    in compose's order, so every entry has the bits of the scalar compose.
    Raises ValueError, as Pose2 does, if a translation is not finite.
    """
    fx, fy, ft, c, s = np.array(
        [(x0, y0, t0, math.cos(t0), math.sin(t0)) for x0, y0, t0 in np.reshape(frames, (-1, 3)).tolist()], dtype=float
    ).reshape(-1, 5)[owner].T
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the ValueError below
        gx = fx + c * x - s * y
        gy = fy + s * x + c * y
    if not (np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise ValueError("pose translation must be finite")
    return gx, gy, wrap_angles(ft + theta)


def inverse(p: Pose2) -> Pose2:
    """Inverse pose, the inverse of the homogeneous transform."""
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def inverse_columns(poses: np.ndarray) -> np.ndarray:
    """inverse of every (x, y, theta) row of an (n, 3) array as (n, 3) rows, bit for bit; raises as compose_columns."""
    x, y, theta = np.asarray(poses, dtype=float).reshape(-1, 3).T
    c, s = _cos_sin(theta).T
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the ValueError below
        out = np.stack((-(c * x + s * y), -(-s * x + c * y), wrap_angles(-theta)), axis=1)
    if not np.isfinite(out[:, :2]).all():
        raise ValueError("pose translation must be finite")
    return out


@dataclass(frozen=True)
class OrientedBox2:
    """Rectangular BEV footprint: center, side lengths, heading (length runs along heading)."""

    cx: float
    cy: float
    length: float
    width: float
    heading: float

    def __post_init__(self) -> None:
        cx, cy = float(self.cx), float(self.cy)
        length, width = float(self.length), float(self.width)
        if not all(math.isfinite(v) for v in (cx, cy, length, width)):
            raise ValueError("box fields must be finite")
        if length <= 0.0 or width <= 0.0:
            raise ValueError(f"box sides must be positive, got {length} x {width}")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "heading", normalize_angle(self.heading))


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * abs(acc)


def _clip_polygon(subject: list[tuple[float, float]], clip: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # Sutherland-Hodgman; clip polygon must be convex and counterclockwise.
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        cp1 = clip[i]
        cp2 = clip[(i + 1) % n]
        ex = cp2[0] - cp1[0]
        ey = cp2[1] - cp1[1]
        input_pts = output
        output = []
        prev = input_pts[-1]
        side_prev = ex * (prev[1] - cp1[1]) - ey * (prev[0] - cp1[0])
        for cur in input_pts:
            side_cur = ex * (cur[1] - cp1[1]) - ey * (cur[0] - cp1[0])
            if (side_cur >= 0.0) != (side_prev >= 0.0):
                # Parametric intersection from the signed distances; the sides
                # have opposite signs so the denominator cannot vanish and the
                # point always lies between prev and cur.
                t = side_prev / (side_prev - side_cur)
                output.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if side_cur >= 0.0:
                output.append(cur)
            prev = cur
            side_prev = side_cur
    return output


def footprints(cx, cy, length, width, heading) -> list[tuple]:
    """Per box, the (key, corners, area, radius) that footprint_iou reads, from five columns.

    key is (cx, cy, length, width, heading), the fields OrientedBox2 compares,
    headings wrapped as normalize_angle does; the corners run counterclockwise,
    and the area (shoelace) and circumradius are computed once per box.
    """
    out = []
    for key in zip(*(np.asarray(v, dtype=float).tolist() for v in (cx, cy, length, width, heading))):
        x, y, length, width, heading = key
        c, s, hl, hw = math.cos(heading), math.sin(heading), 0.5 * length, 0.5 * width
        pts = [(x + c * dx - s * dy, y + s * dx + c * dy) for dx, dy in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]
        out.append((key, pts, _polygon_area(pts), 0.5 * math.hypot(length, width)))
    return out


def footprint_iou(a: tuple, b: tuple) -> float:
    """Exact intersection-over-union of two entries of footprints via polygon clipping."""
    (ka, pa, area_a, ra), (kb, pb, area_b, rb) = a, b
    if ka == kb:
        return 1.0
    if math.hypot(kb[0] - ka[0], kb[1] - ka[1]) > ra + rb:
        return 0.0
    inter = _polygon_area(_clip_polygon(pa, pb))
    if inter <= 0.0:
        return 0.0
    # Areas from the same shoelace arithmetic so identical boxes give exactly 1.0.
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def rotated_iou_bev(a: OrientedBox2, b: OrientedBox2) -> float:
    """Exact intersection-over-union of two oriented BEV boxes via polygon clipping."""
    return footprint_iou(*footprints(*zip(*((f.cx, f.cy, f.length, f.width, f.heading) for f in (a, b)))))


# Sorted points per block of close_pairs: a block's x-band candidates are the
# only pair temporaries alive at a time.
_PAIR_BLOCK = 256


def close_pairs(xs: np.ndarray, ys: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the points at most reach apart, as two arrays.

    A pair at most reach apart is at most reach apart in x, so each point's
    candidate partners are the points after it in x order up to x + reach.
    The sorted points are walked in blocks of _PAIR_BLOCK, and each block's
    candidates are filtered by squared distance at once. The reach carries a
    1e-6 relative slack, so pairs slightly beyond reach may be returned too:
    callers apply their exact test to the pairs returned.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    sx = xs[order]
    sy = ys[order]
    reach = reach * (1.0 + 1e-6)
    end = np.searchsorted(sx, sx + reach, side="right")
    firsts, seconds = [], []
    for lo in range(0, n, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n)
        counts = end[lo:hi] - np.arange(lo + 1, hi + 1)
        # Pair t of sorted point p is (p, p + 1 + t - (number of the block's pairs before p's)).
        first = np.repeat(np.arange(lo, hi), counts)
        second = np.arange(len(first)) + np.repeat(end[lo:hi] - np.cumsum(counts), counts)
        dx = sx[second] - sx[first]
        dy = sy[second] - sy[first]
        near = dx * dx + dy * dy <= reach * reach
        firsts.append(order[first[near]])
        seconds.append(order[second[near]])
    if not firsts:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    i = np.concatenate(firsts)
    j = np.concatenate(seconds)
    return np.minimum(i, j), np.maximum(i, j)


def overlap_pairs(cx: np.ndarray, cy: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the circles (cx, cy, radius) that may meet, as two arrays.

    A pair is dropped only when its centre distance exceeds
    (radius[i] + radius[j]) * (1 + 1e-9), so every dropped pair of box
    footprints is one that rotated_iou_bev sends through its
    disjoint-circumcircle exit. The slack covers the rounding differences
    between np.hypot and math.hypot.
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    radius = np.asarray(radius, dtype=float)
    if not len(cx):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    i, j = close_pairs(cx, cy, 2.0 * float(radius.max()))
    meet = np.hypot(cx[j] - cx[i], cy[j] - cy[i]) <= (radius[i] + radius[j]) * (1.0 + 1e-9)
    return i[meet], j[meet]
