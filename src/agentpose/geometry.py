"""SE(2) pose algebra, rotated-box geometry in the bird's-eye-view plane, and the numeric input rules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def number(value, name: str) -> float:
    """value as a float; ValueError naming it unless float() reads it and it is no bool (JSON true is not 1.0)."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def make_rule(holds, requirement: str):
    """A rule: number(value, name), a -0.0 as 0.0; ValueError naming it unless holds(the float) is true."""

    def rule(value, name: str) -> float:
        v = number(value, name)
        if not holds(v):
            raise ValueError(f"{name} must be {requirement}, got {value!r}")
        return v + 0.0

    return rule


finite_number = make_rule(math.isfinite, "finite")
positive_finite = make_rule(lambda v: 0.0 < v < math.inf, "positive and finite")
non_negative = make_rule(lambda v: 0.0 <= v < math.inf, "finite and >= 0")
unit_interval = make_rule(lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def numbers(value, name: str, rule=number, count: int | None = None) -> tuple:
    """rule(item k, f"{name}[k]") of every item, as a tuple; ValueError naming it unless value is a list, a tuple
    or a 1-d array (a str is not, so "99" is never two 9s) and, when count is given, holds count items."""
    sequence = isinstance(value, (list, tuple, np.ndarray)) and getattr(value, "ndim", 1) == 1
    if not sequence or count not in (None, len(value)):
        raise ValueError(f"{name} must be a list{'' if count is None else f' of {count} values'}, got {value!r}")
    return tuple(rule(v, f"{name}[{k}]") for k, v in enumerate(value))


def whole_number(value, name: str, minimum: int) -> int:
    """value as an int; ValueError naming it unless it is a whole number >= minimum (10.0 and "10" are; True is not)."""
    try:
        whole = None if isinstance(value, float) and not value.is_integer() else int(value)
    except (TypeError, ValueError):
        whole = None
    if whole is None or whole < minimum or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole


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


def _cos_sin(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.cos and np.sin of every angle: the bits of math.cos and math.sin, as tests/test_geometry.py pins."""
    return np.cos(theta), np.sin(theta)


def compose_columns(
    frames: np.ndarray, owner: np.ndarray | int, x: np.ndarray, y: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """compose(frames[owner[i]], Pose2(x[i], y[i], theta[i])) for every i, as three columns.

    frames holds (x, y, theta) rows, headings wrapped. A single frame may be
    passed with owner 0: its one row then broadcasts over every entry. Each
    frame's cosine and sine come from _cos_sin once, and the products and sums
    run in compose's order, so every entry has the bits of the scalar compose.
    Raises ValueError, as Pose2 does, if a translation is not finite.
    """
    frames = np.asarray(frames, dtype=float).reshape(-1, 3)
    fx, fy, ft = frames.take(owner, axis=0).T
    c, s = (v.take(owner) for v in _cos_sin(frames[:, 2]))
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
    c, s = _cos_sin(theta)
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
        rules = {"cx": finite_number, "cy": finite_number, "length": positive_finite, "width": positive_finite}
        for name, rule in rules.items():
            object.__setattr__(self, name, rule(getattr(self, name), f"OrientedBox2.{name}"))
        object.__setattr__(self, "heading", normalize_angle(number(self.heading, "OrientedBox2.heading")))


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


# close_pairs' cell keys, cx * _STRIDE + cy: a point's own and upper cells end below key + 2, and the next column's
# three cells run from key + _STRIDE - 1 to below key + _STRIDE + 2. Searched at once: both ends, then that start.
_STRIDE = 2.0**27
_NEIGHBOUR_KEYS = np.array([[2.0], [_STRIDE + 2.0], [_STRIDE - 1.0]])


def close_pairs(xs: np.ndarray, ys: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the points at most reach apart, as two arrays in no set order.

    The points are sorted by the key of their cell in a uniform grid of cells
    at least reach wide, keys running up each column, so each point's
    candidates are two contiguous ranges of the sorted points: its own cell
    from the next point on plus the cell above, and the three cells of the
    next column. All candidates are filtered by squared distance at once. The
    reach carries a 1e-6 relative slack, so pairs slightly beyond reach may be
    returned too: callers apply their exact test to the pairs returned.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    reach = reach * (1.0 + 1e-6)
    # A cell is a little wider than the reach and at least 2**-24 of the largest
    # |coordinate|, so keys are exact integers below 2**53 and a pair within
    # reach lies at most one cell apart after the rounding of x / side.
    side = max(reach * (1.0 + 2.0**-10), 2.0**-24 * np.abs(np.concatenate((xs, ys))).max())
    key = np.floor(xs / side) * _STRIDE + np.floor(ys / side)
    order = key.argsort()
    sorted_key = key[order]
    bounds = sorted_key.searchsorted(sorted_key + _NEIGHBOUR_KEYS)
    point = np.arange(n)
    start = np.concatenate((point + 1, bounds[2]))
    count = bounds[:2].ravel() - start
    # Pair t of a range that starts at s after c earlier candidates is (its point, s + t - c).
    first = np.concatenate((point, point)).repeat(count)
    second = np.arange(len(first)) - (count.cumsum() - count - start).repeat(count)
    sx, sy = xs[order], ys[order]
    dx = sx[second] - sx[first]
    dy = sy[second] - sy[first]
    near = dx * dx + dy * dy <= reach * reach
    i, j = order[first[near]], order[second[near]]
    return np.minimum(i, j), np.maximum(i, j)


def overlap_pairs(cx: np.ndarray, cy: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of the circles (cx, cy, radius) that may meet, as two arrays.

    A pair is dropped only when its centre distance exceeds
    (radius[i] + radius[j]) * (1 + 1e-9), so every dropped pair of box
    footprints is one that rotated_iou_bev sends through its
    disjoint-circumcircle exit. The slack covers the rounding differences
    between np.hypot and math.hypot.
    """
    cx, cy, radius = (np.asarray(v, dtype=float) for v in (cx, cy, radius))
    i, j = close_pairs(cx, cy, 2.0 * float(radius.max(initial=0.0)))
    meet = np.hypot(cx[j] - cx[i], cy[j] - cy[i]) <= (radius[i] + radius[j]) * (1.0 + 1e-9)
    return i[meet], j[meet]
