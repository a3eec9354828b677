"""Geometry tests: pose algebra against a homogeneous-matrix oracle, box IoU
against a Monte-Carlo area oracle and the footprint kernel against the per-call
scalar IoU bit for bit, the pair searches against all-pairs scans."""

import math
import struct

import numpy as np
import pytest

from agentpose.geometry import (
    TWO_PI,
    OrientedBox2,
    Pose2,
    _polygon_area,
    close_pairs,
    compose,
    compose_columns,
    footprint_iou,
    footprints,
    inverse,
    inverse_columns,
    normalize_angle,
    overlap_pairs,
    rotated_iou_bev,
    wrap_angles,
)
from agentpose.oracles import compose_oracle, consistency_oracle, inverse_oracle, mc_iou
from agentpose.posegraph import PoseGraph, _Problem

from helpers import scalar_corners, scalar_rotated_iou_bev


def random_pose(rng, span=50.0) -> Pose2:
    return Pose2(rng.uniform(-span, span), rng.uniform(-span, span), rng.uniform(-math.pi, math.pi))


def assert_pose_close(p: Pose2, expected, atol=1e-12):
    ex, ey, et = expected
    assert p.x == pytest.approx(ex, abs=atol)
    assert p.y == pytest.approx(ey, abs=atol)
    assert abs(normalize_angle(p.theta - et)) <= atol


class TestNormalizeAngle:
    def test_zero(self):
        assert normalize_angle(0.0) == 0.0

    def test_three_pi(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_minus_pi_maps_to_pi(self):
        assert normalize_angle(-math.pi) == math.pi

    def test_in_range_is_bit_identical(self):
        for t in (0.3, -0.3, math.pi, -math.pi + 1e-9, 1e-300):
            assert normalize_angle(t) == t

    def test_range_and_congruence(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(-50.0, 50.0, size=2000):
            w = normalize_angle(float(t))
            assert -math.pi < w <= math.pi
            assert math.remainder(w - t, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                normalize_angle(bad)

    def test_wrap_angles_matches_scalar(self):
        # Bit for bit, sign of zero included: sums of two in-range angles,
        # wider values and the wrap boundaries with their neighbours.
        rng = np.random.default_rng(12)
        edges = [math.pi, -math.pi, TWO_PI, -TWO_PI, 0.0, -0.0, 3 * math.pi, -3 * math.pi, 1e12, -1e12]
        near = [math.nextafter(v, d) for v in edges for d in (-math.inf, math.inf)]
        values = np.concatenate([
            rng.uniform(-math.pi, math.pi, (100_000, 2)).sum(axis=1),
            rng.uniform(-30, 30, 20_000),
            edges,
            near,
        ])
        want = np.array([normalize_angle(float(t)) for t in values])
        assert np.array_equal(wrap_angles(values).view(np.int64), want.view(np.int64))


class TestComposeColumns:
    def test_bit_identical_to_compose(self):
        rng = np.random.default_rng(14)
        frames = [random_pose(rng, span=200.0) for _ in range(5)] + [Pose2(1.0, 2.0, math.pi)]
        owner = rng.integers(0, len(frames), 2000)
        x, y = rng.uniform(-80, 80, 2000), rng.uniform(-80, 80, 2000)
        theta = rng.uniform(-math.pi, math.pi, 2000)
        theta[:4] = (math.pi, -0.0, 0.0, math.nextafter(-math.pi, 0.0))
        gx, gy, gt = compose_columns(np.array([f.as_tuple() for f in frames]), owner, x, y, theta)
        want = np.array([
            compose(frames[a], Pose2(float(bx), float(by), float(bt))).as_tuple()
            for a, bx, by, bt in zip(owner, x, y, theta)
        ])
        got = np.column_stack([gx, gy, gt])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty(self):
        empty = np.zeros(0)
        gx, gy, gt = compose_columns(np.zeros((0, 3)), np.zeros(0, dtype=int), empty, empty, empty)
        assert gx.shape == gy.shape == gt.shape == (0,)

    def test_rejects_non_finite_translation(self):
        frame = np.array([[1e308, 0.0, 0.0]])
        with pytest.raises(ValueError):
            compose_columns(frame, np.zeros(1, dtype=int), np.array([1e308]), np.zeros(1), np.zeros(1))


class TestInverseColumns:
    def test_bit_identical_to_inverse(self):
        rng = np.random.default_rng(15)
        poses = [random_pose(rng, span=200.0) for _ in range(1000)]
        poses += [Pose2(3.0, -4.0, t) for t in (math.pi, -math.pi, 0.0, -0.0)]
        got = inverse_columns(np.array([p.as_tuple() for p in poses]))
        want = np.array([inverse(p).as_tuple() for p in poses])
        assert got.shape == (1004, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty(self):
        assert inverse_columns(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize(
        "row",
        [(math.nan, 0.0, 0.0), (0.0, math.inf, 1.0), (1.5e308, 1.5e308, math.pi / 4)],
        ids=["x_nan", "y_inf", "overflow"],
    )
    def test_rejects_non_finite_translation(self, row):
        rows = np.array([(1.0, 2.0, 0.5), row])
        with pytest.raises(ValueError, match="pose translation must be finite"):
            inverse_columns(rows)
        if math.isfinite(row[0]) and math.isfinite(row[1]):
            with pytest.raises(ValueError, match="pose translation must be finite"):
                inverse(Pose2(*row))


class TestPose2:
    def test_constructor_normalizes(self):
        assert Pose2(0.0, 0.0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose2(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Pose2(0.0, 0.0, math.inf)

    def test_identity(self):
        assert Pose2.identity().as_tuple() == (0.0, 0.0, 0.0)


class TestCompose:
    def test_left_identity(self):
        p = Pose2(3.0, -2.0, 0.7)
        assert compose(Pose2.identity(), p).as_tuple() == p.as_tuple()

    def test_inverse_cancellation(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p = random_pose(rng)
            assert_pose_close(compose(p, inverse(p)), (0.0, 0.0, 0.0), atol=1e-12)

    def test_quarter_turn_example(self):
        # Frozen from the 3x3 homogeneous matrix product oracle.
        got = compose(Pose2(1.0, 0.0, math.pi / 2), Pose2(1.0, 0.0, 0.0))
        assert_pose_close(got, (1.0, 1.0, math.pi / 2))

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            a, b = random_pose(rng), random_pose(rng)
            got = compose(a, b)
            assert_pose_close(got, compose_oracle(a.as_tuple(), b.as_tuple()), atol=1e-10)

    def test_associativity(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert left.x == pytest.approx(right.x, abs=1e-10)
            assert left.y == pytest.approx(right.y, abs=1e-10)
            assert abs(normalize_angle(left.theta - right.theta)) <= 1e-10


class TestInverse:
    def test_identity(self):
        assert_pose_close(inverse(Pose2.identity()), (0.0, 0.0, 0.0))

    def test_pure_translation(self):
        assert_pose_close(inverse(Pose2(1.0, 0.0, 0.0)), (-1.0, 0.0, 0.0))

    def test_quarter_turn_example(self):
        # Frozen from the 3x3 matrix inversion oracle.
        assert_pose_close(inverse(Pose2(1.0, 0.0, math.pi / 2)), (0.0, 1.0, -math.pi / 2))

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            p = random_pose(rng)
            assert_pose_close(inverse(p), inverse_oracle(p.as_tuple()), atol=1e-10)


def solver_residuals(triples):
    """The solver's unweighted residual (_Problem.evaluate) of each (z, xi, chi) triple, one row each.

    In triple k, agent k at pose xi sees object k at pose chi through the
    measurement z. Each edge is given twice, since a PoseGraph object needs
    two edges or more.
    """
    n = len(triples)
    z, xi, chi = (np.array([t[i].as_tuple() for t in triples]).reshape(-1, 3) for i in range(3))
    k = np.repeat(np.arange(n), 2)
    agents = (Pose2.identity(),) * n
    edges = np.stack((k, k), axis=1)
    graph = PoseGraph(tuple(map(str, range(n))), agents, 0, np.zeros((n, 3)), edges, z[k], np.ones((2 * n, 3)))
    return _Problem(graph).evaluate(np.concatenate((xi, chi)))[0][::2]


class TestConsistencyError:
    def test_consistent_measurement_is_zero(self):
        rng = np.random.default_rng(41)
        triples = []
        for _ in range(300):
            xi, z = random_pose(rng, 20.0), random_pose(rng, 20.0)
            triples.append((z, xi, compose(xi, z)))
        assert np.max(np.abs(solver_residuals(triples))) <= 1e-10

    def test_inconsistent_triples_match_oracle(self):
        rng = np.random.default_rng(43)
        triples = [tuple(random_pose(rng, 20.0) for _ in range(3)) for _ in range(300)]
        for e, (z, xi, chi) in zip(solver_residuals(triples), triples):
            assert_pose_close(Pose2(*e), consistency_oracle(z.as_tuple(), xi.as_tuple(), chi.as_tuple()), atol=1e-10)

    def test_trivial_consistent(self):
        (e,) = solver_residuals([(Pose2(1.0, 0.0, 0.0), Pose2.identity(), Pose2(1.0, 0.0, 0.0))])
        np.testing.assert_allclose(e, [0.0, 0.0, 0.0], atol=1e-15)

    def test_offset_example(self):
        # Frozen from evaluating the composition with the matrix oracle.
        (e,) = solver_residuals([(Pose2(1.0, 0.0, 0.0), Pose2.identity(), Pose2(2.0, 0.0, 0.0))])
        np.testing.assert_allclose(e, [1.0, 0.0, 0.0], atol=1e-15)

    def test_angle_component_normalized(self):
        (e,) = solver_residuals([(Pose2(0, 0, 3.0), Pose2(0, 0, -3.0), Pose2(0, 0, 0.5))])
        assert -math.pi < e[2] <= math.pi


def random_box(rng, span=3.0) -> OrientedBox2:
    return OrientedBox2(
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(1.0, 6.0),
        rng.uniform(1.0, 4.0),
        rng.uniform(-math.pi, math.pi),
    )


class TestRotatedIouBev:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            b = random_box(rng)
            assert rotated_iou_bev(b, b) == 1.0

    def test_disjoint_is_zero(self):
        a = OrientedBox2(0.0, 0.0, 4.0, 4.0, 0.3)
        b = OrientedBox2(100.0, 0.0, 4.0, 4.0, 1.2)
        assert rotated_iou_bev(a, b) == 0.0

    def test_axis_aligned_offset_third(self):
        # 2x2 squares offset by 1: intersection 2, union 6.
        a = OrientedBox2(0.0, 0.0, 2.0, 2.0, 0.0)
        b = OrientedBox2(1.0, 0.0, 2.0, 2.0, 0.0)
        iou = rotated_iou_bev(a, b)
        assert iou == pytest.approx(1.0 / 3.0, abs=1e-12)
        oracle = mc_iou((0, 0, 2, 2, 0), (1, 0, 2, 2, 0), 1_000_000, np.random.default_rng(52))
        assert iou == pytest.approx(oracle, abs=1e-2)

    def test_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert rotated_iou_bev(a, b) == pytest.approx(rotated_iou_bev(b, a), abs=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            base = rotated_iou_bev(a, b)
            t = random_pose(rng, 20.0)
            moved = []
            for box in (a, b):
                p = compose(t, Pose2(box.cx, box.cy, box.heading))
                moved.append(OrientedBox2(p.x, p.y, box.length, box.width, p.theta))
            assert rotated_iou_bev(*moved) == pytest.approx(base, abs=1e-9)

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            estimate = mc_iou(
                (a.cx, a.cy, a.length, a.width, a.heading),
                (b.cx, b.cy, b.length, b.width, b.heading),
                200_000,
                rng,
            )
            assert rotated_iou_bev(a, b) == pytest.approx(estimate, abs=1e-2)

    def test_range(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            v = rotated_iou_bev(random_box(rng), random_box(rng))
            assert 0.0 <= v <= 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            OrientedBox2(0.0, 0.0, 0.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            OrientedBox2(0.0, 0.0, 2.0, -1.0, 0.0)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def radii(boxes) -> list[float]:
    """The circumradius footprints gives each box, the one rotated_iou_bev tests against."""
    return [radius for _, _, _, radius in footprints(*columns(boxes))]


def near_tangent(a: OrientedBox2, b: OrientedBox2, ulps: int) -> OrientedBox2:
    """b moved along x so that its centre distance to a is the circumradius sum, then ulps steps on."""
    cx = a.cx + sum(radii([a, b]))
    for _ in range(abs(ulps)):
        cx = math.nextafter(cx, math.copysign(math.inf, ulps))
    return OrientedBox2(cx, a.cy, b.length, b.width, b.heading)


def hard_box_pairs():
    """Box pairs on the kernel's exits and edges: identical boxes, equal centres,
    shared edges, containment, circumcircles tangent within an ulp, headings at
    +-pi, micrometre boxes and 1e6 m offsets."""
    pairs = []
    for heading in (0.0, 0.3, math.pi / 2, math.pi, -math.pi + 1e-15, math.nextafter(-math.pi, 0.0), 2.0):
        box = OrientedBox2(1.5, -0.5, 4.0, 2.0, heading)
        pairs.append((box, OrientedBox2(1.5, -0.5, 4.0, 2.0, heading)))
        pairs.append((box, OrientedBox2(1.5, -0.5, 4.0, 2.0, heading + 0.7)))
        pairs.append((box, OrientedBox2(1.5, -0.5, 4.0, 2.0, -heading)))
        pairs.append((box, OrientedBox2(1.5, -0.5, 2.0, 4.0, heading + math.pi / 2)))
        pairs.append((box, OrientedBox2(1.5, -0.5, 1.0, 0.5, heading + 0.2)))
        pairs.append((OrientedBox2(1.5, -0.5, 1.0, 0.5, heading), box))
        for ulps in range(-3, 4):
            pairs.append((box, near_tangent(box, OrientedBox2(0.0, 0.0, 3.0, 4.0, heading - 1.0), ulps)))
    for offset in (0.0, 1.0e6, -1.0e6):
        a = OrientedBox2(offset, offset, 2.0, 2.0, 0.0)
        pairs.append((a, OrientedBox2(offset + 2.0, offset, 2.0, 2.0, 0.0)))
        pairs.append((a, OrientedBox2(offset, offset + 2.0, 2.0, 2.0, math.pi)))
        pairs.append((a, OrientedBox2(offset + 2.0, offset + 2.0, 2.0, 2.0, 0.0)))
        pairs.append((a, OrientedBox2(offset + 1.0, offset + 0.25, 4.0, 1.0, math.pi / 2)))
    for size in (1e-6, 3e-6):
        tiny = OrientedBox2(0.25, 0.25, size, size / 2, 0.4)
        pairs.append((tiny, OrientedBox2(0.25 + size / 4, 0.25, size, size / 2, -0.4)))
        pairs.append((tiny, OrientedBox2(0.25, 0.25, 4.0, 2.0, 0.0)))
        pairs.append((tiny, tiny))
    return pairs + [(b, a) for a, b in pairs]


def columns(boxes):
    return [[getattr(b, f) for b in boxes] for f in ("cx", "cy", "length", "width", "heading")]


class TestFootprintKernel:
    """footprint_iou on footprints equals the scalar per-call IoU bit for bit, sign of zero included."""

    def assert_kernel_matches(self, pairs):
        fp = footprints(*columns([box for pair in pairs for box in pair]))
        for k, (a, b) in enumerate(pairs):
            want = bits(scalar_rotated_iou_bev(a, b))
            assert bits(footprint_iou(fp[2 * k], fp[2 * k + 1])) == want, (a, b)
            assert bits(rotated_iou_bev(a, b)) == want, (a, b)

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_random_pairs(self, offset):
        rng = np.random.default_rng(60)

        def shifted(x):
            return OrientedBox2(x.cx + offset, x.cy - offset, x.length, x.width, x.heading)

        self.assert_kernel_matches([(shifted(random_box(rng)), shifted(random_box(rng))) for _ in range(3000)])

    def test_hard_pairs(self):
        pairs = hard_box_pairs()
        self.assert_kernel_matches(pairs)
        outcomes = [scalar_rotated_iou_bev(a, b) for a, b in pairs]
        assert 1.0 in outcomes and 0.0 in outcomes and any(0.0 < v < 1.0 for v in outcomes)

    def test_entries_are_the_box_values(self):
        rng = np.random.default_rng(61)
        boxes = [random_box(rng, 1e3) for _ in range(50)]
        for box, (key, corners, area, radius) in zip(boxes, footprints(*columns(boxes))):
            assert key == (box.cx, box.cy, box.length, box.width, box.heading)
            assert corners == scalar_corners(box)
            assert bits(area) == bits(_polygon_area(scalar_corners(box)))
            assert bits(radius) == bits(0.5 * math.hypot(box.length, box.width))
            assert area == pytest.approx(box.length * box.width, rel=1e-9)

    def test_no_boxes(self):
        assert footprints(*[np.zeros(0)] * 5) == []


def pair_list(i, j):
    pairs = list(zip(i.tolist(), j.tolist()))
    assert len(set(pairs)) == len(pairs)
    assert all(a < b for a, b in pairs)
    return set(pairs)


class TestPairSearch:
    def test_close_pairs_of_no_and_one_point(self):
        for n in (0, 1):
            i, j = close_pairs(np.zeros(n), np.zeros(n), 2.0)
            assert i.size == j.size == 0
            assert i.dtype.kind == j.dtype.kind == "i"

    @pytest.mark.parametrize("n", [7, 700])
    def test_close_pairs_match_all_pairs_scan(self, n):
        # 700 points span several blocks; lattice points put many pairs exactly
        # at the reach and many points at the same x.
        rng = np.random.default_rng(57)
        for lattice in (True, False):
            if lattice:
                xs, ys = rng.integers(0, 30, n).astype(float), rng.integers(0, 30, n).astype(float)
            else:
                xs, ys = rng.uniform(-40, 40, n), rng.uniform(-40, 40, n)
            got = pair_list(*close_pairs(xs, ys, 2.0))
            d = np.hypot(xs[:, None] - xs, ys[:, None] - ys)
            want = set(zip(*(k.tolist() for k in np.nonzero(np.triu(d <= 2.0, 1)))))
            assert want <= got
            assert all(d[a, b] <= 2.0 * (1.0 + 1e-5) for a, b in got)

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_overlap_pairs_keep_every_pair_that_is_clipped(self, offset):
        # rotated_iou_bev skips clipping only when the centre distance exceeds the
        # circumradius sum; near-tangent pairs sit within a few ulps of that edge.
        rng = np.random.default_rng(58)
        for _ in range(40):
            boxes = [random_box(rng) for _ in range(int(rng.integers(0, 30)))]
            boxes = [OrientedBox2(b.cx + offset, b.cy - offset, b.length, b.width, b.heading) for b in boxes]
            for a in list(boxes[:5]):
                b = random_box(rng)
                gap = sum(radii([a, b]))
                for ulps in range(-2, 3):
                    cx = a.cx + gap
                    for _ in range(abs(ulps)):
                        cx = np.nextafter(cx, math.copysign(math.inf, ulps))
                    boxes.append(OrientedBox2(float(cx), a.cy, b.length, b.width, b.heading))
            lengths = np.array([b.length for b in boxes])
            widths = np.array([b.width for b in boxes])
            cx = np.array([b.cx for b in boxes])
            cy = np.array([b.cy for b in boxes])
            got = pair_list(*overlap_pairs(cx, cy, 0.5 * np.hypot(lengths, widths)))
            radius = radii(boxes)
            for i, a in enumerate(boxes):
                for j in range(i + 1, len(boxes)):
                    b = boxes[j]
                    if math.hypot(b.cx - a.cx, b.cy - a.cy) <= radius[i] + radius[j]:
                        assert (i, j) in got
                    if rotated_iou_bev(a, b) > 0.0 or rotated_iou_bev(b, a) > 0.0:
                        assert (i, j) in got
                    if (i, j) in got:
                        assert math.hypot(b.cx - a.cx, b.cy - a.cy) <= (radius[i] + radius[j]) * (1 + 1e-8)

    def test_overlap_pairs_cover_hypot_rounding(self):
        # np.hypot and math.hypot differ in the last bit on some inputs. A pair
        # tangent by the math.hypot circumradii that rotated_iou_bev uses must be
        # kept when the np.hypot radii passed in are the smaller ones.
        rng = np.random.default_rng(59)
        lengths, widths = rng.uniform(1.0, 6.0, 10_000), rng.uniform(0.5, 3.0, 10_000)
        radius = 0.5 * np.hypot(lengths, widths)
        found = 0
        for length, width, r in zip(lengths.tolist(), widths.tolist(), radius.tolist()):
            a = OrientedBox2(0.0, 0.0, length, width, 0.3)
            exact = 0.5 * math.hypot(length, width)
            if r < exact:
                found += 1
                b = OrientedBox2(2.0 * exact, 0.0, length, width, -0.3)
                assert math.hypot(b.cx - a.cx, b.cy - a.cy) <= sum(radii([a, b]))
                i, j = overlap_pairs(np.array([a.cx, b.cx]), np.zeros(2), np.array([r, r]))
                assert (i.tolist(), j.tolist()) == ([0], [1])
        if not found:
            pytest.skip("np.hypot and math.hypot agree on every sample on this platform")
