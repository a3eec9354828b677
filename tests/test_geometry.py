"""Geometry tests: pose algebra against a homogeneous-matrix oracle, box IoU
against a Monte-Carlo area oracle, the pair searches against all-pairs scans."""

import math

import numpy as np
import pytest

from agentpose.geometry import (
    TWO_PI,
    OrientedBox2,
    Pose2,
    close_pairs,
    compose,
    compose_columns,
    consistency_error,
    inverse,
    normalize_angle,
    overlap_pairs,
    rotated_iou_bev,
    wrap_angles,
)
from agentpose.oracles import compose_oracle, consistency_oracle, inverse_oracle, mc_iou


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
        gx, gy, gt = compose_columns(frames, owner, x, y, theta)
        want = np.array([
            compose(frames[a], Pose2(float(bx), float(by), float(bt))).as_tuple()
            for a, bx, by, bt in zip(owner, x, y, theta)
        ])
        got = np.column_stack([gx, gy, gt])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_empty(self):
        empty = np.zeros(0)
        gx, gy, gt = compose_columns([], np.zeros(0, dtype=int), empty, empty, empty)
        assert gx.shape == gy.shape == gt.shape == (0,)

    def test_rejects_non_finite_translation(self):
        with pytest.raises(ValueError):
            compose_columns([Pose2(1e308, 0.0, 0.0)], np.zeros(1, dtype=int), np.array([1e308]), np.zeros(1), np.zeros(1))


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


class TestConsistencyError:
    def test_consistent_measurement_is_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            xi, z = random_pose(rng, 20.0), random_pose(rng, 20.0)
            e = consistency_error(z, xi, compose(xi, z))
            assert np.max(np.abs(e)) <= 1e-10

    def test_inconsistent_triples_match_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            z, xi, chi = random_pose(rng, 20.0), random_pose(rng, 20.0), random_pose(rng, 20.0)
            e = consistency_error(z, xi, chi)
            assert_pose_close(Pose2(*e), consistency_oracle(z.as_tuple(), xi.as_tuple(), chi.as_tuple()), atol=1e-10)

    def test_trivial_consistent(self):
        e = consistency_error(Pose2(1.0, 0.0, 0.0), Pose2.identity(), Pose2(1.0, 0.0, 0.0))
        np.testing.assert_allclose(e, [0.0, 0.0, 0.0], atol=1e-15)

    def test_offset_example(self):
        # Frozen from evaluating the composition with the matrix oracle.
        e = consistency_error(Pose2(1.0, 0.0, 0.0), Pose2.identity(), Pose2(2.0, 0.0, 0.0))
        np.testing.assert_allclose(e, [1.0, 0.0, 0.0], atol=1e-15)

    def test_angle_component_normalized(self):
        e = consistency_error(Pose2(0, 0, 3.0), Pose2(0, 0, -3.0), Pose2(0, 0, 0.5))
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
                gap = a.circumradius() + b.circumradius()
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
            for i, a in enumerate(boxes):
                for j in range(i + 1, len(boxes)):
                    b = boxes[j]
                    if math.hypot(b.cx - a.cx, b.cy - a.cy) <= a.circumradius() + b.circumradius():
                        assert (i, j) in got
                    if rotated_iou_bev(a, b) > 0.0 or rotated_iou_bev(b, a) > 0.0:
                        assert (i, j) in got
                    if (i, j) in got:
                        assert math.hypot(b.cx - a.cx, b.cy - a.cy) <= (a.circumradius() + b.circumradius()) * (1 + 1e-8)

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
            if r < a.circumradius():
                found += 1
                b = OrientedBox2(2.0 * a.circumradius(), 0.0, length, width, -0.3)
                assert math.hypot(b.cx - a.cx, b.cy - a.cy) <= a.circumradius() + b.circumradius()
                i, j = overlap_pairs(np.array([a.cx, b.cx]), np.zeros(2), np.array([r, r]))
                assert (i.tolist(), j.tolist()) == ([0], [1])
        if not found:
            pytest.skip("np.hypot and math.hypot agree on every sample on this platform")
