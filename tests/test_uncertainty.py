"""Loss kernel tests: frozen values from high-precision oracles, gradient
checks against central finite differences, Bessel accuracy against an exact
rational series."""

import math

import numpy as np
import pytest

from agentpose.geometry import Pose2, compose
from agentpose.oracles import i0_fraction, i1_fraction, log_fraction
from agentpose.uncertainty import (
    BoxDetection,
    InfoMatrix3,
    bessel_i1_over_i0,
    box_from_vector,
    elu_regularizer,
    gaussian_center_loss,
    information_matrix,
    log_bessel_i0,
    transform_box,
    von_mises_angle_loss,
)

# log(I0(1)), frozen from the exact rational power series oracle.
LOG_I0_AT_1 = 0.23591435850717346


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestGaussianCenterLoss:
    def test_zero_at_truth_unit_variance(self):
        loss, _ = gaussian_center_loss(2.5, 1.0, 2.5)
        assert loss == 0.0

    def test_unit_offset(self):
        loss, _ = gaussian_center_loss(1.0, 1.0, 0.0)
        assert loss == pytest.approx(0.5, abs=1e-15)

    def test_log_variance_term(self):
        loss, _ = gaussian_center_loss(0.0, math.e, 0.0)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_gradient_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            x_hat, x0 = rng.uniform(-5, 5, size=2)
            var = rng.uniform(0.05, 10.0)
            _, (gx, gv) = gaussian_center_loss(x_hat, var, x0)
            d = x_hat - x0
            assert gx == pytest.approx(d / var, rel=1e-12)
            assert gv == pytest.approx(-d * d / (2 * var * var) + 1 / (2 * var), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        h = 1e-6
        for _ in range(300):
            x_hat, x0 = rng.uniform(-5, 5, size=2)
            var = rng.uniform(0.1, 10.0)
            _, (gx, gv) = gaussian_center_loss(x_hat, var, x0)
            fdx = (gaussian_center_loss(x_hat + h, var, x0)[0] - gaussian_center_loss(x_hat - h, var, x0)[0]) / (2 * h)
            fdv = (gaussian_center_loss(x_hat, var + h, x0)[0] - gaussian_center_loss(x_hat, var - h, x0)[0]) / (2 * h)
            assert rel_err(gx, fdx) <= 1e-5
            assert rel_err(gv, fdv) <= 1e-5

    def test_minimized_at_truth_and_at_squared_error(self):
        # Scan over the estimate for fixed variance.
        grid = np.linspace(-3, 3, 601)
        losses = [gaussian_center_loss(x, 0.7, 0.0)[0] for x in grid]
        assert abs(grid[int(np.argmin(losses))]) <= 0.011
        # Scan over the variance for fixed offset: minimum at (x_hat - x0)^2.
        offset = 1.3
        vgrid = np.linspace(0.05, 6.0, 2000)
        vlosses = [gaussian_center_loss(offset, v, 0.0)[0] for v in vgrid]
        assert vgrid[int(np.argmin(vlosses))] == pytest.approx(offset**2, abs=0.01)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_center_loss(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_center_loss(0.0, -1.0, 0.0)


class TestVonMisesAngleLoss:
    def test_aligned_unit_concentration(self):
        loss, _ = von_mises_angle_loss(0.7, 0.0, 0.7)
        assert loss == pytest.approx(LOG_I0_AT_1 - 1.0, abs=1e-12)

    def test_quarter_turn_unit_concentration(self):
        loss, _ = von_mises_angle_loss(math.pi / 2, 0.0, 0.0)
        assert loss == pytest.approx(LOG_I0_AT_1, abs=1e-12)

    def test_vanishes_for_large_log_variance(self):
        for s in (40.0, 200.0, 1e6):
            loss, (gt, gs) = von_mises_angle_loss(1.0, s, -0.5)
            assert abs(loss) <= 1e-15
            assert abs(gt) <= 1e-15 and abs(gs) <= 1e-15

    def test_rejects_overflowing_log_variance(self):
        with pytest.raises(ValueError):
            von_mises_angle_loss(0.0, -701.0, 0.0)
        with pytest.raises(ValueError):
            von_mises_angle_loss(0.0, math.nan, 0.0)

    def test_finite_at_extreme_concentration(self):
        loss, (gt, gs) = von_mises_angle_loss(0.3, -690.0, 0.0)
        assert math.isfinite(loss) and math.isfinite(gt) and math.isfinite(gs)

    def test_plain_variant_periodic(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            delta = rng.uniform(-math.pi, math.pi)
            s = rng.uniform(-2, 2)
            a, _ = von_mises_angle_loss(delta, s, 0.0, absolute_cosine=False)
            b, _ = von_mises_angle_loss(delta + 2 * math.pi, s, 0.0, absolute_cosine=False)
            assert a == pytest.approx(b, abs=1e-12)

    def test_absolute_value_symmetry(self):
        # The default variant cannot distinguish a heading from its opposite.
        a, _ = von_mises_angle_loss(0.4, 0.3, 0.0)
        b, _ = von_mises_angle_loss(0.4 + math.pi, 0.3, 0.0)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("absolute", [True, False])
    def test_gradient_matches_finite_differences(self, absolute):
        rng = np.random.default_rng(72)
        h = 1e-6
        checked = 0
        while checked < 300:
            theta_hat = rng.uniform(-math.pi, math.pi)
            theta0 = rng.uniform(-math.pi, math.pi)
            if abs(math.cos(theta_hat - theta0)) < 1e-3:
                continue  # the absolute-cosine variant has a kink there
            s = rng.uniform(-3, 3)
            _, (gt, gs) = von_mises_angle_loss(theta_hat, s, theta0, absolute_cosine=absolute)
            fdt = (
                von_mises_angle_loss(theta_hat + h, s, theta0, absolute_cosine=absolute)[0]
                - von_mises_angle_loss(theta_hat - h, s, theta0, absolute_cosine=absolute)[0]
            ) / (2 * h)
            fds = (
                von_mises_angle_loss(theta_hat, s + h, theta0, absolute_cosine=absolute)[0]
                - von_mises_angle_loss(theta_hat, s - h, theta0, absolute_cosine=absolute)[0]
            ) / (2 * h)
            assert rel_err(gt, fdt) <= 1e-5
            assert rel_err(gs, fds) <= 1e-5
            checked += 1


class TestEluRegularizer:
    def test_zero_at_threshold(self):
        assert elu_regularizer(1.0, 1.0, 0.01) == 0.0

    def test_linear_branch(self):
        assert elu_regularizer(2.0, 1.0, 0.01) == pytest.approx(0.01, abs=1e-15)

    def test_exponential_branch(self):
        # Frozen: 0.01 * (e^-1 - 1).
        assert elu_regularizer(0.0, 1.0, 0.01) == pytest.approx(-0.006321205588285576, abs=1e-15)

    def test_continuous_and_monotone(self):
        grid = np.linspace(-6.0, 6.0, 4001)
        values = [elu_regularizer(float(s), 1.0, 0.01) for s in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= 0.0)
        assert np.max(np.abs(diffs)) < 0.01 * (grid[1] - grid[0]) * 1.5

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            elu_regularizer(0.0, 1.0, -0.5)


class TestBessel:
    def test_log_i0_against_rational_series(self):
        for x in (0.0, 1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 14.999, 15.001, 20.0, 50.0, 200.0, 700.0):
            exact = log_fraction(i0_fraction(x)) if x > 0 else 0.0
            assert abs(log_bessel_i0(x) - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_i0_relative_error(self):
        # Direct comparison on I0 itself where exp() cannot overflow.
        for x in (0.3, 1.0, 4.0, 12.0, 18.0, 80.0, 400.0):
            exact = i0_fraction(x)
            got = math.exp(log_bessel_i0(x))
            assert abs(got - float(exact)) / float(exact) <= 1e-12

    def test_ratio_against_rational_series(self):
        for x in (1e-8, 0.2, 1.0, 7.0, 14.9, 15.1, 40.0, 300.0):
            exact = float(i1_fraction(x) / i0_fraction(x))
            assert bessel_i1_over_i0(x) == pytest.approx(exact, abs=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-1.0)


def make_box(**overrides) -> BoxDetection:
    fields = dict(
        cx=1.0, cy=2.0, cz=0.0, length=4.0, width=2.0, height=1.6,
        theta=0.3, var_x=0.04, var_y=0.04, var_theta=0.01, confidence=0.8, agent_id="a0",
    )
    fields.update(overrides)
    return BoxDetection(**fields)


class TestBoxDetection:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_box(length=0.0)
        with pytest.raises(ValueError):
            make_box(var_x=0.0)
        with pytest.raises(ValueError):
            make_box(var_theta=-0.1)
        with pytest.raises(ValueError):
            make_box(confidence=1.5)
        with pytest.raises(ValueError):
            make_box(cx=math.inf)

    def test_heading_normalized(self):
        assert make_box(theta=3 * math.pi).theta == pytest.approx(math.pi)

    def test_vector_roundtrip(self):
        box = make_box()
        vec = box.as_vector()
        assert vec == [1.0, 2.0, 0.0, 4.0, 2.0, 1.6, 0.3, 0.04, 0.04, 0.01]
        back = box_from_vector(vec, box.confidence, box.agent_id)
        assert back == box

    def test_transform_box_matches_pose_compose(self):
        box = make_box()
        frame = Pose2(5.0, -1.0, 1.1)
        moved = transform_box(box, frame)
        expected = compose(frame, box.local_pose())
        assert moved.cx == pytest.approx(expected.x, abs=1e-12)
        assert moved.cy == pytest.approx(expected.y, abs=1e-12)
        assert moved.theta == pytest.approx(expected.theta, abs=1e-12)
        assert (moved.length, moved.width, moved.var_x, moved.confidence) == (
            box.length, box.width, box.var_x, box.confidence,
        )


class TestInformationMatrix:
    def test_unit(self):
        assert information_matrix(make_box(var_x=1.0, var_y=1.0, var_theta=1.0)).diagonal() == (1.0, 1.0, 1.0)

    def test_reciprocal(self):
        w = information_matrix(make_box(var_x=4.0, var_y=1.0, var_theta=0.25))
        assert w.diagonal() == (0.25, 1.0, 4.0)

    def test_small_variances_no_overflow(self):
        w = information_matrix(make_box(var_x=1e-6, var_y=1e-6, var_theta=1e-6))
        assert w.diagonal() == (1e6, 1e6, 1e6)

    def test_info_matrix_validation(self):
        with pytest.raises(ValueError):
            InfoMatrix3(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            InfoMatrix3(1.0, math.inf, 1.0)
