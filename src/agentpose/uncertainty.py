"""Box detections with uncertainty, the probabilistic loss kernels, and edge weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import (
    Pose2, OrientedBox2, compose, finite_number, non_negative, normalize_angle, number, positive_finite, unit_interval,
)

# Power series below this argument, asymptotic expansion above.
_BESSEL_SERIES_CUTOFF = 15.0
# exp(-s) overflows float64 near s = -709.
_MIN_LOG_VARIANCE = -700.0


def _bessel_series(x: float, order: int) -> float:
    # I_n(x) = (x/2)^n sum_k (x^2/4)^k / (k! (k+n)!) for n = order, without the
    # (x/2)^n factor; all terms positive, no cancellation.
    q = 0.25 * x * x
    term = 1.0
    acc = 1.0
    for k in range(1, 200):
        term *= q / (k * (k + order))
        acc += term
        if term < acc * 1e-17:
            break
    return acc


def _bessel_asymptotic_poly(x: float, order: int) -> float:
    # I_n(x) ~ e^x / sqrt(2 pi x) * poly(1/x) with mu = 4 n^2; summed to optimal truncation.
    mu = 4.0 * order * order
    acc = 1.0
    term = 1.0
    for k in range(1, 60):
        nxt = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        acc += term
        if abs(term) < acc * 1e-17:
            break
    return acc


def log_bessel_i0(x: float) -> float:
    """log of the order-0 modified Bessel function of the first kind, overflow safe."""
    x = non_negative(x, "log_bessel_i0's x")
    if x <= _BESSEL_SERIES_CUTOFF:
        return math.log(_bessel_series(x, 0))
    return x - 0.5 * math.log(math.tau * x) + math.log(_bessel_asymptotic_poly(x, 0))


def bessel_i1_over_i0(x: float) -> float:
    """Ratio I1(x)/I0(x), the derivative of log_bessel_i0."""
    x = non_negative(x, "bessel_i1_over_i0's x")
    if x <= _BESSEL_SERIES_CUTOFF:
        return 0.5 * x * _bessel_series(x, 1) / _bessel_series(x, 0)
    return _bessel_asymptotic_poly(x, 1) / _bessel_asymptotic_poly(x, 0)


def gaussian_center_loss(x_hat: float, var: float, x0: float) -> tuple[float, tuple[float, float]]:
    """KL-derived loss for a Gaussian center estimate against ground truth x0.

    Returns (loss, (d_loss/d_x_hat, d_loss/d_var)).
    """
    d = finite_number(x_hat, "x_hat") - finite_number(x0, "x0")
    var = positive_finite(var, "var")
    loss = d * d / (2.0 * var) + 0.5 * math.log(var)
    grad = (d / var, -d * d / (2.0 * var * var) + 0.5 / (var))
    return loss, grad


def von_mises_angle_loss(
    theta_hat: float,
    s: float,
    theta0: float,
    absolute_cosine: bool = True,
) -> tuple[float, tuple[float, float]]:
    """KL-derived heading loss under a von Mises model with log-variance s.

    The concentration is exp(-s). With absolute_cosine=True the cosine term
    enters through its absolute value (the default); False gives the plain
    von Mises negative log likelihood shape.

    Returns (loss, (d_loss/d_theta_hat, d_loss/d_s)).
    """
    delta = finite_number(theta_hat, "theta_hat") - finite_number(theta0, "theta0")
    s = finite_number(s, "s")
    if s < _MIN_LOG_VARIANCE:
        raise ValueError(f"log-variance {s!r} would overflow exp(-s)")
    kappa = math.exp(-s)
    c = math.cos(delta)
    cterm = abs(c) if absolute_cosine else c
    loss = log_bessel_i0(kappa) - kappa * cterm
    sign = math.copysign(1.0, c) if absolute_cosine else 1.0
    d_theta = kappa * sign * math.sin(delta)
    d_s = kappa * (cterm - bessel_i1_over_i0(kappa))
    return loss, (d_theta, d_s)


def elu_regularizer(s: float, c: float = 1.0, weight: float = 0.01) -> float:
    """ELU penalty weight*ELU(s - c), linear above the threshold c."""
    z = finite_number(s, "s") - finite_number(c, "c")
    weight = non_negative(weight, "weight")
    if z >= 0.0:
        return weight * z
    return weight * (math.exp(z) - 1.0)


@dataclass(frozen=True)
class BoxDetection:
    """A detected box with per-component uncertainty, in the detecting agent's frame.

    Center (cx, cy, cz) and heading theta are estimates; var_x, var_y and
    var_theta are the reported variances of cx, cy and theta. cz and height
    are carried but ignored by the planar pipeline.
    """

    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    theta: float
    var_x: float
    var_y: float
    var_theta: float
    confidence: float
    agent_id: str = ""

    def __post_init__(self) -> None:
        for rule, names in (
            (finite_number, ("cx", "cy", "cz")),
            (positive_finite, ("length", "width", "height", "var_x", "var_y", "var_theta")),
            (unit_interval, ("confidence",)),
        ):
            for name in names:
                object.__setattr__(self, name, rule(getattr(self, name), f"BoxDetection.{name}"))
        object.__setattr__(self, "theta", normalize_angle(number(self.theta, "BoxDetection.theta")))

    def local_pose(self) -> Pose2:
        return Pose2(self.cx, self.cy, self.theta)

    def footprint(self) -> OrientedBox2:
        return OrientedBox2(self.cx, self.cy, self.length, self.width, self.theta)


def transform_box(box: BoxDetection, frame: Pose2) -> BoxDetection:
    """Re-express a box in the frame that `frame` maps the box's frame into."""
    p = compose(frame, box.local_pose())
    return replace(box, cx=p.x, cy=p.y, theta=p.theta)


def information_matrix(box: BoxDetection) -> tuple[float, float, float]:
    """Edge weight from a box's reported variances: the diagonal (1/var_x, 1/var_y, 1/var_theta)."""
    return (1.0 / box.var_x, 1.0 / box.var_y, 1.0 / box.var_theta)
