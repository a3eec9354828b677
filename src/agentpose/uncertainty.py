"""Box detections with uncertainty, the probabilistic loss kernels, and edge weights."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import Pose2, OrientedBox2, compose, normalize_angle

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
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"log_bessel_i0 requires finite x >= 0, got {x!r}")
    if x <= _BESSEL_SERIES_CUTOFF:
        return math.log(_bessel_series(x, 0))
    return x - 0.5 * math.log(math.tau * x) + math.log(_bessel_asymptotic_poly(x, 0))


def bessel_i1_over_i0(x: float) -> float:
    """Ratio I1(x)/I0(x), the derivative of log_bessel_i0."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"bessel_i1_over_i0 requires finite x >= 0, got {x!r}")
    if x <= _BESSEL_SERIES_CUTOFF:
        return 0.5 * x * _bessel_series(x, 1) / _bessel_series(x, 0)
    return _bessel_asymptotic_poly(x, 1) / _bessel_asymptotic_poly(x, 0)


def gaussian_center_loss(x_hat: float, var: float, x0: float) -> tuple[float, tuple[float, float]]:
    """KL-derived loss for a Gaussian center estimate against ground truth x0.

    Returns (loss, (d_loss/d_x_hat, d_loss/d_var)).
    """
    if not (math.isfinite(x_hat) and math.isfinite(var) and math.isfinite(x0)):
        raise ValueError("gaussian_center_loss requires finite inputs")
    if var <= 0.0:
        raise ValueError(f"variance must be positive, got {var!r}")
    d = x_hat - x0
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
    if not (math.isfinite(theta_hat) and math.isfinite(s) and math.isfinite(theta0)):
        raise ValueError("von_mises_angle_loss requires finite inputs")
    if s < _MIN_LOG_VARIANCE:
        raise ValueError(f"log-variance {s!r} would overflow exp(-s)")
    kappa = math.exp(-s)
    delta = theta_hat - theta0
    c = math.cos(delta)
    cterm = abs(c) if absolute_cosine else c
    loss = log_bessel_i0(kappa) - kappa * cterm
    sign = math.copysign(1.0, c) if absolute_cosine else 1.0
    d_theta = kappa * sign * math.sin(delta)
    d_s = kappa * (cterm - bessel_i1_over_i0(kappa))
    return loss, (d_theta, d_s)


def elu_regularizer(s: float, c: float = 1.0, weight: float = 0.01) -> float:
    """ELU penalty weight*ELU(s - c), linear above the threshold c."""
    if not (math.isfinite(s) and math.isfinite(c) and math.isfinite(weight)):
        raise ValueError("elu_regularizer requires finite inputs")
    if weight < 0.0:
        raise ValueError(f"weight must be >= 0, got {weight!r}")
    z = s - c
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
        for name in ("cx", "cy", "cz", "length", "width", "height", "var_x", "var_y", "var_theta", "confidence"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"BoxDetection.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.length <= 0.0 or self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("box dimensions must be positive")
        if self.var_x <= 0.0 or self.var_y <= 0.0 or self.var_theta <= 0.0:
            raise ValueError("box variances must be positive")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence!r}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def local_pose(self) -> Pose2:
        return Pose2(self.cx, self.cy, self.theta)

    def footprint(self) -> OrientedBox2:
        return OrientedBox2(self.cx, self.cy, self.length, self.width, self.theta)

    def as_vector(self) -> list[float]:
        """The 10-field wire encoding: center, dimensions, heading, variances."""
        return [
            self.cx, self.cy, self.cz,
            self.length, self.width, self.height,
            self.theta,
            self.var_x, self.var_y, self.var_theta,
        ]


def box_from_vector(vec, confidence: float, agent_id: str = "") -> BoxDetection:
    if len(vec) != 10:
        raise ValueError(f"box vector must have 10 fields, got {len(vec)}")
    cx, cy, cz, length, width, height, theta, var_x, var_y, var_theta = (float(v) for v in vec)
    return BoxDetection(
        cx=cx, cy=cy, cz=cz, length=length, width=width, height=height,
        theta=theta, var_x=var_x, var_y=var_y, var_theta=var_theta,
        confidence=confidence, agent_id=agent_id,
    )


def transform_box(box: BoxDetection, frame: Pose2) -> BoxDetection:
    """Re-express a box in the frame that `frame` maps the box's frame into."""
    p = compose(frame, box.local_pose())
    return replace(box, cx=p.x, cy=p.y, theta=p.theta)


def information_matrix(box: BoxDetection) -> tuple[float, float, float]:
    """Edge weight from a box's reported variances: the diagonal (1/var_x, 1/var_y, 1/var_theta)."""
    return (1.0 / box.var_x, 1.0 / box.var_y, 1.0 / box.var_theta)
