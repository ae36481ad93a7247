"""Upper-truncated Gaussian primitives and the threshold clip.

Everything here is scalar 64-bit math. The truncated upper-tail mean is the
per-layer scale of the ternarizer, and its derivative in the threshold is
what makes the threshold trainable, so both must stay finite, positive and
monotone on their domain: TruncGaussParams admits only delta_c in
[0, 3*sigma], so every alpha = delta_c / sigma they evaluate lies in [0, 3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TruncGaussParams:
    """Parameters of a Gaussian truncated to the upper tail (x > mu + delta_c).

    The upper truncation bound is always +infinity and is handled
    symbolically, never as a large finite stand-in.
    """

    mu: float
    sigma: float
    delta_c: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.delta_c <= 3.0 * self.sigma:
            raise ValueError(
                f"delta_c must lie in [0, 3*sigma], got {self.delta_c} "
                f"with sigma={self.sigma}"
            )


def std_normal_pdf(x: float) -> float:
    """Density of N(0, 1) at x."""
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


def inverse_mills(alpha: float) -> float:
    """Hazard ratio m(alpha) = pdf(alpha) / (1 - cdf(alpha)) of N(0, 1).

    Strictly positive, strictly increasing, and > alpha. The survival
    probability is evaluated through erfc, which keeps the ratio accurate far
    beyond the alpha in [0, 3] that TruncGaussParams admits, until erfc
    underflows near alpha = 38.
    """
    survival = 0.5 * math.erfc(alpha / _SQRT2)
    return std_normal_pdf(alpha) / survival


def truncated_upper_mean(p: TruncGaussParams) -> float:
    """Mean of N(mu, sigma^2) conditioned on x > mu + delta_c.

    Always exceeds mu + delta_c: the conditional mean lies beyond the
    truncation point.
    """
    return p.mu + p.sigma * inverse_mills(p.delta_c / p.sigma)


def d_truncated_mean_d_delta(p: TruncGaussParams) -> float:
    """Derivative of the truncated mean with respect to delta_c.

    Equals m(a) * (m(a) - a) with a = delta_c / sigma, which lies in (0, 1)
    for every finite a; sigma cancels.
    """
    alpha = p.delta_c / p.sigma
    m = inverse_mills(alpha)
    return m * (m - alpha)


def clip_threshold(delta: float, sigma: float) -> float:
    """Clipped threshold hardtanh(|delta|, 0, 3*sigma)."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return max(0.0, min(abs(delta), 3.0 * sigma))


def clip_threshold_grad(delta: float, sigma: float) -> float:
    """d clip_threshold / d delta: sign(delta) where 0 < |delta| < 3*sigma, else 0.
    The boundary points |delta| = 0 and |delta| = 3*sigma count as clipped."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    g = 1.0 if 0.0 < abs(delta) < 3.0 * sigma else 0.0
    return g * math.copysign(1.0, delta) if delta != 0.0 else 0.0
