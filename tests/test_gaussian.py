import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain.gaussian import (
    TruncGaussParams,
    clip_threshold,
    clip_threshold_grad,
    d_truncated_mean_d_delta,
    inverse_mills,
    std_normal_pdf,
    truncated_upper_mean,
)

# High-precision reference values, frozen from a 50-digit mpmath evaluation
# of the defining formulas.
PDF_AT_1 = 0.2419707245191433498
MILLS_AT_0 = 0.79788456080286535588  # sqrt(2/pi)
MILLS_AT_1 = 1.5251352761609812091
DSCALE_AT_0 = 0.63661977236758134308  # 2/pi
DSCALE_AT_1 = 0.80090233442965120845


def test_pdf_at_zero():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)


def test_pdf_at_one():
    assert std_normal_pdf(1.0) == pytest.approx(PDF_AT_1, rel=1e-14)


@given(st.floats(-30, 30))
def test_pdf_symmetric_and_positive(x):
    assert std_normal_pdf(x) > 0
    assert std_normal_pdf(-x) == std_normal_pdf(x)


def test_inverse_mills_at_zero():
    assert inverse_mills(0.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)


def test_inverse_mills_at_one():
    assert inverse_mills(1.0) == pytest.approx(MILLS_AT_1, rel=1e-13)


@given(st.floats(-8, 8))
def test_inverse_mills_exceeds_alpha_and_zero(alpha):
    m = inverse_mills(alpha)
    assert m > alpha
    assert m > 0.0


def test_inverse_mills_increasing():
    grid = np.linspace(-8, 8, 1601)
    vals = [inverse_mills(a) for a in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_truncated_mean_frozen_values():
    assert truncated_upper_mean(TruncGaussParams(0, 1, 0)) == pytest.approx(MILLS_AT_0, rel=1e-13)
    assert truncated_upper_mean(TruncGaussParams(0, 1, 1)) == pytest.approx(MILLS_AT_1, rel=1e-13)
    # Affine transformation of the delta_c = 0 case.
    assert truncated_upper_mean(TruncGaussParams(2, 3, 0)) == pytest.approx(
        2 + 3 * MILLS_AT_0, rel=1e-13
    )


def test_truncated_mean_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(2_000_000)
    for delta_c in (0.0, 0.8, 1.5):
        kept = samples[samples > delta_c]
        se = kept.std() / math.sqrt(kept.size)
        exact = truncated_upper_mean(TruncGaussParams(0.0, 1.0, delta_c))
        assert abs(kept.mean() - exact) < 3 * se


def test_truncated_mean_exceeds_truncation_point():
    rng = np.random.default_rng(0)
    for _ in range(500):
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.05, 3)
        delta_c = rng.uniform(0, 3) * sigma
        p = TruncGaussParams(mu, sigma, delta_c)
        assert truncated_upper_mean(p) > mu + delta_c


def test_truncated_mean_increasing_in_delta_c():
    deltas = np.linspace(0, 3, 64)
    vals = [truncated_upper_mean(TruncGaussParams(0.3, 1.7, d * 1.7)) for d in deltas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_truncated_mean_affine_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        mu = rng.uniform(-2, 2)
        sigma = rng.uniform(0.05, 3)
        delta_c = rng.uniform(0, 3) * sigma
        lhs = truncated_upper_mean(TruncGaussParams(mu, sigma, delta_c))
        rhs = mu + sigma * truncated_upper_mean(TruncGaussParams(0.0, 1.0, delta_c / sigma))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_params_reject_bad_sigma_and_delta():
    with pytest.raises(ValueError):
        TruncGaussParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TruncGaussParams(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        TruncGaussParams(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        TruncGaussParams(0.0, 1.0, 3.1)


def test_scale_derivative_frozen_values():
    assert d_truncated_mean_d_delta(TruncGaussParams(0, 1, 0)) == pytest.approx(
        DSCALE_AT_0, rel=1e-13
    )
    assert d_truncated_mean_d_delta(TruncGaussParams(0, 1, 1)) == pytest.approx(
        DSCALE_AT_1, rel=1e-13
    )


def test_scale_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(1000):
        mu = rng.uniform(-1, 1)
        sigma = rng.uniform(0.1, 2.0)
        delta_c = sigma * rng.uniform(1e-3, 3 - 1e-3)
        analytic = d_truncated_mean_d_delta(TruncGaussParams(mu, sigma, delta_c))
        fd = (
            truncated_upper_mean(TruncGaussParams(mu, sigma, delta_c + h))
            - truncated_upper_mean(TruncGaussParams(mu, sigma, delta_c - h))
        ) / (2 * h)
        assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-5


def test_scale_derivative_in_unit_interval():
    for alpha in np.linspace(0, 3, 200):
        d = d_truncated_mean_d_delta(TruncGaussParams(0.0, 1.0, alpha))
        assert 0.0 < d < 1.0


def test_hardtanh_examples():
    # clip_threshold is hardtanh(|delta|, 0, 3*sigma): inside, above and at
    # the lower end of the range.
    assert clip_threshold(1.2, 1.0) == 1.2
    assert clip_threshold(5.0, 1.0) == 3.0
    assert clip_threshold(0.0, 1.0) == 0.0


def test_hardtanh_subgradient():
    assert clip_threshold_grad(1.2, 1.0) == 1.0
    assert clip_threshold_grad(5.0, 1.0) == 0.0
    assert clip_threshold_grad(-5.0, 1.0) == 0.0
    # Exact boundary points count as clipped, at both ends of [0, 3*sigma].
    assert clip_threshold_grad(0.0, 1.0) == 0.0
    assert clip_threshold_grad(3.0, 1.0) == 0.0
    assert clip_threshold_grad(-3.0, 1.0) == 0.0


def test_clip_threshold_examples():
    assert clip_threshold(-0.2, 1.0) == pytest.approx(0.2)
    assert clip_threshold(4.0, 1.0) == 3.0
    assert clip_threshold(-5.0, 1.0) == 3.0
    assert clip_threshold(0.0, 1.0) == 0.0


@given(st.floats(-100, 100), st.floats(1e-6, 10))
@settings(max_examples=200)
def test_clip_threshold_output_in_bounds(delta, sigma):
    y = clip_threshold(delta, sigma)
    assert 0.0 <= y <= 3.0 * sigma
    if 0.0 < abs(delta) < 3.0 * sigma:
        assert y == abs(delta)


def test_clip_threshold_rejects_bad_sigma():
    with pytest.raises(ValueError):
        clip_threshold(0.5, 0.0)
    with pytest.raises(ValueError):
        clip_threshold_grad(0.5, -1.0)


def test_clip_threshold_grad_composes_sign():
    assert clip_threshold_grad(-0.2, 1.0) == -1.0
    assert clip_threshold_grad(0.2, 1.0) == 1.0
    assert clip_threshold_grad(4.0, 1.0) == 0.0  # clipped at the cap
    assert clip_threshold_grad(0.0, 1.0) == 0.0  # boundary of the abs kink
    # The cap counts as clipped at both signs, for any sigma.
    sigma = 0.37
    assert clip_threshold_grad(3.0 * sigma, sigma) == 0.0
    assert clip_threshold_grad(-3.0 * sigma, sigma) == 0.0
    assert clip_threshold_grad(math.nextafter(3.0 * sigma, 0.0), sigma) == 1.0
