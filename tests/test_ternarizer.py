import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from terntrain import autograd as ag
from terntrain.autograd import Tensor, backward
from terntrain.gaussian import TruncGaussParams, clip_threshold, truncated_upper_mean
from terntrain.gradcheck import check_threshold_phase_grad, dead_column_model, fd_grad, max_rel_err
from terntrain.network import LayerSpec, Model, build_from_config
from terntrain.ternarize import (
    THRESHOLD_PHASE,
    WEIGHT_PHASE,
    DegenerateLayerError,
    QuantizerState,
    is_fresh,
    layer_stats,
    refresh,
    sparsity,
    ste_codes_node,
    tern,
)


def test_layer_stats_constant_then_downstream_error():
    mu, sigma = layer_stats(np.array([1.0, 1.0, 1.0, 1.0]))
    assert (mu, sigma) == (1.0, 0.0)
    with pytest.raises(DegenerateLayerError):
        refresh(QuantizerState(0.1), np.ones(4))


def test_layer_stats_population_std():
    mu, sigma = layer_stats(np.array([-1.0, 1.0]))
    assert (mu, sigma) == (0.0, 1.0)  # divide-by-N, not N-1


@pytest.mark.parametrize("shape", [(2,), (1001,), (784, 300), (100, 10), (16, 6, 5, 5)])
@pytest.mark.parametrize("offset", [0.0, 3.7, -250.0])
def test_layer_stats_equals_numpy_mean_and_std_exactly(shape, offset):
    rng = np.random.default_rng(len(shape))
    w = rng.normal(offset, 0.05, size=shape)
    assert layer_stats(w) == (float(w.mean()), float(w.std()))


def test_layer_stats_rejects_tiny_layers():
    with pytest.raises(DegenerateLayerError):
        layer_stats(np.array([3.0]))


def test_layer_stats_sampling_oracle():
    rng = np.random.default_rng(5)
    w = rng.normal(0.3, 0.5, size=10_000)
    mu, sigma = layer_stats(w)
    se_mean = 0.5 / math.sqrt(10_000)
    se_std = 0.5 / math.sqrt(2 * 10_000)
    assert abs(mu - 0.3) < 3 * se_mean
    assert abs(sigma - 0.5) < 3 * se_std


def test_tern_piecewise_examples():
    assert tern(np.array([0.5]), 0.0, 0.3)[0] == 1.0
    assert tern(np.array([0.3]), 0.0, 0.3)[0] == 0.0  # boundary is inclusive
    out = tern(np.array([-0.4, 0.0, 0.1, 0.9]), 0.1, 0.2)
    assert np.array_equal(out, [-1.0, 0.0, 0.0, 1.0])


def test_tern_rejects_negative_delta_c():
    with pytest.raises(ValueError):
        tern(np.zeros(3), 0.0, -0.1)


@given(
    arrays(np.float64, st.integers(2, 40), elements=st.floats(-5, 5)),
    st.floats(-1, 1),
    st.floats(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_tern_codes_domain(w, mu, delta_c):
    codes = tern(w, mu, delta_c)
    assert np.isin(codes, (-1.0, 0.0, 1.0)).all()


def test_refresh_gaussian_scale():
    rng = np.random.default_rng(11)
    w = rng.standard_normal(100_000)
    state = refresh(QuantizerState(0.0), w)
    assert abs(state.scale - math.sqrt(2 / math.pi)) < 0.01


def test_refresh_cap_engages():
    rng = np.random.default_rng(12)
    w = rng.standard_normal(10_000)
    state = refresh(QuantizerState(10.0), w)
    assert state.delta_c == pytest.approx(3 * state.sigma)
    assert state.delta == 10.0  # delta untouched


def test_refresh_idempotent():
    rng = np.random.default_rng(13)
    w = rng.normal(0.2, 0.7, size=512)
    s1 = refresh(QuantizerState(0.3), w.copy())
    s2 = refresh(refresh(QuantizerState(0.3), w.copy()), w.copy())
    assert (s1.delta, s1.mu, s1.sigma, s1.delta_c, s1.scale) == (
        s2.delta,
        s2.mu,
        s2.sigma,
        s2.delta_c,
        s2.scale,
    )


def test_scale_exceeds_mu_plus_delta_c():
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), size=256)
        state = refresh(QuantizerState(rng.uniform(-2, 2)), w)
        assert state.scale > state.mu + state.delta_c


def test_weight_phase_ste_identity():
    rng = np.random.default_rng(15)
    w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    state = refresh(QuantizerState(0.4), w.data)
    out = ag.scale_by(ste_codes_node(w, state), state.scale)
    backward(ag.tsum(out))
    # d(sum(scale * Tern(w)))/dw = scale * (1/scale) = 1 for every weight.
    assert max_rel_err(w.grad, np.ones_like(w.data)) < 1e-6


def test_weight_phase_without_grad_correctness_scales_by_s():
    rng = np.random.default_rng(16)
    w = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
    state = refresh(QuantizerState(0.4), w.data)
    out = ag.scale_by(ste_codes_node(w, state, grad_correctness=False), state.scale)
    backward(ag.tsum(out))
    assert max_rel_err(w.grad, np.full_like(w.data, state.scale)) < 1e-12


def test_tern_node_backward_reciprocal():
    w = Tensor(np.array([0.5, -0.5, 2.0, -2.0]), requires_grad=True)
    state = refresh(QuantizerState(0.0), w.data)
    state.scale = 2.0  # the state stays fresh for w; force the example scale
    backward(ag.tsum(ste_codes_node(w, state)))
    assert np.allclose(w.grad, np.full(4, 0.5))


def test_threshold_phase_gradient_matches_finite_differences():
    result = check_threshold_phase_grad(seed=17)
    assert result.ok, f"max rel err {result.max_err}"


def test_threshold_phase_gradient_value():
    # dense 64->1 on an all-ones input with zero bias: the logit is
    # scale(delta) * sum(codes), through Model.forward's threshold phase.
    rng = np.random.default_rng(18)
    model = Model([LayerSpec("dense", in_dim=64, out_dim=1, quantized=True)])
    layer = model.param_layers()[0]
    layer.w.data = rng.normal(scale=0.6, size=(64, 1))
    layer.qstate.delta = 0.25
    model.refresh_all()
    state = layer.qstate
    codes = tern(layer.w.data, state.mu, state.delta_c)
    backward(ag.tsum(model.forward(np.ones((1, 64)), THRESHOLD_PHASE)))
    leaf = model.delta_leaves[layer.name]
    # Finite difference of scale(delta) * sum(frozen codes).
    def f(d):
        dc = clip_threshold(float(d), state.sigma)
        return truncated_upper_mean(TruncGaussParams(state.mu, state.sigma, dc)) * codes.sum()

    fd = float(fd_grad(f, np.float64(state.delta)))
    assert max_rel_err(float(leaf.grad), fd) < 1e-5
    assert layer.w.grad is None  # weights receive no gradient in threshold phase


def test_stale_state_detected_in_debug():
    model = build_from_config("mlp-8-4", seed=20)
    model.init_thresholds(0.1)
    model.refresh_all()
    dead = dead_column_model(seed=20)  # its layers multiply only live columns
    for m in (model, dead):
        layer = m.quantized_layers()[0]
        layer.w.data = layer.w.data + 1.0  # shift the mean without refreshing
        for mode in (WEIGHT_PHASE, THRESHOLD_PHASE):
            with pytest.raises(AssertionError, match="stale"):
                m.forward(np.zeros((1, layer.w.shape[0])), mode)


def test_sparsity_examples():
    assert sparsity(np.array([-1, 0, 0, 1])) == 0.5
    with pytest.raises(ValueError):
        sparsity(np.array([]))


def test_sparsity_zero_threshold_is_measure_zero():
    rng = np.random.default_rng(21)
    w = rng.standard_normal(100_000)
    state = refresh(QuantizerState(0.0), w)
    assert sparsity(state.codes) < 1e-4


def test_sparsity_at_standard_quartile():
    rng = np.random.default_rng(22)
    w = rng.standard_normal(100_000)
    codes = tern(w, 0.0, 0.6744897501960817)
    assert abs(sparsity(codes) - 0.5) < 0.01


def test_sparsity_monotone_in_delta_c():
    rng = np.random.default_rng(23)
    w = rng.normal(size=2048)
    values = [sparsity(tern(w, 0.0, dc)) for dc in np.linspace(0, 2.5, 26)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_refresh_locks_weights_and_caches_read_only_codes():
    rng = np.random.default_rng(24)
    w = rng.normal(size=(8, 3))
    state = refresh(QuantizerState(0.3), w)
    assert np.array_equal(state.codes, tern(w, state.mu, state.delta_c))
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 5.0  # an in-place write to refreshed weights raises
    with pytest.raises(ValueError, match="read-only"):
        state.codes[0, 0] = 0.0
    assert is_fresh(state, w)
    assert not is_fresh(state, w.copy())  # equal weights, but not the refreshed array
