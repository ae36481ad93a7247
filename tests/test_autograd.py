import math

import numpy as np
import pytest

from terntrain import autograd as ag
from terntrain import kernels
from terntrain.autograd import Tensor, backward
from terntrain.gradcheck import fd_grad, max_rel_err


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ag.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_example():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(ag.matmul(a, b).data, [[0.0, 1.0], [0.0, 0.0]])


def test_matmul_grad_of_sum():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    backward(ag.tsum(ag.matmul(a, b)))
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    fd = fd_grad(lambda x: float(np.sum(x @ b.data)), a.data)
    assert max_rel_err(a.grad, fd) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        ag.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_conv2d_all_ones_sums():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ag.conv2d(x, w, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv2d_delta_kernel_is_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 1, 5, 5)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = ag.conv2d(x, Tensor(k), stride=1, padding=1)
    assert np.allclose(out.data, x.data)


def test_conv2d_backward_matches_finite_differences():
    from terntrain import kernels

    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    backward(ag.mean(ag.conv2d(x, w, stride=1, padding=1)))
    fd_x = fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(a, w.data, 1, 1))), x.data)
    fd_w = fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(x.data, a, 1, 1))), w.data)
    assert max_rel_err(x.grad, fd_x) < 1e-5
    assert max_rel_err(w.grad, fd_w) < 1e-5


def test_conv2d_rejects_non_integral_extent():
    x = Tensor(np.ones((1, 1, 28, 28)))
    w = Tensor(np.ones((1, 1, 5, 5)))
    with pytest.raises(ValueError, match="non-integral"):
        ag.conv2d(x, w, stride=2, padding=2)


def test_relu():
    out = ag.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_scale_by_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ag.scale_by(x, 1.0).data, x.data)


def test_mean_backward_is_one_over_n():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(ag.mean(x))
    assert np.allclose(x.grad, np.full((3, 4), 1.0 / 12.0))


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        ag.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_add_bias_dense_and_conv():
    x = Tensor(np.zeros((2, 3)))
    b = Tensor(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(ag.add_bias(x, b).data, [[1, 2, 3], [1, 2, 3]])
    xc = Tensor(np.zeros((1, 2, 2, 2)))
    bc = Tensor(np.array([5.0, 7.0]))
    out = ag.add_bias(xc, bc)
    assert np.array_equal(out.data[0, 0], np.full((2, 2), 5.0))
    assert np.array_equal(out.data[0, 1], np.full((2, 2), 7.0))
    with pytest.raises(ValueError):
        ag.add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


def test_softmax_ce_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = ag.softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
    assert float(loss.data) == pytest.approx(math.log(10.0), rel=1e-12)


def test_softmax_ce_confident_logit_drives_loss_to_zero():
    losses = []
    for scale in (1.0, 10.0, 100.0):
        logits = np.zeros((1, 5))
        logits[0, 2] = scale
        losses.append(float(ag.softmax_cross_entropy(Tensor(logits), np.array([2])).data))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10


def test_softmax_ce_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        ag.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError):
        ag.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


def test_softmax_ce_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = np.array([1, 0, 4, 2])
    backward(ag.softmax_cross_entropy(logits, targets))

    def f(a):
        shifted = a - a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        return float(np.mean(lse - shifted[np.arange(4), targets]))

    assert max_rel_err(logits.grad, fd_grad(f, logits.data)) < 1e-6


def test_custom_grad_identity_passthrough():
    op = ag.register_custom_grad(lambda a: a, lambda g, a: (g,))
    x = Tensor(np.arange(4.0), requires_grad=True)
    backward(ag.tsum(op(x)))
    assert np.array_equal(x.grad, np.ones(4))


def test_custom_grad_sign_with_unit_backward():
    # sign forward, pass-through backward: the classic binary-net estimator.
    op = ag.register_custom_grad(lambda a: np.sign(a), lambda g, a: (g,))
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    out = op(x)
    assert np.array_equal(out.data, [-1.0, 1.0, 1.0])
    backward(ag.tsum(out))
    assert np.array_equal(x.grad, np.ones(3))


def test_custom_grad_shape_contract_checked_at_backward():
    op = ag.register_custom_grad(lambda a: a, lambda g, a: (g[:1],))
    x = Tensor(np.arange(4.0), requires_grad=True)
    out = op(x)
    with pytest.raises(ValueError, match="shape"):
        backward(ag.tsum(out))


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(ag.tsum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_scaled_sum_gives_twos():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(ag.scale_by(ag.tsum(w), 2.0))
    assert np.array_equal(w.grad, 2.0 * np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ag.relu(w))


def test_backward_accumulates_without_reset():
    w = Tensor(np.ones(3), requires_grad=True)
    backward(ag.tsum(w))
    backward(ag.tsum(w))
    assert np.array_equal(w.grad, 2.0 * np.ones(3))
    w.zero_grad()
    backward(ag.tsum(w))
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_linearity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def run(alpha):
        w.zero_grad()
        loss = ag.mean(ag.relu(ag.matmul(Tensor(x), w)))
        backward(ag.scale_by(loss, alpha))
        return w.grad.copy()

    g1 = run(1.0)
    g3 = run(3.0)
    assert np.allclose(g3, 3.0 * g1, rtol=1e-12)


def test_tape_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(5, 6)))
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        loss = ag.softmax_cross_entropy(
            ag.add_bias(ag.matmul(x, w), b), rng.integers(0, 4, size=5)
        )
        backward(loss)
        return loss.data.copy(), w.grad.copy(), b.grad.copy()

    l1, gw1, gb1 = run()
    l2, gw2, gb2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gb1, gb2)


def test_composite_mlp_matches_finite_differences():
    from terntrain.gradcheck import check_model_composite

    result = check_model_composite(seed=5)
    assert result.ok, f"max rel err {result.max_err}"


def test_diamond_graph_accumulates_both_paths():
    # y = x + x: gradient should be 2 along each element.
    x = Tensor(np.arange(3.0), requires_grad=True)
    backward(ag.tsum(ag.add(x, x)))
    assert np.array_equal(x.grad, 2.0 * np.ones(3))


def test_leaf_gradients_are_read_only():
    # add hands the same gradient array to both leaves: each gets a view of it.
    a = Tensor(np.arange(3.0), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    backward(ag.tsum(ag.add(a, b)))
    for leaf in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad += 1.0
    assert np.array_equal(a.grad, np.ones(3)) and np.array_equal(b.grad, np.ones(3))
    # An accumulated sum is locked the same way.
    backward(ag.tsum(ag.add(a, b)))
    assert np.array_equal(a.grad, 2.0 * np.ones(3))
    with pytest.raises(ValueError, match="read-only"):
        a.grad *= 0.0


def test_scalar_leaf_gradient_is_read_only():
    s = Tensor(np.asarray(2.0), requires_grad=True)
    backward(ag.scale_by(s, 3.0))
    assert float(s.grad) == 3.0
    with pytest.raises(ValueError, match="read-only"):
        s.grad[...] = 0.0


def _refuse(*args, **kwargs):
    raise AssertionError("gradient computed for an input that does not require one")


def _weighted_sum(out, g):
    """sum(out * g), whose gradient with respect to out is exactly g."""
    op = ag.register_custom_grad(lambda a: np.sum(a * g), lambda gr, a: float(gr) * g)
    return op(out)


def _conv_case(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 6, 6))
    w = rng.normal(size=(3, 2, 4, 4))
    g = rng.normal(size=(2, 3, 3, 3))
    return x, w, g


def test_conv2d_skips_input_gradient_of_constant_input(monkeypatch):
    x, w, g = _conv_case(3)
    expected = kernels.conv2d_backward_w(g, x, w.shape, 2, 1)
    monkeypatch.setattr(kernels, "conv2d_backward_x", _refuse)
    wt = Tensor(w, requires_grad=True)
    backward(_weighted_sum(ag.conv2d(Tensor(x), wt, 2, 1), g))
    assert np.array_equal(wt.grad, expected)


def test_conv2d_skips_kernel_gradient_of_frozen_kernel(monkeypatch):
    x, w, g = _conv_case(4)
    expected = kernels.conv2d_backward_x(g, x.shape, w, 2, 1)
    monkeypatch.setattr(kernels, "conv2d_backward_w", _refuse)
    xt = Tensor(x, requires_grad=True)
    backward(_weighted_sum(ag.conv2d(xt, Tensor(w), 2, 1), g))
    assert np.array_equal(xt.grad, expected)


def test_conv2d_computes_both_gradients_when_both_are_needed():
    x, w, g = _conv_case(5)
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    backward(_weighted_sum(ag.conv2d(xt, wt, 2, 1), g))
    assert np.array_equal(xt.grad, kernels.conv2d_backward_x(g, x.shape, w, 2, 1))
    assert np.array_equal(wt.grad, kernels.conv2d_backward_w(g, x, w.shape, 2, 1))


class _NoTranspose(np.ndarray):
    """A matmul operand whose transpose serves only the other operand's gradient."""

    @property
    def T(self):
        _refuse()


def _trainable_without_transpose(a):
    t = Tensor(a, requires_grad=True)
    t.data = a.view(_NoTranspose)
    return t


def test_matmul_skips_gradient_of_constant_operand():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    g = rng.normal(size=(3, 2))

    # a constant: its gradient g @ b.T would be the only use of b.T.
    bt = _trainable_without_transpose(b)
    backward(_weighted_sum(ag.matmul(Tensor(a), bt), g))
    assert np.array_equal(bt.grad, a.T @ g)

    # b constant: its gradient a.T @ g would be the only use of a.T.
    at = _trainable_without_transpose(a)
    backward(_weighted_sum(ag.matmul(at, Tensor(b)), g))
    assert np.array_equal(at.grad, g @ b.T)


def test_smul_skips_gradient_of_constant_operand():
    rng = np.random.default_rng(8)
    s = np.float64(0.75)
    x = rng.normal(size=(3, 2))
    g = rng.normal(size=(3, 2))

    # x constant, as the first layer's threshold-phase product is: no g * s.
    st = Tensor(s, requires_grad=True)
    out = ag.smul(st, Tensor(x))
    assert out._backward(g)[1] is None
    backward(_weighted_sum(out, g))
    assert st.grad == np.sum(g * x)

    # s constant: no sum(g * x).
    xt = Tensor(x, requires_grad=True)
    out = ag.smul(Tensor(s), xt)
    assert out._backward(g)[0] is None
    backward(_weighted_sum(out, g))
    assert np.array_equal(xt.grad, g * s)


def test_no_grad_records_no_parents():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with ag.no_grad():
        out = ag.relu(ag.matmul(x, w))
    assert out._parents == () and out._backward is None
    assert not out.requires_grad
    assert np.array_equal(out.data, np.maximum(x.data @ w.data, 0.0))


def test_recording_resumes_after_no_grad_block():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with ag.no_grad():
        with ag.no_grad():
            pass
        assert ag.relu(x)._parents == ()
    assert ag.relu(x)._parents == (x,)
    with pytest.raises(RuntimeError):
        with ag.no_grad():
            raise RuntimeError("inside the block")
    out = ag.tsum(ag.relu(x))
    assert out._parents and out.requires_grad
    backward(out)
    assert np.array_equal(x.grad, np.ones((2, 2)))
