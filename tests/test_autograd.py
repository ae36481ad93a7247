import contextlib
import math

import numpy as np
import pytest

from terntrain import autograd as ag
from terntrain import kernels
from terntrain.autograd import Tensor, backward
from terntrain.gradcheck import fd_grad, max_rel_err
from terntrain.ternarize import QuantizerState, refresh, threshold_scale_node


def _sum(x):
    """sum(x) as a tape node: np.sum forward, float(g) * ones backward."""
    return ag._node(np.asarray(np.sum(x.data)), (x,), lambda g: (float(g) * np.ones_like(x.data),))


def _add(a, b):
    """a + b as a tape node that hands the one output gradient to both inputs."""
    return ag._node(a.data + b.data, (a, b), lambda g: (g, g))


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
    backward(_sum(ag.matmul(a, b)))
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
    fd_x = fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(a, w.data, 1, 1)[0])), x.data)
    fd_w = fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(x.data, a, 1, 1)[0])), w.data)
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


def test_smul_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ag.smul(Tensor(1.0), x).data, x.data)


def test_mean_backward_is_one_over_n():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(ag.mean(x))
    assert np.allclose(x.grad, np.full((3, 4), 1.0 / 12.0))


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
    x = Tensor(np.arange(4.0), requires_grad=True)
    backward(_sum(ag._node(x.data, (x,), lambda g: (g,))))
    assert np.array_equal(x.grad, np.ones(4))


def test_custom_grad_sign_with_unit_backward():
    # sign forward, pass-through backward: the classic binary-net estimator.
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    out = ag._node(np.sign(x.data), (x,), lambda g: (g,))
    assert np.array_equal(out.data, [-1.0, 1.0, 1.0])
    backward(_sum(out))
    assert np.array_equal(x.grad, np.ones(3))


def test_custom_grad_shape_contract_checked_at_backward():
    # backward() checks the shape of each gradient a rule returns.
    x = Tensor(np.arange(4.0), requires_grad=True)
    out = ag._node(x.data, (x,), lambda g: (g[:1],))
    with pytest.raises(ValueError, match="shape"):
        backward(_sum(out))


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(_sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_scaled_sum_gives_twos():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(ag.smul(Tensor(2.0), _sum(w)))
    assert np.array_equal(w.grad, 2.0 * np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ag.relu(w))


def test_backward_accumulates_without_reset():
    w = Tensor(np.ones(3), requires_grad=True)
    backward(_sum(w))
    backward(_sum(w))
    assert np.array_equal(w.grad, 2.0 * np.ones(3))
    w.zero_grad()
    backward(_sum(w))
    assert np.array_equal(w.grad, np.ones(3))


def test_backward_linearity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def run(alpha):
        w.zero_grad()
        loss = ag.mean(ag.relu(ag.matmul(Tensor(x), w)))
        backward(ag.smul(Tensor(alpha), loss))
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


def test_composite_model_matches_finite_differences():
    from terntrain.gradcheck import check_model_composite

    result = check_model_composite(seed=5)
    assert result.ok, f"max rel err {result.max_err}"


def test_diamond_graph_accumulates_both_paths():
    # y = x + x: gradient should be 2 along each element.
    x = Tensor(np.arange(3.0), requires_grad=True)
    backward(_sum(_add(x, x)))
    assert np.array_equal(x.grad, 2.0 * np.ones(3))


def test_leaf_gradients_are_read_only():
    # _add hands the same gradient array to both leaves: each gets a view of it.
    a = Tensor(np.arange(3.0), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    backward(_sum(_add(a, b)))
    for leaf in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            leaf.grad += 1.0
    assert np.array_equal(a.grad, np.ones(3)) and np.array_equal(b.grad, np.ones(3))
    # An accumulated sum is locked the same way.
    backward(_sum(_add(a, b)))
    assert np.array_equal(a.grad, 2.0 * np.ones(3))
    with pytest.raises(ValueError, match="read-only"):
        a.grad *= 0.0


def test_scalar_leaf_gradient_is_read_only():
    s = Tensor(np.asarray(2.0), requires_grad=True)
    backward(ag.smul(Tensor(3.0), s))
    assert float(s.grad) == 3.0
    with pytest.raises(ValueError, match="read-only"):
        s.grad[...] = 0.0


def _refuse(*args, **kwargs):
    raise AssertionError("gradient computed for an input that does not require one")


def _weighted_sum(out, g):
    """sum(out * g), whose gradient with respect to out is exactly g."""
    return ag._node(np.asarray(np.sum(out.data * g)), (out,), lambda gr: (float(gr) * g,))


def _conv_case(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 6, 6))
    w = rng.normal(size=(3, 2, 4, 4))
    g = rng.normal(size=(2, 3, 3, 3))
    return x, w, g


def _conv_kernel_grad(x, w, g):
    return kernels.conv2d_backward_w(g, x, w.shape, 2, 1, kernels.conv2d_forward(x, w, 2, 1)[1])


def test_conv2d_skips_input_gradient_of_constant_input(monkeypatch):
    x, w, g = _conv_case(3)
    expected = _conv_kernel_grad(x, w, g)
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
    assert np.array_equal(wt.grad, _conv_kernel_grad(x, w, g))


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


@pytest.mark.parametrize("shape", [(3, 4), (2, 4, 3, 3)], ids=["dense", "conv"])
def test_add_bias_skips_gradient_of_constant_bias(shape):
    # A constant bias, as the threshold phase reads it: no sum of g.
    rng = np.random.default_rng(9)
    x, b, g = rng.normal(size=shape), rng.normal(size=4), rng.normal(size=shape)
    xt = Tensor(x, requires_grad=True)
    out = ag.add_bias(xt, Tensor(b))
    assert out._backward(g)[1] is None
    backward(_weighted_sum(out, g))
    assert np.array_equal(xt.grad, g)


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
    out = _sum(ag.relu(x))
    assert out._parents and out.requires_grad
    backward(out)
    assert np.array_equal(x.grad, np.ones((2, 2)))


def _bits(a: np.ndarray) -> tuple:
    """a's shape, memory layout and every bit of every value."""
    return a.shape, a.strides, np.ascontiguousarray(a).view(np.uint64).tobytes()


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "no-relu"])
@pytest.mark.parametrize("scale", [None, "constant", "trainable"])
@pytest.mark.parametrize("shape", [(4, 5), (4, 3, 2, 2)], ids=["dense", "batch-last-conv"])
@pytest.mark.parametrize("recording", [True, False], ids=["recording", "no_grad"])
def test_fused_epilogue_matches_smul_add_bias_relu_bit_for_bit(recording, shape, scale, relu):
    """add_bias(x, b, s, relu) against relu(add_bias(smul(s, x), b)): the
    output and every gradient agree in every bit and in memory layout, on
    pre-activations that include exact 0.0, -0.0 and NaN."""
    rng = np.random.default_rng(5)
    sval = 1.0 if scale is None else 0.5  # a power of two: x = -b / s is exact
    b = rng.normal(size=shape[1])
    b[0] = -0.0
    x = rng.normal(size=shape)
    corner = (0,) * (len(shape) - 2)
    x[(0, 1, *corner)] = -b[1] / sval  # s * x + b is 0.0
    x[(1, 0, *corner)] = -0.0  # -0.0 + -0.0 is -0.0
    x[(2, 0, *corner)] = 0.0  # 0.0 + -0.0 is 0.0
    x[(3, 2, *corner)] = np.nan
    if len(shape) == 4:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    r = Tensor(rng.normal(size=(x[0].size, 3)))

    def run(fused):
        xt, bt = Tensor(x, requires_grad=True), Tensor(b, requires_grad=True)
        st = None if scale is None else Tensor(sval, requires_grad=scale == "trainable")
        if fused:
            out = ag.add_bias(xt, bt, st, relu)
        else:
            out = ag.add_bias(xt if st is None else ag.smul(st, xt), bt)
            out = ag.relu(out) if relu else out
        if recording:
            backward(ag.mean(ag.matmul(ag.flatten(out), r)))
        return out, [t.grad for t in (xt, bt, st) if t is not None and t.requires_grad]

    with contextlib.nullcontext() if recording else ag.no_grad():
        fused, grads = run(True)
        reference, ref_grads = run(False)
    pre = sval * x + b.reshape(-1, *(1,) * len(corner))
    assert [pre[(i, c, *corner)].tobytes() for i, c in ((0, 1), (1, 0), (2, 0))] == [
        np.float64(v).tobytes() for v in (0.0, -0.0, 0.0)
    ]
    assert np.isnan(pre).sum() == 1
    assert fused.requires_grad is recording
    assert len(fused._parents) == (2 + (scale is not None) if recording else 0)
    assert _bits(fused.data) == _bits(reference.data)
    assert len(grads) == 2 + (scale == "trainable")
    if recording:
        assert [_bits(g) for g in grads] == [_bits(g) for g in ref_grads]
    else:
        assert grads == ref_grads == [None] * len(grads)


def _every_op() -> dict:
    """One node of every op, on inputs that require a gradient."""
    rng = np.random.default_rng(31)

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x, img = leaf(3, 4), leaf(2, 3, 5, 5)
    codes = np.zeros((4, 5))
    codes[:, [1, 3]] = rng.choice([-1.0, 1.0], size=(4, 2))
    live = Tensor(codes, requires_grad=True)
    live.live_columns = (np.array([1, 3]), np.ascontiguousarray(codes[:, [1, 3]]))
    conv = ag.conv2d(img, leaf(4, 3, 3, 3), 1, 1)
    state = refresh(QuantizerState(0.5), rng.normal(size=(4, 5)))
    return {
        "matmul": ag.matmul(x, leaf(4, 5)),
        "matmul-live-columns": ag.matmul(x, live),
        "conv2d": conv,
        "relu": ag.relu(x),
        "add_bias-2d": ag.add_bias(x, leaf(4)),
        "add_bias-4d": ag.add_bias(conv, leaf(4)),
        "add_bias-scale-relu": ag.add_bias(conv, leaf(4), Tensor(0.7, requires_grad=True), relu=True),
        "smul": ag.smul(Tensor(0.7, requires_grad=True), x),
        "mean": ag.mean(x),
        "flatten": ag.flatten(conv),
        "softmax_cross_entropy": ag.softmax_cross_entropy(x, np.array([0, 1, 3])),
        "threshold_scale_node": threshold_scale_node(Tensor(0.5, requires_grad=True), state),
    }


@pytest.mark.parametrize("recording", [True, False], ids=["recording", "no_grad"])
def test_every_op_node_holds_a_float64_ndarray(recording):
    # _node keeps an op's result as it is, with no conversion: each op must
    # compute a float64 ndarray itself.
    if recording:
        nodes = _every_op()
    else:
        with ag.no_grad():
            nodes = _every_op()
    for name, node in nodes.items():
        assert type(node) is Tensor, name
        assert type(node.data) is np.ndarray and node.data.dtype == np.float64, name
        assert node.requires_grad is recording and (node._backward is not None) is recording, name
        assert node.grad is None and node.live_columns is None, name
