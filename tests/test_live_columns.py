"""Ternary dense forwards that multiply only the live code columns.

Each result of the compacted path is compared with the same model run
against the full codes: the state's live columns cleared, so that matmul
multiplies the whole code matrix. The two GEMMs form each output from the
same terms, but the BLAS kernel that sums them depends on where a column
sits in the matrix, so the sums may differ in their last bits. The
tolerance is set from float64 rounding, not from observed differences: a
GEMM over an inner dimension K rounds within K * eps of the sum of the
terms' magnitudes (K = 784 here, about 1.7e-13), and RTOL/ATOL leave room
for that to pass through three layers and the loss.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain import autograd as ag
from terntrain import network, ternarize
from terntrain.data import Dataset
from terntrain.gradcheck import ternary_fixture
from terntrain.network import LayerSpec, Model, build_from_config, glorot
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, QuantizerState, refresh, sparsity, tern
from terntrain.trainer import eval_loss_acc, make_train_state, tern_train_step

RTOL = ATOL = 1e-11


def mlp_with_dead_columns(seed=0, shares=(0.6, 0.2, 0.3), f32_biases=False):
    """mlp-784-300-100-10 with each share of its three layers' columns shrunk
    into the threshold band: dead columns planted, as a threshold that runs to
    the 3-sigma clip leaves them in dense0 and dense1. With f32_biases the
    biases lie on the float32 grid, as a TERN file stores them."""
    rng = np.random.default_rng(seed)
    model = build_from_config("mlp-784-300-100-10", seed=seed)
    for layer, share in zip(model.quantized_layers(), shares):
        w = layer.w.data.copy()
        dead = rng.permutation(w.shape[1])[: int(share * w.shape[1])]
        w[:, dead] *= 0.01
        layer.w.data = w
        b = rng.normal(scale=0.1, size=layer.b.size)
        layer.b.data = b.astype(np.float32).astype(np.float64) if f32_biases else b
    model.init_thresholds(0.4)
    model.refresh_all()
    return model


def _live_of(codes):
    return np.flatnonzero(codes.any(axis=0))


def _run(model, x, y, mode):
    """Logits and the gradients of every weight, bias and threshold."""
    model.zero_grad()
    logits = model.forward(x, mode)
    ag.backward(ag.softmax_cross_entropy(logits, y))
    grads = [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    if mode == THRESHOLD_PHASE:
        grads += [float(leaf.grad) for leaf in model.delta_leaves.values()]
    return logits.data.copy(), grads


def _full_codes(model):
    for layer in model.quantized_layers():
        layer.qstate.live_columns = None


def _assert_close(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if a is None or b is None:
            assert a is b
        else:
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL)


def test_live_columns_are_the_nonzero_columns_of_the_codes():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(50, 40))
    w[:, ::3] *= 0.001
    state = QuantizerState(0.0)
    seen = set()
    for frac in (0.0, 0.5, 1.0, 2.0, 2.9, 5.0):
        state.delta = frac * float(np.std(w))
        refresh(state, w)
        assert np.array_equal(state.codes, tern(w, state.mu, state.delta_c))
        want = _live_of(state.codes)
        seen.add(want.size)
        if want.size == w.shape[1]:
            assert state.live_columns is None
            continue
        idx, cols = state.live_columns
        assert np.array_equal(idx, want)
        assert np.array_equal(cols, state.codes[:, idx])
        assert cols.flags.c_contiguous and not cols.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0] = 1.0
    assert 40 in seen and len(seen) >= 4  # the plain case and several live sets


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_set_codes_from_int8_matches_a_float_reference(rows, cols, dead_share, seed):
    rng = np.random.default_rng(seed)
    codes8 = rng.integers(-1, 2, size=(rows, cols)).astype(np.int8)
    codes8[:, rng.random(cols) < dead_share] = 0
    state = QuantizerState(0.0)
    ternarize.set_codes(state, codes8)
    ref = codes8.astype(np.float64)
    assert state.codes.dtype == np.int8 and not state.codes.flags.writeable
    assert np.array_equal(state.codes, ref)
    live = np.flatnonzero((ref != 0).any(axis=0))
    if live.size == cols:
        assert state.live_columns is None
        return
    idx, block = state.live_columns
    assert np.array_equal(idx, live)
    assert block.dtype == np.float64 and block.flags.c_contiguous and not block.flags.writeable
    assert np.array_equal(block, ref[:, live])


def test_set_codes_keeps_no_live_set_for_conv_codes():
    codes8 = np.zeros((4, 2, 3, 3), dtype=np.int8)
    codes8[1, 0, 1, 1] = -1
    state = QuantizerState(0.0)
    ternarize.set_codes(state, codes8)
    assert state.live_columns is None
    assert state.codes.dtype == np.int8 and not state.codes.flags.writeable
    assert np.array_equal(state.codes, codes8)


def test_set_codes_on_dead_columns_widens_only_the_live_block():
    """set_codes() allocates no float64 array of the codes' full shape, not
    even for a moment; float_codes() builds one once, and the next
    set_codes() drops it."""
    rng = np.random.default_rng(13)
    codes8 = rng.integers(-1, 2, size=(784, 300)).astype(np.int8)
    codes8[:, rng.permutation(300)[:180]] = 0
    full_bytes = codes8.size * 8
    state = QuantizerState(0.0)
    tracemalloc.start()
    try:
        ternarize.set_codes(state, codes8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_bytes and state.codes64 is None
    assert state.live_columns[1].shape == (784, 120)
    wide = state.float_codes()
    assert wide.dtype == np.float64 and not wide.flags.writeable and np.array_equal(wide, codes8)
    assert state.float_codes() is wide
    ternarize.set_codes(state, codes8.copy())
    assert state.codes64 is None


def test_a_ternary_step_widens_no_codes_of_a_first_layer_with_dead_columns():
    """dense0 multiplies its live block forward and its input takes no
    gradient, so no product of the step reads its full codes; dense1's input
    gradient g @ codes.T, and its forward once no column is dead, read them."""
    model = mlp_with_dead_columns(seed=14)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.01, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.05, weight_decay=0.0),
        seed=14,
    )
    rng = np.random.default_rng(15)
    tern_train_step(state, (rng.normal(size=(32, 784)), rng.integers(0, 10, size=32)))
    dense0, dense1, _ = model.quantized_layers()
    st = dense0.qstate
    assert st.live_columns is not None and st.codes.dtype == np.int8
    full = [k for k, v in vars(st).items() if isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (784, 300)]
    assert full == ["source"]  # the weights themselves
    assert dense1.qstate.codes64 is not None


def test_a_codes_node_keeps_the_codes_it_was_made_from():
    """A refresh between a forward and its backward does not reach the tape:
    the input gradients of dense1 and dense2, read in the backward, use the
    codes of the forward."""
    model = mlp_with_dead_columns(seed=16)
    rng = np.random.default_rng(17)
    x, y = rng.normal(size=(16, 784)), rng.integers(0, 10, size=16)
    twin = copy.deepcopy(model)
    twin.refresh_all()
    want = _run(twin, x, y, WEIGHT_PHASE)
    model.zero_grad()
    loss = ag.softmax_cross_entropy(model.forward(x, WEIGHT_PHASE), y)
    before = [l.qstate.codes for l in model.quantized_layers()]
    for layer in model.quantized_layers():
        layer.qstate.delta *= 0.5
    model.refresh_all()
    assert all(l.qstate.codes is not c for l, c in zip(model.quantized_layers(), before))
    ag.backward(loss)
    got = [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    for a, b in zip(got, want[1], strict=True):
        assert np.array_equal(a, b)


def test_no_dead_column_keeps_the_plain_path():
    model = build_from_config("mlp-6-5-3", seed=1)
    model.init_thresholds(0.05)
    model.refresh_all()
    for layer in model.quantized_layers():
        assert _live_of(layer.qstate.codes).size == layer.w.shape[1]
        assert layer.qstate.live_columns is None
    node = ternarize.ste_codes_node(model.quantized_layers()[0].w, model.quantized_layers()[0].qstate)
    assert node.live_columns is None
    lenet = build_from_config("lenet-small", seed=2)
    lenet.init_thresholds(0.1)
    lenet.refresh_all()
    for layer in lenet.quantized_layers()[:2]:  # conv layers keep no live set
        assert layer.qstate.live_columns is None


@pytest.mark.parametrize("mode", [THRESHOLD_PHASE, WEIGHT_PHASE])
def test_both_phases_and_all_gradients_match_the_full_codes(mode):
    model = mlp_with_dead_columns(seed=3)
    live = [l.qstate.live_columns[0].size for l in model.quantized_layers()]
    assert all(n <= most for n, most in zip(live, (120, 80, 7)))
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(64, 784)), rng.integers(0, 10, size=64)
    got = _run(model, x, y, mode)
    _full_codes(model)
    want = _run(model, x, y, mode)
    _assert_close([got[0]], [want[0]])
    _assert_close(got[1], want[1])


def test_ternary_eval_logits_match_the_full_codes():
    model = mlp_with_dead_columns(seed=5)
    x = np.random.default_rng(6).normal(size=(256, 784))
    with ag.no_grad():
        got = model.forward(x, WEIGHT_PHASE).data
        _full_codes(model)
        want = model.forward(x, WEIGHT_PHASE).data
    _assert_close([got], [want])


def _all_dead_model():
    # A layer of at most 9 weights lies within 3 sigma of its mean, so a
    # threshold clipped at 3 sigma zeroes every code.
    specs = [
        LayerSpec("dense", in_dim=3, out_dim=3, quantized=True),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=3, out_dim=2, quantized=True),
    ]
    model = Model(specs, glorot(9))
    rng = np.random.default_rng(9)
    for layer in model.param_layers():
        layer.b.data = rng.normal(size=layer.b.size)
        layer.qstate.delta = 100.0
    model.refresh_all()
    return model


def test_every_column_dead_gives_the_biases_alone():
    model = _all_dead_model()
    for layer in model.quantized_layers():
        st = layer.qstate
        assert sparsity(st.codes) == 1.0
        idx, cols = st.live_columns
        assert idx.size == 0 and cols.shape == (layer.w.shape[0], 0)
    x = np.random.default_rng(10).normal(size=(4, 3))
    last_bias = model.param_layers()[-1].b.data
    for mode in (THRESHOLD_PHASE, WEIGHT_PHASE):
        logits = model.forward(x, mode).data
        assert np.array_equal(logits, np.broadcast_to(last_bias, (4, 2)))


def test_live_set_recomputed_exactly_when_the_codes_are(monkeypatch):
    model, x, _ = ternary_fixture(seed=11)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.01, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.05, weight_decay=0.0),
        seed=11,
    )
    rng = np.random.default_rng(12)

    def batch():
        return rng.normal(size=(8,) + x.shape[1:]), rng.integers(0, 4, size=8)

    tern_train_step(state, batch())  # from here on, every step starts on new weights
    tern_calls = []
    real_tern, real_refresh = ternarize.tern, network.refresh
    monkeypatch.setattr(ternarize, "tern", lambda *args: tern_calls.append(1) or real_tern(*args))
    log = []

    def watched(qstate, w):
        before = (qstate.codes, qstate.live_columns)
        out = real_refresh(qstate, w)
        codes_new = qstate.codes is not before[0]
        if qstate.codes.ndim == 2:
            idx, cols = qstate.live_columns  # every dense layer keeps dead columns here
            assert np.array_equal(idx, _live_of(qstate.codes))
            assert np.array_equal(cols, qstate.codes[:, idx])
            assert (qstate.live_columns is not before[1]) == codes_new
        else:
            assert qstate.live_columns is None  # conv layers keep no live set
        log.append(codes_new)
        return out

    monkeypatch.setattr(network, "refresh", watched)
    n_layers = len(model.quantized_layers())
    for _ in range(3):
        log.clear()
        tern_calls.clear()
        tern_train_step(state, batch())
        assert len(log) == 2 * n_layers
        assert sum(log) == len(tern_calls)
    dataset = Dataset(rng.normal(size=(16,) + x.shape[1:]), rng.integers(0, 4, size=16))
    eval_loss_acc(model, dataset, "ternary")  # refreshes the last step's new weights
    log.clear()
    tern_calls.clear()
    eval_loss_acc(model, dataset, "ternary")  # neither the weights nor the thresholds moved since
    assert log == [False] * n_layers and tern_calls == []


def _lenet_small(seed=0):
    model = build_from_config("lenet-small", seed=seed)
    model.init_thresholds(0.1)
    model.refresh_all()
    return model


@pytest.mark.parametrize(
    "make, shape",
    [(mlp_with_dead_columns, (32, 784)), (_lenet_small, (32, 1, 28, 28))],
    ids=["mlp-784-300-100-10-dead-columns", "lenet-small"],
)
def test_both_phases_give_bit_identical_logits_at_one_state(make, shape):
    # Both phases compute S * linop(Tern(w)) from the same refreshed state;
    # they differ only in which factor is a tape variable.
    model = make(seed=7)
    x = np.random.default_rng(8).normal(size=shape)
    y = np.random.default_rng(9).integers(0, 10, size=shape[0])
    threshold = model.forward(x, THRESHOLD_PHASE).data
    weight = model.forward(x, WEIGHT_PHASE).data
    assert np.array_equal(threshold, weight)
    # Recording a threshold-phase tape and back-propagating it leaves the state as it was.
    model.zero_grad()
    ag.backward(ag.softmax_cross_entropy(model.forward(x, THRESHOLD_PHASE), y))
    assert np.array_equal(model.forward(x, WEIGHT_PHASE).data, threshold)
