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

import numpy as np
import pytest

from terntrain import autograd as ag
from terntrain import gradcheck, network, ternarize
from terntrain.data import Dataset
from terntrain.gradcheck import dead_column_model
from terntrain.network import LayerSpec, Model, build_from_config
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, QuantizerState, refresh, sparsity, tern
from terntrain.trainer import eval_loss_acc, make_train_state, tern_train_step

RTOL = ATOL = 1e-11


def _mlp_with_dead_columns(seed=0):
    """mlp-784-300-100-10 with 60%, 20% and 30% of its layers' columns
    shrunk into the threshold band, as training leaves dense0 and dense1."""
    rng = np.random.default_rng(seed)
    model = build_from_config("mlp-784-300-100-10", seed=seed)
    for layer, share in zip(model.quantized_layers(), (0.6, 0.2, 0.3)):
        w = layer.w.data.copy()
        dead = rng.permutation(w.shape[1])[: int(share * w.shape[1])]
        w[:, dead] *= 0.01
        layer.w.data = w
        layer.b.data = rng.normal(scale=0.1, size=layer.b.size)
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
    model = _mlp_with_dead_columns(seed=3)
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
    model = _mlp_with_dead_columns(seed=5)
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
    model = Model(specs, seed=9)
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
    model = dead_column_model(seed=11)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.01, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.05, weight_decay=0.0),
        seed=11,
    )
    rng = np.random.default_rng(12)

    def batch():
        return rng.normal(size=(8, 6)), rng.integers(0, 3, size=8)

    tern_train_step(state, batch())  # from here on, every step starts on new weights
    tern_calls = []
    real_tern, real_refresh = ternarize.tern, network.refresh
    monkeypatch.setattr(ternarize, "tern", lambda *args: tern_calls.append(1) or real_tern(*args))
    log = []

    def watched(qstate, w):
        before = (qstate.codes, qstate.live_columns)
        out = real_refresh(qstate, w)
        idx, cols = qstate.live_columns  # every layer keeps dead columns here
        assert np.array_equal(idx, _live_of(qstate.codes))
        assert np.array_equal(cols, qstate.codes[:, idx])
        codes_new = qstate.codes is not before[0]
        assert (qstate.live_columns is not before[1]) == codes_new
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
    dataset = Dataset(rng.normal(size=(16, 6)), rng.integers(0, 3, size=16))
    eval_loss_acc(model, dataset, "ternary")  # refreshes the last step's new weights
    log.clear()
    tern_calls.clear()
    eval_loss_acc(model, dataset, "ternary")  # neither the weights nor the thresholds moved since
    assert log == [False] * n_layers and tern_calls == []


def test_dead_column_gradcheck_catches_a_forward_that_disagrees_with_the_codes(monkeypatch):
    assert gradcheck.check_dead_column_grads(0).ok

    def corrupted(seed=0):
        model = dead_column_model(seed)
        for layer in model.quantized_layers():
            idx, cols = layer.qstate.live_columns
            layer.qstate.live_columns = (idx, -cols)
        return model

    monkeypatch.setattr(gradcheck, "dead_column_model", corrupted)
    assert not gradcheck.check_dead_column_grads(0).ok
