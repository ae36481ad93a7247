import copy
import csv
import warnings

import numpy as np
import pytest

from terntrain.data import Dataset
from terntrain.gaussian import (
    TruncGaussParams,
    clip_threshold,
    clip_threshold_grad,
    d_truncated_mean_d_delta,
    truncated_upper_mean,
)
from terntrain.modelio import checkpoint_to_bytes, load_checkpoint, save_checkpoint
from terntrain import cli, network, ternarize, trainer
from terntrain.autograd import Tensor, softmax_cross_entropy
from terntrain.network import FLOAT_MODE, LayerSpec, Model, build_from_config, glorot
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import WEIGHT_PHASE, tern
from terntrain.trainer import (
    DivergenceError,
    eval_loss_acc,
    make_train_state,
    pretrain,
    tern_train_step,
    threshold_substep,
    train,
    weight_substep,
)


def _toy_dataset(n=64, d=6, k=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(k, d))
    labels = rng.integers(0, k, size=n)
    x = centers[labels] + rng.normal(size=(n, d))
    return Dataset(x, labels)


def _toy_state(seed=0, w_lr=0.05, t_lr=0.05, w_kind="vanilla-sgd", **kwargs):
    model = build_from_config("mlp-6-5-3", seed=seed)
    model.init_thresholds(0.1)
    return make_train_state(
        model,
        OptimizerConfig(kind=w_kind, lr=w_lr, momentum=0.0),
        OptimizerConfig(kind="vanilla-sgd", lr=t_lr, weight_decay=0.0),
        seed=seed,
        **kwargs,
    )


def test_zero_threshold_lr_freezes_deltas_weights_move():
    state = _toy_state(t_lr=1e-300)  # lr must be > 0; effectively zero
    ds = _toy_dataset()
    before_deltas = [l.qstate.delta for l in state.model.quantized_layers()]
    before_w = [l.w.data.copy() for l in state.model.param_layers()]
    tern_train_step(state, (ds.images[:16], ds.labels[:16]))
    after_deltas = [l.qstate.delta for l in state.model.quantized_layers()]
    assert np.allclose(before_deltas, after_deltas, atol=1e-250)
    moved = any(
        not np.array_equal(l.w.data, b) for l, b in zip(state.model.param_layers(), before_w)
    )
    assert moved


def test_zero_weight_lr_freezes_weights_deltas_descend():
    state = _toy_state(w_lr=1e-300, t_lr=0.05)
    ds = _toy_dataset(seed=1)
    model = state.model
    before_w = [l.w.data.copy() for l in model.param_layers()]
    before_b = [l.b.data.copy() for l in model.param_layers()]

    # Capture the threshold gradients of this exact step, then verify each
    # delta moved opposite its gradient's sign.
    model.refresh_all()
    deltas0 = {l.name: l.qstate.delta for l in model.quantized_layers()}
    threshold_substep(state, ds.images[:16], ds.labels[:16])
    grads = {name: float(model.delta_leaves[name].grad) for name in model.delta_leaves}
    for layer in model.quantized_layers():
        g = grads[layer.name]
        if g != 0.0:
            assert np.sign(layer.qstate.delta - deltas0[layer.name]) == -np.sign(g)

    model.refresh_all()
    weight_substep(state, ds.images[:16], ds.labels[:16])
    for layer, bw, bb in zip(model.param_layers(), before_w, before_b):
        assert np.allclose(layer.w.data, bw, atol=1e-250)
        assert np.allclose(layer.b.data, bb, atol=1e-250)


def test_single_step_matches_hand_computation():
    # One dense layer, two weights, one sample: both phases recomputed with
    # plain numpy formulas outside the trainer/autograd stack.
    model = Model([LayerSpec("dense", in_dim=1, out_dim=2, quantized=True)], glorot(0))
    layer = model.param_layers()[0]
    layer.w.data = np.array([[0.8, -0.4]])
    layer.b.data = np.array([0.1, -0.2])
    layer.qstate.delta = 0.3
    t_lr, w_lr = 0.05, 0.1
    state = make_train_state(
        model,
        OptimizerConfig(kind="vanilla-sgd", lr=w_lr),
        OptimizerConfig(kind="vanilla-sgd", lr=t_lr, weight_decay=0.0),
        seed=0,
    )
    x = np.array([[1.5]])
    y = np.array([0])
    tern_train_step(state, (x, y))

    # --- hand computation -------------------------------------------------
    w = np.array([[0.8, -0.4]])
    b = np.array([0.1, -0.2])
    delta = 0.3
    mu, sigma = w.mean(), w.std()

    def scale_of(d):
        dc = clip_threshold(d, sigma)
        return truncated_upper_mean(TruncGaussParams(mu, sigma, dc)), dc

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    # threshold phase
    s, dc = scale_of(delta)
    codes = tern(w, mu, dc)
    logits = s * (x @ codes)[0] + b
    p = softmax(logits)
    grad_logits = p - np.array([1.0, 0.0])
    dl_ds = float(grad_logits @ (x @ codes)[0])
    dl_ddelta = (
        dl_ds
        * d_truncated_mean_d_delta(TruncGaussParams(mu, sigma, dc))
        * clip_threshold_grad(delta, sigma)
    )
    delta = delta - t_lr * dl_ddelta

    # re-synchronize, then weight phase
    s, dc = scale_of(delta)
    codes = tern(w, mu, dc)
    logits = s * (x @ codes)[0] + b
    p = softmax(logits)
    grad_logits = p - np.array([1.0, 0.0])
    grad_w = x.T @ grad_logits[None, :]  # STE composite: exactly the float-path form
    grad_b = grad_logits
    w = (w - w_lr * grad_w).astype(np.float32).astype(np.float64)
    b = (b - w_lr * grad_b).astype(np.float32).astype(np.float64)

    assert layer.qstate.delta == pytest.approx(delta, rel=1e-9)
    assert np.allclose(layer.w.data, w, rtol=1e-9)
    assert np.allclose(layer.b.data, b, rtol=1e-9)


def test_phase_isolation_small():
    state = _toy_state(seed=2)
    ds = _toy_dataset(seed=2)
    model = state.model
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = rng.integers(0, len(ds), size=8)
        xb, yb = ds.images[idx], ds.labels[idx]
        model.refresh_all()
        w_before = [l.w.data.copy() for l in model.param_layers()]
        b_before = [l.b.data.copy() for l in model.param_layers()]
        threshold_substep(state, xb, yb)
        for layer, bw, bb in zip(model.param_layers(), w_before, b_before):
            assert np.array_equal(layer.w.data, bw)
            assert np.array_equal(layer.b.data, bb)
        model.refresh_all()
        d_before = [l.qstate.delta for l in model.quantized_layers()]
        weight_substep(state, xb, yb)
        for layer, bd in zip(model.quantized_layers(), d_before):
            assert layer.qstate.delta == bd
        for layer in model.quantized_layers():
            st = layer.qstate
            assert 0.0 <= st.delta_c <= 3.0 * st.sigma


def test_divergence_raises():
    model = build_from_config("mlp-6-5-3", seed=4)
    ds = _toy_dataset(seed=4)
    cfg = OptimizerConfig(kind="vanilla-sgd", lr=1e30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as exc:
            pretrain(model, ds, cfg, epochs=3, batch_size=16, seed=4)
    assert list(exc.value.dump) == ["phase", "epoch", "batch"]
    assert exc.value.dump["phase"] == "pretrain"


@pytest.mark.parametrize("ternary, phase", [(False, "pretrain"), (True, "threshold")])
def test_divergence_dump_names_the_loop_batch(ternary, phase):
    state = _toy_state(seed=4)
    if not ternary:
        state = make_train_state(state.model, OptimizerConfig(kind="vanilla-sgd", lr=0.05), seed=4)
    ds = _toy_dataset(seed=4)
    ds.images[5] = np.nan
    with pytest.raises(DivergenceError) as exc:
        train(state, ds, epochs=1, batch_size=16)
    position = int(np.flatnonzero(np.random.default_rng(4).permutation(len(ds)) == 5)[0])
    assert exc.value.dump == {"phase": phase, "epoch": 0, "batch": position // 16}


def test_ternary_weights_that_overflow_are_a_divergence():
    state = _toy_state(seed=4, w_lr=1e30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as exc:
            train(state, _toy_dataset(seed=4), epochs=3, batch_size=16)
    dump = exc.value.dump
    assert list(dump) == ["phase", "epoch", "batch"]
    assert dump["phase"] in ("threshold", "weight") and isinstance(dump["batch"], int)


@pytest.mark.parametrize("ternary, phase", [(False, "pretrain"), (True, "weight")])
def test_weights_that_overflow_are_caught_at_the_update_that_makes_them(ternary, phase):
    # At weight lr 1e30 the weights of mlp-6-5-3 leave float32's range in batch 1's update.
    state = _toy_state(seed=4, w_lr=1e30)
    if not ternary:
        state = make_train_state(state.model, OptimizerConfig(kind="vanilla-sgd", lr=1e30), seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match="^non-finite weights at ") as exc:
            train(state, _toy_dataset(seed=4), epochs=3, batch_size=16)
    assert exc.value.dump == {"phase": phase, "epoch": 0, "batch": 1}


def test_an_unquantized_layer_that_overflows_is_caught_at_its_update():
    specs = [LayerSpec("dense", in_dim=6, out_dim=5, quantized=True), LayerSpec("relu"),
             LayerSpec("dense", in_dim=5, out_dim=3, quantized=False)]
    model = Model(specs, glorot(4))
    model.init_thresholds(0.1)
    state = make_train_state(model, OptimizerConfig(kind="vanilla-sgd", lr=0.05),
                             OptimizerConfig(kind="vanilla-sgd", lr=0.05), seed=4)
    real_step, steps = state.weight_opt.step, []

    def step():
        real_step()
        steps.append(None)
        if len(steps) == 3:  # batch 2's update: finite in float64, beyond float32's range
            model.param_layers()[1].w.data[0, 0] = 1e39

    state.weight_opt.step = step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match="^non-finite weights at ") as exc:
            train(state, _toy_dataset(seed=4), epochs=1, batch_size=16)
    assert exc.value.dump == {"phase": "weight", "epoch": 0, "batch": 2}


def test_the_threshold_phase_takes_no_weight_or_bias_gradient():
    """The threshold substep reads every weight and bias as a constant, on a
    quantized layer and on an unquantized one, so no parameter gets a
    gradient; the weight substep gives every one of them a gradient."""
    specs = [LayerSpec("dense", in_dim=6, out_dim=5, quantized=True), LayerSpec("relu"),
             LayerSpec("dense", in_dim=5, out_dim=4, quantized=False), LayerSpec("relu"),
             LayerSpec("dense", in_dim=4, out_dim=3, quantized=True)]
    model = Model(specs, glorot(5))
    model.init_thresholds(0.1)
    sgd = OptimizerConfig(kind="vanilla-sgd", lr=0.05)
    state = make_train_state(model, sgd, sgd, seed=5)
    ds = _toy_dataset(n=16, seed=5)
    model.refresh_all()
    threshold_substep(state, ds.images, ds.labels)
    assert [(p.grad is None) for p in model.parameters()] == [True] * 6
    model.refresh_all()
    weight_substep(state, ds.images, ds.labels)
    assert [(p.grad is None) for p in model.parameters()] == [False] * 6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_threshold_update_is_a_divergence(monkeypatch, bad):
    state = _toy_state(seed=4)
    real_update = state.threshold_opt.update
    n_layers = len(state.model.quantized_layers())
    calls = []

    def update(name, delta, g):
        calls.append(name)
        # The second layer's threshold goes bad on batch 2.
        return bad if len(calls) == 2 * n_layers + 2 else real_update(name, delta, g)

    monkeypatch.setattr(state.threshold_opt, "update", update)
    with pytest.raises(DivergenceError, match="non-finite threshold") as exc:
        train(state, _toy_dataset(seed=4), epochs=1, batch_size=16)
    assert exc.value.dump == {"phase": "threshold", "epoch": 0, "batch": 2}
    # The bad value is not applied: every threshold is finite and refreshable.
    assert all(np.isfinite(l.qstate.delta) for l in state.model.quantized_layers())
    state.model.refresh_all()


def test_a_threshold_without_a_gradient_is_an_error_not_a_zero_step(monkeypatch):
    """A scale node cut off from its threshold leaf would freeze the threshold without a word."""
    state = _toy_state(seed=4)
    ds = _toy_dataset(seed=4)
    monkeypatch.setattr(network, "threshold_scale_node", lambda leaf, st: Tensor(st.scale))
    with pytest.raises(RuntimeError, match="dense0"):
        tern_train_step(state, (ds.images[:16], ds.labels[:16]))


def test_evaluate_constant_predictor_on_balanced_data():
    model = build_from_config("mlp-4-10", seed=5)
    layer = model.param_layers()[-1]
    layer.b.data = np.zeros(10)
    layer.b.data[0] = 1000.0
    rng = np.random.default_rng(6)
    ds = Dataset(rng.normal(size=(100, 4)), np.repeat(np.arange(10), 10))
    assert eval_loss_acc(model, ds, "float")[1] == pytest.approx(0.10)


def test_evaluate_rejects_unknown_mode():
    model = build_from_config("mlp-4-2", seed=7)
    ds = _toy_dataset(seed=7, d=4, k=2)
    with pytest.raises(ValueError, match="unknown evaluation mode 'int4'"):
        eval_loss_acc(model, ds, "int4")


def test_pretrain_zero_epochs_keeps_initialization():
    model = build_from_config("mlp-6-5-3", seed=8)
    snapshot = [p.data.copy() for p in model.parameters()]
    metrics = pretrain(
        model, _toy_dataset(seed=8), OptimizerConfig(kind="vanilla-sgd", lr=0.1), epochs=0
    )
    assert metrics == []
    for p, before in zip(model.parameters(), snapshot):
        assert np.array_equal(p.data, before)


def test_pretrain_deterministic_checkpoint_bytes():
    def run():
        model = build_from_config("mlp-6-5-3", seed=9)
        pretrain(
            model,
            _toy_dataset(seed=9),
            OptimizerConfig(kind="sgd-momentum", lr=0.1, momentum=0.9),
            epochs=2,
            batch_size=16,
            seed=9,
        )
        return checkpoint_to_bytes(model)

    assert run() == run()


def test_float_train_one_epoch_per_call_is_one_multi_epoch_call():
    ds, test = _toy_dataset(seed=17), _toy_dataset(seed=18)
    cfg = OptimizerConfig(kind="sgd-momentum", lr=0.05, momentum=0.9)

    def run(calls, epochs):
        state = make_train_state(build_from_config("mlp-6-5-3", seed=17), cfg, seed=17)
        for _ in range(calls):
            train(state, ds, epochs, batch_size=16, test_dataset=test)
        return state.metrics, checkpoint_to_bytes(state.model)

    per_epoch = run(3, 1)
    assert per_epoch == run(1, 3)
    rows = per_epoch[0]
    assert [(r["epoch"], r["split"]) for r in rows] == [(e, s) for e in range(3) for s in ("train", "test")]
    assert all(list(r) == ["epoch", "split", "loss", "accuracy"] for r in rows)  # no quantizer columns


def test_float_state_needs_no_quantizer(monkeypatch):
    def refuse(self):
        raise AssertionError("a float state refreshed a quantizer")

    monkeypatch.setattr(Model, "refresh_all", refuse)
    cfg = OptimizerConfig(kind="vanilla-sgd", lr=0.1)
    unquantized = Model([LayerSpec("dense", in_dim=6, out_dim=3, quantized=False)], glorot(15))
    for model in (unquantized, build_from_config("mlp-6-5-3", seed=15)):
        state = make_train_state(model, cfg, seed=15)
        assert state.threshold_opt is None
        assert len(train(state, _toy_dataset(seed=15), epochs=2, batch_size=16)) == 2


def test_train_zero_epochs_refreshes_once():
    state = _toy_state(seed=10)
    snapshot = [p.data.copy() for p in state.model.parameters()]
    metrics = train(state, _toy_dataset(seed=10), epochs=0)
    assert metrics == []
    for p, before in zip(state.model.parameters(), snapshot):
        assert np.array_equal(p.data, before)
    for layer in state.model.quantized_layers():
        assert np.isfinite(layer.qstate.scale)


def test_float_weights_that_overflow_on_the_last_batch_are_a_divergence():
    model = build_from_config("mlp-6-5-3", seed=4)
    state = make_train_state(model, OptimizerConfig(kind="vanilla-sgd", lr=1e308), seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError, match="non-finite weights") as exc:
            train(state, _toy_dataset(seed=4), epochs=1, batch_size=64)
    assert exc.value.dump == {"phase": "pretrain", "epoch": 0, "batch": 0}
    assert state.metrics == []


@pytest.mark.parametrize("w_lr, t_lr, lr", [(1e-320, 0.1, 0.1), (1.0, 1e-320, 1e-10)], ids=["inf", "zero"])
def test_a_schedule_that_scales_the_threshold_lr_off_the_positive_floats_is_rejected(w_lr, t_lr, lr):
    model = build_from_config("mlp-6-5-3", seed=0)
    w_cfg, t_cfg = OptimizerConfig(kind="vanilla-sgd", lr=w_lr), OptimizerConfig(kind="vanilla-sgd", lr=t_lr)
    with pytest.raises(ValueError, match=f"lr_schedule breakpoint 2:{lr!r} scales the threshold lr to"):
        make_train_state(model, w_cfg, t_cfg, schedule=[(2, lr)])
    make_train_state(model, w_cfg, schedule=[(2, lr)])  # a float state has no threshold lr


def test_schedule_breakpoints_apply():
    state = _toy_state(seed=11, w_lr=0.1, t_lr=0.2, schedule=[(1, 0.01)])
    train(state, _toy_dataset(seed=11), epochs=2, batch_size=32)
    assert state.weight_opt.lr == pytest.approx(0.01)
    # threshold lr scales by the same factor, preserving the configured ratio
    assert state.threshold_opt.lr == pytest.approx(0.02)


def _write_csv_split(path, ds):
    path.write_text("".join(f"{y}," + ",".join(map(repr, x)) + "\n" for x, y in zip(ds.images.tolist(), ds.labels)))


def test_metrics_csv_layout(tmp_path):
    # train() writes no file: the metrics CSV is the one `terntrain quantize` writes.
    save_checkpoint(build_from_config("mlp-6-5-3", seed=12), tmp_path / "pretrain.ckpt")
    _write_csv_split(tmp_path / "train.csv", _toy_dataset(seed=12))
    _write_csv_split(tmp_path / "test.csv", _toy_dataset(seed=13))
    (tmp_path / "run.cfg").write_text(
        f"arch = mlp-6-5-3\ntrain_csv = {tmp_path / 'train.csv'}\ntest_csv = {tmp_path / 'test.csv'}\n"
        "epochs = 2\nbatch_size = 32\nseed = 12\nweight_opt = vanilla-sgd\nweight_lr = 0.05\n"
        f"threshold_lr = 0.05\ninit_frac = 0.1\npretrain_checkpoint = {tmp_path / 'pretrain.ckpt'}\n"
        f"out_dir = {tmp_path / 'run'}\n"
    )
    assert cli.main(["quantize", "--config", str(tmp_path / "run.cfg")]) == 0
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # train + test per epoch
    assert rows[0]["split"] == "train" and rows[1]["split"] == "test"
    for col in ("epoch", "split", "loss", "accuracy"):
        assert col in rows[0]
    for layer in load_checkpoint(tmp_path / "run" / "ternary.ckpt").quantized_layers():
        for suffix in ("delta", "delta_c", "scale", "sparsity"):
            assert f"{layer.name}_{suffix}" in rows[0]


def test_threshold_weight_decay_rejected():
    model = build_from_config("mlp-6-3", seed=14)
    with pytest.raises(ValueError, match="decay"):
        make_train_state(
            model,
            OptimizerConfig(kind="vanilla-sgd", lr=0.1),
            OptimizerConfig(kind="vanilla-sgd", lr=0.1, weight_decay=0.01),
        )


def test_adam_on_thresholds_ablation_path():
    model = build_from_config("mlp-6-5-3", seed=16)
    model.init_thresholds(0.1)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.05, momentum=0.9),
        OptimizerConfig(kind="adam", lr=0.01, weight_decay=0.0),
        seed=16,
    )
    before = [l.qstate.delta for l in model.quantized_layers()]
    train(state, _toy_dataset(seed=16), epochs=1, batch_size=16)
    after = [l.qstate.delta for l in model.quantized_layers()]
    assert any(a != b for a, b in zip(before, after))


def test_train_requires_quantized_layers():
    specs = [LayerSpec("dense", in_dim=6, out_dim=3, quantized=False)]
    model = Model(specs, glorot(15))
    state = make_train_state(
        model,
        OptimizerConfig(kind="vanilla-sgd", lr=0.1),
        OptimizerConfig(kind="vanilla-sgd", lr=0.1, weight_decay=0.0),
    )
    with pytest.raises(ValueError, match="quantized"):
        train(state, _toy_dataset(seed=15), epochs=1)


def _taped_loss_acc(model, ds, mode, batch_size):
    total, correct = 0.0, 0
    for start in range(0, len(ds), batch_size):
        xb, yb = ds.images[start : start + batch_size], ds.labels[start : start + batch_size]
        logits = model.forward(xb, mode)
        assert logits.requires_grad and logits._parents  # a tape was recorded
        total += float(softmax_cross_entropy(logits, yb).data) * len(yb)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == yb))
    return total / len(ds), correct / len(ds)


@pytest.mark.parametrize("mode", ["float", "ternary"])
def test_eval_loss_acc_matches_taped_forward(mode, monkeypatch):
    specs = [
        LayerSpec("conv2d", in_dim=1, out_dim=3, kernel=4, stride=2, padding=1, quantized=True),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", in_dim=3 * 4 * 4, out_dim=4, quantized=True),
    ]
    model = Model(specs, glorot(8))
    model.init_thresholds(0.1)
    model.refresh_all()
    rng = np.random.default_rng(8)
    ds = Dataset(rng.normal(size=(70, 1, 8, 8)), rng.integers(0, 4, size=70))
    fwd_mode = WEIGHT_PHASE if mode == "ternary" else FLOAT_MODE
    taped = _taped_loss_acc(model, ds, fwd_mode, 32)
    seen = []

    def loss_of(logits, yb):
        seen.append(logits._parents)
        return softmax_cross_entropy(logits, yb)

    monkeypatch.setattr(trainer, "softmax_cross_entropy", loss_of)
    assert eval_loss_acc(model, ds, mode, batch_size=32) == taped
    assert seen == [(), (), ()]  # three batches, no graph behind any of them


def _count_layer_stats(monkeypatch) -> list:
    calls = []
    real = ternarize.layer_stats

    def counted(w):
        calls.append(np.shape(w))
        return real(w)

    monkeypatch.setattr(ternarize, "layer_stats", counted)
    return calls


def test_layer_stats_once_per_quantized_layer_per_step(monkeypatch):
    state = _toy_state(seed=21)
    ds = _toy_dataset(seed=21)
    n_layers = len(state.model.quantized_layers())
    calls = _count_layer_stats(monkeypatch)
    for start in (0, 16, 32):
        calls.clear()
        tern_train_step(state, (ds.images[start : start + 16], ds.labels[start : start + 16]))
        assert len(calls) == n_layers
    calls.clear()
    eval_loss_acc(state.model, ds, "ternary")
    assert len(calls) <= n_layers
    calls.clear()
    eval_loss_acc(state.model, ds, "ternary")  # the weights have not changed since
    assert calls == []


def test_cached_quantizer_state_matches_recomputing_every_refresh(monkeypatch):
    ds = _toy_dataset(seed=22)
    batches = [(ds.images[s : s + 16], ds.labels[s : s + 16]) for s in range(0, 64, 16)]

    def run():
        state = _toy_state(seed=22, w_kind="sgd-momentum")
        losses = [tern_train_step(state, b) for b in batches]
        model = state.model
        ev = eval_loss_acc(model, ds, "ternary")
        return losses, ev, [p.data.copy() for p in model.parameters()], [
            l.qstate.delta for l in model.quantized_layers()
        ]

    cached = run()
    real_refresh = network.refresh

    def recompute_everything(qstate, w):
        qstate.source = None  # forget the weights: stats, scale and codes are derived anew
        return real_refresh(qstate, w)

    monkeypatch.setattr(network, "refresh", recompute_everything)
    reference = run()
    assert cached[0] == reference[0]  # both losses of every step, bit for bit
    assert cached[1] == reference[1]
    assert all(np.array_equal(a, b) for a, b in zip(cached[2], reference[2]))
    assert cached[3] == reference[3]


def test_deepcopy_then_ternary_eval_matches_original():
    state = _toy_state(seed=23)
    ds = _toy_dataset(seed=23)
    train(state, ds, epochs=1, batch_size=16)
    model = state.model
    expected = eval_loss_acc(model, ds, "ternary")
    clone = copy.deepcopy(model)
    for layer in clone.quantized_layers():
        # deepcopy makes writable weights, so the copied state is stale
        # until eval_loss_acc refreshes it.
        assert not ternarize.is_fresh(layer.qstate, layer.w.data)
    assert eval_loss_acc(clone, ds, "ternary") == expected
    for layer in clone.quantized_layers():
        assert ternarize.is_fresh(layer.qstate, layer.w.data)
