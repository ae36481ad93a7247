import warnings
from dataclasses import replace

import numpy as np
import pytest

from terntrain import autograd as ag
from terntrain.modelio import checkpoint_from_bytes, checkpoint_to_bytes, export_packed, load_packed_and_infer
from terntrain.network import FLOAT_MODE, LayerSpec, Model, arch_specs, build_from_config, glorot, mlp_specs
from terntrain.optim import OptimizerConfig
from terntrain.trainer import make_train_state, tern_train_step
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, QuantizerState, refresh, tern


def test_mlp_parameter_count():
    model = build_from_config("mlp-784-300-100-10")
    expected = 784 * 300 + 300 + 300 * 100 + 100 + 100 * 10 + 10
    assert expected == 266_610
    assert model.num_params() == expected


def test_build_rejects_empty_and_malformed():
    with pytest.raises(ValueError):
        build_from_config("")
    with pytest.raises(ValueError):
        build_from_config([])
    with pytest.raises(ValueError):
        build_from_config("mlp-784-abc-10")
    with pytest.raises(ValueError):
        build_from_config("mlp-784")
    with pytest.raises(ValueError):
        build_from_config("resnet-18")
    with pytest.raises(ValueError):
        arch_specs("")


def test_incompatible_dense_chain_rejected():
    with pytest.raises(ValueError, match="incompatible"):
        Model(
            [
                LayerSpec("dense", in_dim=4, out_dim=8),
                LayerSpec("relu"),
                LayerSpec("dense", in_dim=9, out_dim=2),
            ],
            glorot(0),
        )


def test_from_params_takes_each_layers_arrays_in_order():
    specs = arch_specs("lenet-small")
    seen, given = [], []

    def params(spec, name, shape):
        seen.append((spec.kind, name, shape))
        given.append((np.full(shape, len(given) + 1.0), np.arange(spec.out_dim, dtype=np.float64),
                      QuantizerState(0.0)))
        return given[-1]

    model = Model(specs, params, "lenet-small")
    assert seen == [("conv2d", "conv0", (8, 1, 4, 4)), ("conv2d", "conv1", (16, 8, 4, 4)),
                    ("dense", "dense2", (784, 10))]
    assert model.arch == "lenet-small" and model.specs == specs and not model.packed
    for layer, (w, b, st) in zip(model.param_layers(), given):
        assert layer.w.data is w and layer.b.data is b and layer.qstate is st
    # seed keeps meaning a Glorot draw: the same seed, the same weights.
    a, b = build_from_config("lenet-small", seed=4), build_from_config("lenet-small", seed=4)
    for la, lb in zip(a.param_layers(), b.param_layers()):
        assert np.array_equal(la.w.data, lb.w.data) and la.w.data.std() > 0


@pytest.mark.parametrize(
    "broken",
    ["weight shape", "bias length", "state missing", "state on an unquantized layer"],
)
def test_constructor_holds_every_params_source_to_the_spec(broken):
    specs = [LayerSpec("conv2d", in_dim=1, out_dim=2, kernel=3, quantized=True), LayerSpec("flatten"),
             LayerSpec("dense", in_dim=8, out_dim=3, quantized=broken != "state on an unquantized layer")]
    fresh = glorot(0)

    def params(spec, name, shape):
        w, b, st = fresh(spec, name, shape)
        if name != "dense1":
            return w, b, st
        if broken == "weight shape":
            return w.T, b, st
        if broken == "bias length":
            return w, b[:-1], st
        return w, b, None if broken == "state missing" else QuantizerState(0.0)

    with pytest.raises(ValueError, match=r"^layer dense1: params give \(weight shape, bias shape, quantized\)"):
        Model(specs, params)


def test_incompatible_chain_is_rejected_before_its_layer_asks_for_params():
    asked = []

    def params(spec, name, shape):
        asked.append(name)
        return np.zeros(shape), np.zeros(spec.out_dim), None

    chain = [LayerSpec("dense", in_dim=4, out_dim=8), LayerSpec("relu"), LayerSpec("dense", in_dim=9, out_dim=2)]
    with pytest.raises(ValueError, match="dense in_dim 9 incompatible with previous width 8"):
        Model(chain, params)
    assert asked == ["dense0"]
    chain = [LayerSpec("conv2d", in_dim=1, out_dim=4, kernel=3), LayerSpec("conv2d", in_dim=2, out_dim=4, kernel=3)]
    with pytest.raises(ValueError, match="conv in_dim 2 incompatible with previous channels 4"):
        Model(chain, params)
    assert asked == ["dense0", "conv0"]


CONV_1_2 = LayerSpec("conv2d", in_dim=1, out_dim=2, kernel=3)


@pytest.mark.parametrize(
    "chain, match",
    [
        ([replace(CONV_1_2, stride=0)], "int stride >= 1"),
        ([replace(CONV_1_2, stride=1.5)], "int stride >= 1"),
        ([replace(CONV_1_2, padding=-1)], "int padding >= 0"),
        ([CONV_1_2, LayerSpec("relu"), LayerSpec("dense", in_dim=2, out_dim=3)], "no flatten between them"),
        ([LayerSpec("dense", in_dim=4, out_dim=1), CONV_1_2], "2-D flattened or dense output"),
        ([LayerSpec("flatten"), CONV_1_2], "2-D flattened or dense output"),
    ],
    ids=["stride-zero", "stride-float", "padding-negative", "dense-reads-conv", "conv-reads-dense",
         "conv-reads-flatten"],
)
def test_chain_that_no_input_can_run_is_rejected_at_construction(chain, match):
    with pytest.raises(ValueError, match=match):
        Model(chain, glorot(0))


def test_glorot_draws_each_layer_from_one_stream_in_order():
    model = build_from_config("lenet-small", seed=5)
    rng = np.random.default_rng(5)
    for layer, fans in zip(model.param_layers(), [(16, 128), (128, 256), (784, 10)]):
        bound = np.sqrt(6.0 / sum(fans))
        want = rng.uniform(-bound, bound, size=layer.w.shape).astype(np.float32).astype(np.float64)
        assert np.array_equal(layer.w.data, want)
        assert np.array_equal(layer.b.data, np.zeros(layer.spec.out_dim)) and layer.qstate.delta == 0.0


def test_conv_non_integral_output_errors_at_forward():
    specs = [LayerSpec("conv2d", in_dim=1, out_dim=2, kernel=5, stride=2, padding=2)]
    model = Model(specs, glorot(0))
    with pytest.raises(ValueError, match="non-integral"):
        model.forward(np.zeros((1, 1, 28, 28)))


def test_all_plus_one_codes_sum():
    # dense 2->1 with codes forced to +1, scale 1, bias 0: output is the sum.
    model = Model([LayerSpec("dense", in_dim=2, out_dim=1, quantized=True)], glorot(3))
    layer = model.param_layers()[0]
    layer.w.data = np.array([[0.5], [-0.5]])
    refresh(layer.qstate, layer.w.data)
    layer.qstate.scale = 1.0  # the state stays fresh; force the unit scale
    out = model.forward(np.array([[1.0, -1.0]]), WEIGHT_PHASE)
    # codes are [+1, -1] and x is [1, -1], so the accumulation is 2.
    assert out.data[0, 0] == pytest.approx(2.0)


def test_commutation_scale_after_matches_scale_before():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(5, 12))
        w = rng.normal(size=(12, 7))
        mu, sigma = float(w.mean()), float(w.std())
        codes = tern(w, mu, 0.4 * sigma)
        s = rng.uniform(0.05, 3.0)
        a = s * (x @ codes)
        b = x @ (s * codes)
        worst = max(worst, np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-12)))
    assert worst < 1e-6


def test_float_forward_reproduces_saved_logits_bit_identically():
    model = build_from_config("mlp-16-8-4", seed=7)
    x = np.random.default_rng(8).normal(size=(5, 16))
    saved_logits = model.forward(x, "float").data.copy()
    restored = checkpoint_from_bytes(checkpoint_to_bytes(model))
    again = restored.forward(x, "float").data
    assert np.array_equal(saved_logits, again)


def test_bias_never_altered_by_ternarization():
    model = build_from_config("mlp-12-6-3", seed=9)
    x = np.random.default_rng(10).normal(size=(4, 12))
    model.init_thresholds(0.1)
    model.refresh_all()
    biases_before = [layer.b.data.copy() for layer in model.param_layers()]
    model.forward(x, WEIGHT_PHASE)
    model.forward(x, THRESHOLD_PHASE)
    for layer, before in zip(model.param_layers(), biases_before):
        assert np.array_equal(layer.b.data, before)


def test_quantized_flag_does_not_change_parameter_count():
    dims = "mlp-20-10-5"
    quantized = build_from_config(dims, seed=1)
    plain_specs = [replace(s, quantized=False) for s in arch_specs(dims)]
    plain = Model(plain_specs, glorot(1))
    assert quantized.num_params() == plain.num_params()


def test_dual_path_consistency_at_zero_threshold():
    model = build_from_config("mlp-10-6-4", seed=11)
    x = np.random.default_rng(12).normal(size=(3, 10))
    for layer in model.quantized_layers():
        layer.qstate.delta = 0.0
    model.refresh_all()
    got = model.forward(x, WEIGHT_PHASE).data

    # Direct evaluation of the scale * sign composition, scale after matmul.
    t = x
    for layer in model.param_layers():
        st = layer.qstate
        signs = np.sign(layer.w.data - st.mu)
        t = st.scale * (t @ signs) + layer.b.data
        if layer is not model.param_layers()[-1]:
            t = np.maximum(t, 0.0)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(t)), 1e-9)
    assert np.max(np.abs(got - t) / denom) < 1e-6


def test_threshold_phase_records_one_leaf_per_quantized_layer():
    model = build_from_config("mlp-8-6-4", seed=13)
    model.init_thresholds(0.1)
    model.refresh_all()
    model.forward(np.zeros((2, 8)), THRESHOLD_PHASE)
    names = {layer.name for layer in model.quantized_layers()}
    assert set(model.delta_leaves) == names


def test_lenet_small_builds_and_forwards():
    model = build_from_config("lenet-small", seed=14)
    x = np.random.default_rng(15).normal(size=(2, 1, 28, 28))
    logits = model.forward(x, "float")
    assert logits.shape == (2, 10)
    model.init_thresholds(0.1)
    model.refresh_all()
    tern_logits = model.forward(x, WEIGHT_PHASE)
    assert tern_logits.shape == (2, 10)
    assert len(model.quantized_layers()) == 3


def test_unknown_forward_mode_rejected():
    model = build_from_config("mlp-4-2", seed=0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 4)), "int8")


def test_init_thresholds_uses_max_abs_weight():
    model = build_from_config("mlp-6-3", seed=16)
    model.init_thresholds(0.1)
    layer = model.param_layers()[0]
    assert layer.qstate.delta == pytest.approx(0.1 * np.max(np.abs(layer.w.data)))
    for frac in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            model.init_thresholds(frac)


def test_weights_are_float32_representable_at_init():
    model = build_from_config("mlp-30-10", seed=17)
    for p in model.parameters():
        assert np.array_equal(p.data, p.data.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e39], ids=["inf", "nan", "past-float32"])
def test_snap_params_f32_rounds_as_a_double_cast_and_reports_non_finite_values(bad):
    model = build_from_config("mlp-30-10", seed=17)
    rng = np.random.default_rng(17)
    for p in model.parameters():
        p.data = p.data + rng.normal(scale=1e-3, size=p.shape)  # off the float32 grid, as after an update
    rounded = [p.data.astype(np.float32).astype(np.float64) for p in model.parameters()]
    assert model.snap_params_f32() is True
    for p, want in zip(model.parameters(), rounded):
        assert p.data.tobytes() == want.tobytes()
    model.param_layers()[0].b.data[2] = bad  # 1e39 is finite in float64, inf in float32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rounded = [p.data.astype(np.float32).astype(np.float64) for p in model.parameters()]
        assert model.snap_params_f32() is False
    for p, want in zip(model.parameters(), rounded):
        assert p.data.tobytes() == want.tobytes()


def _nodes_built(monkeypatch, fn) -> int:
    """The tape nodes fn builds, counted by wrapping autograd._node."""
    real, count = ag._node, 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(ag, "_node", counted)
        fn()
    return count


def test_a_relu_after_a_parametric_layer_runs_in_its_add_bias_node(monkeypatch):
    """relu, dense, relu, relu: the first ReLU follows no layer and the last
    follows a ReLU, so each stays a relu node; the middle one runs in the
    dense layer's add_bias node. The forward builds 4 nodes, not 5."""
    specs = [LayerSpec("relu"), LayerSpec("dense", in_dim=4, out_dim=3), LayerSpec("relu"), LayerSpec("relu")]
    model = Model(specs, glorot(0))
    layer = model.param_layers()[0]
    assert layer.relu
    layer.b.data = np.random.default_rng(2).normal(size=3)
    x = np.random.default_rng(1).normal(size=(5, 4))
    out = model.forward(x, FLOAT_MODE)
    assert np.array_equal(out.data, np.maximum(np.maximum(x, 0.0) @ layer.w.data + layer.b.data, 0.0))
    assert _nodes_built(monkeypatch, lambda: model.forward(x, FLOAT_MODE)) == 4


@pytest.mark.parametrize("arch", ["mlp-784-300-100-10", "lenet-small"])
def test_one_epilogue_node_per_layer(monkeypatch, tmp_path, arch):
    """Each parametric layer records its linear op, its codes and one
    add_bias node for scale, bias and ReLU; the threshold phase adds a
    scale node. A ternary step (both phases) builds 25 nodes on either
    arch, a batch-1 request to a packed file 10."""
    model = build_from_config(arch, seed=0)
    model.init_thresholds(0.1)
    sgd = OptimizerConfig(kind="vanilla-sgd", lr=0.01)
    state = make_train_state(model, sgd, OptimizerConfig(kind="vanilla-sgd", lr=1e-4))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(4, 1, 28, 28)), rng.integers(0, 10, size=4)
    assert _nodes_built(monkeypatch, lambda: tern_train_step(state, (x, y))) == 25
    model.refresh_all()
    export_packed(model, tmp_path / "m.tern")
    load_packed_and_infer(tmp_path / "m.tern", x[:1])  # decodes the file; a repeat request reads it only
    assert _nodes_built(monkeypatch, lambda: load_packed_and_infer(tmp_path / "m.tern", x[:1])) == 10
