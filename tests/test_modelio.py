import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain import kernels, modelio, network
from terntrain.autograd import no_grad
from terntrain.data import Dataset, make_synth_mnist
from terntrain.modelio import (
    BadMagicError,
    CrcMismatchError,
    FormatError,
    InvalidCodeError,
    ModelIOError,
    TruncatedFileError,
    UnsupportedVersionError,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    export_packed,
    load_checkpoint,
    load_packed,
    load_packed_and_infer,
    pack_codes,
    packed_from_bytes,
    packed_to_bytes,
    save_checkpoint,
    unpack_codes,
)
from terntrain.network import FLOAT_MODE, LayerSpec, Model, arch_specs, build_from_config, glorot
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, DegenerateLayerError, QuantizerState, is_fresh
from terntrain.trainer import eval_loss_acc, make_train_state, pretrain, train


def _trained_like_model(arch="mlp-16-8-4", seed=0, delta=0.2):
    model = build_from_config(arch, seed=seed)
    for layer in model.quantized_layers():
        layer.qstate.delta = delta
    model.refresh_all()
    rng = np.random.default_rng(seed + 1)
    for layer in model.param_layers():
        layer.b.data = (
            rng.normal(scale=0.1, size=layer.b.data.shape).astype(np.float32).astype(np.float64)
        )
    model.refresh_all()
    return model


# --- packing ----------------------------------------------------------------


def test_pack_codes_bit_layout_example():
    assert pack_codes(np.array([1, 0, -1, 1])) == bytes([0x61])


def test_pack_single_zero_pads():
    data = pack_codes(np.array([0]))
    assert data == b"\x00"
    assert np.array_equal(unpack_codes(data, 1), np.array([0], dtype=np.int8))


@given(arr=st.lists(st.sampled_from([-1, 0, 1]), min_size=0, max_size=600))
@settings(max_examples=200, deadline=None)
def test_pack_unpack_roundtrip(arr):
    codes = np.array(arr, dtype=np.int8)
    assert np.array_equal(unpack_codes(pack_codes(codes), len(codes)), codes)


def test_pack_unpack_large_roundtrip():
    rng = np.random.default_rng(1)
    codes = rng.integers(-1, 2, size=100_000).astype(np.int8)
    assert np.array_equal(unpack_codes(pack_codes(codes), codes.size), codes)
    grid = codes.reshape(250, 400)
    assert np.array_equal(unpack_codes(pack_codes(grid), grid.size), grid.reshape(-1))


def test_pack_rejects_bad_code():
    with pytest.raises(InvalidCodeError):
        pack_codes(np.array([0, 2]))
    with pytest.raises(InvalidCodeError):
        pack_codes(np.array([0.5]))


def test_unpack_rejects_reserved_pair():
    with pytest.raises(InvalidCodeError):
        unpack_codes(bytes([0b00000011]), 4)


def test_unpack_rejects_wrong_length():
    with pytest.raises(FormatError):
        unpack_codes(b"\x00\x00", 3)


def test_unpack_rejects_dirty_padding():
    # Two codes packed in one byte; a non-zero pair in the padding region.
    with pytest.raises(FormatError):
        unpack_codes(bytes([0b01_00_00_01]), 2)


def _unpack_by_bit_loop(data: bytes, n: int) -> np.ndarray:
    """Reference decoder: one bit pair at a time, first code in bits 1:0."""
    pairs = [(byte >> (2 * j)) & 3 for byte in data for j in range(4)]
    if 3 in pairs:
        raise InvalidCodeError("reserved pair")
    if any(pairs[n:]):
        raise FormatError("dirty padding")
    return np.array([{0: 0, 1: 1, 2: -1}[p] for p in pairs[:n]], dtype=np.int8)


@pytest.mark.parametrize("rem", [0, 1, 2, 3])
def test_unpack_matches_bit_loop_on_every_byte(rem):
    n = 4 + (rem or 4)  # a full first byte, then a last byte holding n % 4 == rem codes
    for value in range(256):
        data = bytes([0b10_01_10_01, value])
        try:
            expected = _unpack_by_bit_loop(data, n)
        except ModelIOError as e:
            with pytest.raises(type(e)):
                unpack_codes(data, n)
            continue
        got = unpack_codes(data, n)
        assert got.dtype == np.int8 and got.shape == (n,)
        assert np.array_equal(got, expected)


# --- checkpoint format --------------------------------------------------------


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    model = _trained_like_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, metadata={"note": "fixture"})
    restored = load_checkpoint(path)
    for a, b in zip(model.param_layers(), restored.param_layers()):
        assert np.array_equal(a.w.data, b.w.data)
        assert np.array_equal(a.b.data, b.b.data)
        assert a.qstate.delta == b.qstate.delta
    assert restored.meta["note"] == "fixture"


def test_refreshed_checkpoint_loads_fresh_with_the_saved_state():
    model = _trained_like_model(seed=3)
    x = np.random.default_rng(4).normal(size=(3, 16))
    expected = model.forward(x, WEIGHT_PHASE).data
    restored = checkpoint_from_bytes(checkpoint_to_bytes(model))
    fields = ("delta", "mu", "sigma", "delta_c", "scale")
    for a, b in zip(model.quantized_layers(), restored.quantized_layers()):
        assert [getattr(a.qstate, f) for f in fields] == [getattr(b.qstate, f) for f in fields]
        assert is_fresh(b.qstate, b.w.data)
    assert np.array_equal(restored.forward(x, WEIGHT_PHASE).data, expected)


def test_checkpoint_saved_before_refresh_loads_stale(tmp_path):
    # Saved between a weight update and a refresh: mu/sigma describe older weights.
    model = _trained_like_model(seed=3)
    layer = model.quantized_layers()[0]
    saved = (layer.qstate.mu, layer.qstate.sigma)
    layer.w.data = layer.w.data * 2.0
    restored = checkpoint_from_bytes(checkpoint_to_bytes(model))
    r = restored.quantized_layers()[0]
    assert (r.qstate.mu, r.qstate.sigma) == saved
    assert not is_fresh(r.qstate, r.w.data)
    x = np.random.default_rng(4).normal(size=(3, 16))
    with pytest.raises(AssertionError, match="stale"):
        restored.forward(x, WEIGHT_PHASE)
    with pytest.raises(ValueError, match="stale"):
        export_packed(restored, tmp_path / "stale.tern")
    model.refresh_all()
    restored.refresh_all()
    assert np.array_equal(restored.forward(x, WEIGHT_PHASE).data, model.forward(x, WEIGHT_PHASE).data)


def test_checkpoint_record_on_constant_weights_loads_stale():
    model = build_from_config("mlp-6-4", seed=2)
    layer = model.quantized_layers()[0]
    layer.w.data = np.full(layer.w.shape, 0.5)
    layer.qstate.mu, layer.qstate.sigma = 0.5, 0.1  # a record no refresh could have written
    restored = checkpoint_from_bytes(checkpoint_to_bytes(model))
    r = restored.quantized_layers()[0]
    assert not is_fresh(r.qstate, r.w.data)
    with pytest.raises(DegenerateLayerError):
        restored.refresh_all()


def test_checkpoint_roundtrip_custom_specs():
    specs = [
        LayerSpec("dense", in_dim=5, out_dim=4, quantized=True),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=4, out_dim=2, quantized=False),
    ]
    model = Model(specs, glorot(3))
    model.quantized_layers()[0].qstate.delta = 0.15
    model.refresh_all()
    blob = checkpoint_to_bytes(model)
    restored = checkpoint_from_bytes(blob)
    assert restored.specs == specs
    assert restored.param_layers()[1].qstate is None
    assert restored.quantized_layers()[0].qstate.delta == 0.15


def test_checkpoint_before_any_refresh_roundtrips():
    # Quantizer caches are NaN until the first refresh; they must survive
    # serialization without inventing values.
    model = build_from_config("mlp-6-4", seed=2)
    blob = checkpoint_to_bytes(model)
    restored = checkpoint_from_bytes(blob)
    st = restored.quantized_layers()[0].qstate
    assert st.delta == 0.0
    assert np.isnan(st.mu) and np.isnan(st.sigma)


def test_truncated_file_rejected():
    blob = checkpoint_to_bytes(_trained_like_model())
    with pytest.raises(ModelIOError):
        checkpoint_from_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFileError):
        checkpoint_from_bytes(blob[:6])


def test_bit_flip_rejected():
    blob = bytearray(checkpoint_to_bytes(_trained_like_model()))
    blob[100] ^= 0x10
    with pytest.raises(CrcMismatchError):
        checkpoint_from_bytes(bytes(blob))


def test_flipped_magic_rejected():
    blob = bytearray(checkpoint_to_bytes(_trained_like_model()))
    blob[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        checkpoint_from_bytes(bytes(blob))


def test_unsupported_version_rejected():
    blob = bytearray(checkpoint_to_bytes(_trained_like_model()))
    struct.pack_into("<H", blob, 4, 999)
    # Re-seal the CRC so only the version check can fire.
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(UnsupportedVersionError):
        checkpoint_from_bytes(bytes(blob))


def test_trailing_garbage_rejected():
    blob = bytearray(checkpoint_to_bytes(_trained_like_model()))
    body = blob[:-4] + b"\x00\x00"
    sealed = body + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with pytest.raises(FormatError):
        checkpoint_from_bytes(bytes(sealed))


# --- packed model -------------------------------------------------------------


def test_export_report_overhead_dominated_layer(tmp_path):
    # 4 weights pack into 1 byte; with the 4-byte scale the ratio is 16/5.
    specs = [LayerSpec("dense", in_dim=2, out_dim=2, quantized=True)]
    model = Model(specs, glorot(4))
    model.quantized_layers()[0].qstate.delta = 0.05
    model.refresh_all()
    report = export_packed(model, tmp_path / "tiny.tern")
    entry = report["layers"][0]
    assert entry["bytes_packed"] == 1
    assert entry["compression_ratio"] == pytest.approx(16 / 5)


def test_export_report_counts_dead_outputs(tmp_path):
    # Weights of mean 0: with the threshold at 0.5, dense columns 1 and 3
    # and conv filter 1 hold only zero codes.
    dense_w = np.array([[1.0, 0, 2, 0, 0], [-1, 0, -2, 0, 0], [1, 0, 0, 0, 3], [-1, 0, 0, 0, -3]])
    conv_w = np.array([[[[1.0, -1], [1, -1]]], [[[0, 0], [0, 0]]], [[[0, 2], [-2, 0]]]])
    for specs, w, dead in (
        ([LayerSpec("dense", in_dim=4, out_dim=5, quantized=True)], dense_w, 2),
        ([LayerSpec("conv2d", in_dim=1, out_dim=3, kernel=2, quantized=True)], conv_w, 1),
    ):
        model = Model(specs, lambda spec, name, shape: (w.copy(), np.zeros(spec.out_dim), QuantizerState(0.0)))
        model.quantized_layers()[0].qstate.delta = 0.5
        model.refresh_all()
        before = packed_to_bytes(model)
        entry = export_packed(model, tmp_path / "hand.tern")["layers"][0]
        assert entry["dead_outputs"] == dead
        assert (tmp_path / "hand.tern").read_bytes() == before


def test_export_report_large_layer_near_16x(tmp_path):
    specs = [LayerSpec("dense", in_dim=1000, out_dim=1000, quantized=True)]
    model = Model(specs, glorot(5))
    model.quantized_layers()[0].qstate.delta = 0.1
    model.refresh_all()
    report = export_packed(model, tmp_path / "big.tern")
    entry = report["layers"][0]
    assert entry["params"] == 1_000_000
    assert entry["compression_ratio"] == pytest.approx(4_000_000 / 250_004)
    assert entry["compression_ratio"] > 15.5


def test_export_flags_non_quantized_layers(tmp_path):
    specs = [
        LayerSpec("dense", in_dim=6, out_dim=4, quantized=True),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=4, out_dim=2, quantized=False),
    ]
    model = Model(specs, glorot(6))
    model.quantized_layers()[0].qstate.delta = 0.1
    model.refresh_all()
    report = export_packed(model, tmp_path / "mixed.tern")
    flags = {e["name"]: e["quantized"] for e in report["layers"]}
    assert flags == {"dense0": True, "dense1": False}
    assert report["totals"]["quantized_params"] == 24
    # the excluded layer contributes nothing to the ratio
    assert report["totals"]["bytes_packed_with_scales"] == (24 + 3) // 4 + 4


def test_export_rejects_stale_state(tmp_path):
    model = _trained_like_model()
    model.param_layers()[0].w.data = model.param_layers()[0].w.data * 2.0
    with pytest.raises(ValueError, match="stale"):
        export_packed(model, tmp_path / "stale.tern")


def test_rebinding_equal_weights_trips_forward_and_export(tmp_path):
    # A copy has the same mu and sigma, so only the identity check sees it.
    model = _trained_like_model()
    layer = model.param_layers()[0]
    with pytest.raises(ValueError, match="read-only"):
        layer.w.data[0, 0] = 0.0
    layer.w.data = layer.w.data.copy()
    with pytest.raises(AssertionError, match="stale"):
        model.forward(np.zeros((1, 16)), WEIGHT_PHASE)
    with pytest.raises(ValueError, match="stale"):
        export_packed(model, tmp_path / "stale.tern")
    model.refresh_all()
    export_packed(model, tmp_path / "fresh.tern")


def test_packed_never_contains_reserved_pair(tmp_path):
    model = _trained_like_model(seed=7)
    blob = packed_to_bytes(model)
    # Parse back: unpack_codes validates every pair, including padding.
    loaded = packed_from_bytes(blob)
    assert all(l.qstate.codes is not None for l in loaded.quantized_layers())


def test_load_packed_and_infer_matches_in_memory(tmp_path):
    model = _trained_like_model(seed=8)
    path = tmp_path / "m.tern"
    export_packed(model, path)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 16))
    expected = model.forward(x, WEIGHT_PHASE).data
    got = load_packed_and_infer(path, x)
    denom = np.maximum(np.maximum(np.abs(expected), np.abs(got)), 1e-9)
    assert np.max(np.abs(expected - got) / denom) < 1e-6


def test_load_packed_and_infer_conv_arch(tmp_path):
    model = build_from_config("lenet-small", seed=10)
    model.init_thresholds(0.1)
    model.refresh_all()
    path = tmp_path / "lenet.tern"
    export_packed(model, path)
    x = np.random.default_rng(11).normal(size=(2, 1, 28, 28))
    expected = model.forward(x, WEIGHT_PHASE).data
    got = load_packed_and_infer(path, x)
    assert np.allclose(expected, got, rtol=1e-6, atol=1e-9)


def test_all_zero_codes_gives_bias_only_logits(tmp_path):
    model = build_from_config("mlp-8-4", seed=12)
    layer = model.param_layers()[0]
    layer.b.data = np.array([1.0, -2.0, 3.0, 0.5])
    layer.qstate.delta = 100.0  # cap at 3 sigma, beyond every |w - mu| for uniform init
    model.refresh_all()
    path = tmp_path / "zeros.tern"
    report = export_packed(model, path)
    assert report["layers"][0]["sparsity"] == 1.0
    out = load_packed_and_infer(path, np.random.default_rng(13).normal(size=(3, 8)))
    assert np.allclose(out, np.tile(layer.b.data, (3, 1)))


def test_packed_bit_flip_rejected_before_inference(tmp_path):
    model = _trained_like_model(seed=14)
    path = tmp_path / "m.tern"
    export_packed(model, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01  # somewhere in the scale/codes region
    path.write_bytes(bytes(blob))
    with pytest.raises(CrcMismatchError):
        load_packed_and_infer(path, np.zeros((1, 16)))


def test_wrong_magic_across_formats(tmp_path):
    model = _trained_like_model(seed=15)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(BadMagicError):
        load_packed_and_infer(path, np.zeros((1, 16)))


# --- one loader for both formats ----------------------------------------------


def _hand_file(magic: bytes, arch: str, meta: str, records: list[bytes]) -> bytes:
    """A model file assembled with struct alone: the header, the layer
    records, then the CRC-32 of all of it."""
    a, m = arch.encode("utf-8"), meta.encode("utf-8")
    body = magic + struct.pack(f"<HH{len(a)}sI{len(m)}sH", 1, len(a), a, len(m), m, len(records))
    body += b"".join(records)
    return body + struct.pack("<I", zlib.crc32(body))


def _record_head(name: str, shape: tuple) -> bytes:
    raw = name.encode("utf-8", "surrogateescape")
    return struct.pack(f"<H{len(raw)}sB{len(shape)}I", len(raw), raw, len(shape), *shape)


def _f32_payload(values) -> bytes:
    return struct.pack(f"<{len(values)}f", *values)


def _tern_mlp_8_4(arch="mlp-8-4", meta="{}", name="dense0", shape=(8, 4), bias_len=4, quantized=1, records=1,
                  codes=None, scale=0.5, weights=None, bias=None, layers=None):
    """A TERN file written field by field: `records` copies of one dense
    layer record, or one record per (name, shape) in `layers`, each holding
    the packed `codes` (all zero by default) and `scale`, or, unquantized,
    `weights` (all zero by default), then `bias` (0, 1, ... by default)."""
    bias = range(bias_len) if bias is None else bias

    def record(name, shape):
        n = math.prod(shape)
        if quantized:
            body = struct.pack("<f", scale) + (bytes((n + 3) // 4) if codes is None else codes)
        else:
            body = _f32_payload([0.0] * n if weights is None else weights)
        head = _record_head(name, shape) + struct.pack("<B", quantized)
        return head + body + struct.pack("<I", len(bias)) + _f32_payload(bias)

    return _hand_file(b"TERN", arch, meta, [record(*layer) for layer in layers or [(name, shape)] * records])


TNCK_QUANT = (0.25, -0.0625, 1.15)  # delta, mu, sigma of the hand-built record


def _tnck_weights(n):
    return (np.arange(n, dtype=np.float64) - n // 2) / 8  # exact in float32


def _tnck_mlp_8_4(arch="mlp-8-4", meta="{}", name="dense0", shape=(8, 4), bias_len=4, quantized=1, records=1,
                  quant=TNCK_QUANT, weights=None, bias=None, layers=None):
    """A TNCK file written field by field: `records` copies of one dense
    layer record, or one record per (name, shape) in `layers`, each holding
    `weights` (from _tnck_weights by default), `bias` (0, 1, ... by
    default) and the quantizer `quant` (delta, mu, sigma)."""
    bias = range(bias_len) if bias is None else bias

    def record(name, shape):
        w = _tnck_weights(math.prod(shape)) if weights is None else weights
        body = _record_head(name, shape) + _f32_payload(w) + struct.pack("<I", len(bias)) + _f32_payload(bias)
        return body + struct.pack("<B", quantized) + (struct.pack("<3d", *quant) if quantized else b"")

    return _hand_file(b"TNCK", arch, meta, [record(*layer) for layer in layers or [(name, shape)] * records])


def _hand_set_mlp_8_4():
    def params(spec, name, shape):
        return _tnck_weights(32).reshape(shape), np.arange(4.0), QuantizerState(0.0)

    model = Model(arch_specs("mlp-8-4"), params, "mlp-8-4")
    st = model.quantized_layers()[0].qstate
    st.delta, st.mu, st.sigma = TNCK_QUANT
    return model


def test_tnck_layout_is_pinned():
    assert checkpoint_to_bytes(_hand_set_mlp_8_4()) == _tnck_mlp_8_4()
    loaded = checkpoint_from_bytes(_tnck_mlp_8_4())
    layer = loaded.quantized_layers()[0]
    assert np.array_equal(layer.w.data, _tnck_weights(32).reshape(8, 4))
    assert np.array_equal(layer.b.data, np.arange(4.0))
    assert (layer.qstate.delta, layer.qstate.mu, layer.qstate.sigma) == TNCK_QUANT


# mlp-8-4 codes holding +1, -1 and 0, with column 3 all zero, and their
# TERN payload: one byte per row of four codes, the first code in bits 1:0,
# 01 = +1, 10 = -1.
TERN_CODES = np.array(
    [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0],
     [1, 0, -1, 0], [-1, 0, 1, 0], [0, 1, 0, 0], [0, -1, 0, 0]],
    dtype=np.float64,
)
TERN_PACKED = bytes([0b00_00_10_01, 0b00_00_01_10, 0b00_01_00_00, 0b00_10_00_00,
                     0b00_10_00_01, 0b00_01_00_10, 0b00_00_01_00, 0b00_00_10_00])
TERN_SCALE = 0.75  # exact in float32


def test_tern_layout_is_pinned():
    # Weights equal to the codes have mean 0 and sigma sqrt(12/32), so a
    # threshold of 0.5 ternarizes them back into the codes.
    def params(spec, name, shape):
        return TERN_CODES.copy(), np.arange(4.0), QuantizerState(0.0)

    model = Model(arch_specs("mlp-8-4"), params, "mlp-8-4")
    st = model.quantized_layers()[0].qstate
    st.delta = 0.5
    model.refresh_all()
    assert np.array_equal(st.codes, TERN_CODES)
    st.scale = TERN_SCALE
    assert packed_to_bytes(model) == _tern_mlp_8_4(codes=TERN_PACKED, scale=TERN_SCALE)
    loaded = packed_from_bytes(_tern_mlp_8_4(codes=TERN_PACKED, scale=TERN_SCALE))
    layer = loaded.quantized_layers()[0]
    assert np.array_equal(layer.w.data, TERN_CODES) and layer.qstate.scale == TERN_SCALE
    assert np.array_equal(layer.qstate.live_columns[0], [0, 1, 2])


# mlp-8-4's one dense layer, unquantized, as a custom arch's specs.
UNQUANTIZED_8_4 = '{"specs": [{"kind": "dense", "in_dim": 8, "out_dim": 4, "quantized": false}]}'


def _custom(*specs):
    """Helper fields for a custom arch of the spec dicts specs, with one
    record per parametric spec, named and shaped as the spec needs."""
    layers = []
    for d in specs:
        if d["kind"] == "conv2d":
            layers.append((f"conv{len(layers)}", (d["out_dim"], d["in_dim"], d["kernel"], d["kernel"])))
        elif d["kind"] == "dense":
            layers.append((f"dense{len(layers)}", (d["in_dim"], d["out_dim"])))
    return {"arch": "custom", "meta": json.dumps({"specs": specs}), "layers": layers}


CONV_2_4 = {"kind": "conv2d", "in_dim": 2, "out_dim": 4, "kernel": 2, "quantized": True}
DENSE_8_4 = {"kind": "dense", "in_dim": 8, "out_dim": 4, "quantized": True}
# Custom chains whose records all match their specs, but that no input can
# run: each is rejected at load, not at the first forward.
NO_INPUT_RUNS = {
    "conv-stride-zero": _custom({**CONV_2_4, "stride": 0}),
    "conv-stride-float": _custom({**CONV_2_4, "stride": 1.5}),
    "conv-padding-negative": _custom({**CONV_2_4, "padding": -1}),
    "dense-reads-conv": _custom(CONV_2_4, DENSE_8_4),
    "conv-reads-dense": _custom(DENSE_8_4, {**CONV_2_4, "in_dim": 4}),
    "conv-reads-flatten": _custom({"kind": "flatten"}, CONV_2_4),
}


def test_hand_built_tern_file_loads():
    model = packed_from_bytes(_tern_mlp_8_4())
    with no_grad():
        out = model.forward(np.ones((2, 8)), WEIGHT_PHASE).data
    assert np.array_equal(out, np.tile(np.arange(4.0), (2, 1)))


@pytest.mark.parametrize(
    "fields",
    [
        {"bias_len": 1},  # would broadcast one bias into every logit
        {"name": "conv7"},
        {"shape": (4, 8)},  # transposed weights
        {"arch": "mlp-8-6"},  # a valid arch that the record does not hold
        {"arch": "mlp-8-4-2"},  # one record short
        {"quantized": 0},  # mlp layers are quantized
        {"quantized": 2},  # a flag byte is 0 or 1
        {"meta": "[1]"},  # metadata is a JSON object
        {"name": "dense\udc80"},  # the lone byte 0x80 is not UTF-8
        {"meta": '{"a": ' + "1" * 5000 + "}"},  # json refuses ints over 4300 digits
        {"meta": '{"a": ' + "[" * 100000 + "]" * 100000 + "}"},  # nested past the recursion limit
        # A 10^7 x 10^7 layer (728 TiB of float64) is rejected before anything is allocated.
        {"arch": "custom", "meta": '{"specs": [{"kind": "dense", "in_dim": 10000000, '
                                   '"out_dim": 10000000, "quantized": true}]}'},
        {"records": 2},  # one record more than the arch has
        {"scale": math.nan},  # would serve NaN logits
        {"scale": math.inf},
        {"scale": -math.inf},
        {"bias": [0.0, math.nan, 2.0, 3.0]},  # every float32 payload is finite
        {"arch": "custom", "meta": UNQUANTIZED_8_4, "quantized": 0, "weights": [math.inf] + [0.0] * 31},
        *NO_INPUT_RUNS.values(),
    ],
    ids=["bias-length", "name", "transposed", "other-arch", "missing-layer", "quantized-flag",
         "flag-byte", "metadata-type", "name-encoding", "metadata-long-int", "metadata-nesting",
         "custom-huge-spec", "extra-layer", "scale-nan", "scale-inf", "scale-minus-inf", "bias-nan",
         "weight-inf", *NO_INPUT_RUNS],
)
def test_tern_record_not_matching_its_spec_rejected_at_load(tmp_path, fields):
    data = _tern_mlp_8_4(**fields)
    with pytest.raises(FormatError):
        packed_from_bytes(data)
    path = tmp_path / "bad.tern"
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_packed(path)
    with pytest.raises(FormatError):
        load_packed_and_infer(path, np.zeros((1, 8)))


@pytest.mark.parametrize(
    "fields",
    [
        {"bias_len": 1},  # would broadcast one bias into every logit
        {"name": "conv7"},
        {"shape": (4, 8)},  # transposed weights
        {"arch": "mlp-8-6"},  # a valid arch that the record does not hold
        {"arch": "mlp-8-4-2"},  # one record short
        {"records": 2},  # one record more than the arch has
        {"quantized": 0},  # mlp layers are quantized: the quantizer record is missing
        {"quantized": 2},  # a flag byte is 0 or 1
        # A 10^7 x 10^7 layer (728 TiB of float64) is rejected before anything is allocated.
        {"arch": "custom", "meta": '{"specs": [{"kind": "dense", "in_dim": 10000000, '
                                   '"out_dim": 10000000, "quantized": true}]}'},
        {"quant": (math.nan, -0.0625, 1.15)},  # would train with delta_c pinned at 0
        {"quant": (math.inf, -0.0625, 1.15)},
        # mu and sigma are both NaN (never refreshed) or a fit with sigma > 0.
        {"quant": (0.25, math.nan, 1.15)},
        {"quant": (0.25, -0.0625, math.nan)},
        {"quant": (0.25, math.inf, 1.15)},
        {"quant": (0.25, -0.0625, math.inf)},
        {"quant": (0.25, -0.0625, 0.0)},
        {"quant": (0.25, -0.0625, -1.15)},
        # Every float32 payload is finite.
        {"weights": [math.inf, *_tnck_weights(32)[1:]]},
        {"bias": [0.0, math.nan, 2.0, 3.0]},
        *NO_INPUT_RUNS.values(),
    ],
    ids=["bias-length", "name", "transposed", "other-arch", "missing-layer", "extra-layer",
         "quantized-flag", "flag-byte", "custom-huge-spec", "delta-nan", "delta-inf", "mu-nan-alone",
         "sigma-nan-alone", "mu-inf", "sigma-inf", "sigma-zero", "sigma-negative", "weight-inf", "bias-nan",
         *NO_INPUT_RUNS],
)
def test_tnck_record_not_matching_its_spec_rejected_at_load(tmp_path, fields):
    data = _tnck_mlp_8_4(**fields)
    with pytest.raises(FormatError):
        checkpoint_from_bytes(data)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("poke", ["weight-inf", "bias-nan"])
def test_writers_refuse_non_finite_payloads(poke):
    """No writer makes a file that the loader rejects: a NaN or infinite
    weight or bias is a ValueError in both formats."""
    unquantized = [LayerSpec("flatten"), LayerSpec("dense", in_dim=6, out_dim=3)]
    for model, write in [(build_from_config("mlp-6-3"), checkpoint_to_bytes),
                         (Model(unquantized, glorot(0)), packed_to_bytes)]:
        layer = model.param_layers()[0]
        if poke == "weight-inf":
            layer.w.data[0, 0] = math.inf
        else:
            layer.b.data[1] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            write(model)


def test_loading_draws_no_random_init(tmp_path, monkeypatch):
    model = _trained_like_model()
    save_checkpoint(model, tmp_path / "m.ckpt")
    export_packed(model, tmp_path / "m.tern")

    x = np.random.default_rng(2).normal(size=(3, 16))

    def no_init(*args, **kwargs):
        raise AssertionError("a loader drew a random init")

    # Every init source draws through a fresh generator; a loader makes none.
    monkeypatch.setattr(network, "glorot", no_init)
    monkeypatch.setattr(np.random, "default_rng", no_init)
    assert np.array_equal(load_checkpoint(tmp_path / "m.ckpt").forward(x, WEIGHT_PHASE).data,
                          model.forward(x, WEIGHT_PHASE).data)
    load_packed(tmp_path / "m.tern")


# --- packed models --------------------------------------------------------------


def _reference_packed_forward(data: bytes, x: np.ndarray) -> np.ndarray:
    """A second, independent interpreter of a TERN file: it parses the bytes
    with struct and decodes the codes with _unpack_by_bit_loop, then per
    layer applies the linear op on the codes, times the float32 scale, plus
    the bias. No modelio code reads the file."""
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
    pos = 0

    def take(fmt: str) -> tuple:
        nonlocal pos
        out = struct.unpack_from("<" + fmt, data, pos)
        pos += struct.calcsize("<" + fmt)
        return out

    assert take("4sH") == (b"TERN", 1)
    arch = take(f"{take('H')[0]}s")[0].decode("utf-8")
    meta = json.loads(take(f"{take('I')[0]}s")[0])
    (nlayers,) = take("H")
    t = np.asarray(x, dtype=np.float64)
    specs = [LayerSpec(**d) for d in meta["specs"]] if arch == "custom" else arch_specs(arch)
    for spec in specs:
        if spec.kind == "relu":
            t = np.maximum(t, 0.0)
            continue
        if spec.kind == "flatten":
            t = t.reshape(t.shape[0], -1)
            continue
        nlayers -= 1
        take(f"{take('H')[0]}s")  # name
        shape = take(f"{take('B')[0]}I")
        n = math.prod(shape)
        if take("B")[0]:
            (scale,) = take("f")
            eff = _unpack_by_bit_loop(take(f"{(n + 3) // 4}s")[0], n).astype(np.float64).reshape(shape)
        else:
            scale, eff = None, np.array(take(f"{n}f")).reshape(shape)
        bias = np.array(take(f"{take('I')[0]}f"))
        if spec.kind == "dense":
            z = t @ eff
        else:
            z = kernels.conv2d_forward(t, eff, spec.stride, spec.padding)[0]
        if scale is not None:
            z = z * scale
        t = z + (bias if spec.kind == "dense" else bias[None, :, None, None])
    assert nlayers == 0 and pos == len(data) - 4
    return t


def _trained_like_lenet(seed=10):
    model = build_from_config("lenet-small", seed=seed)
    model.init_thresholds(0.1)
    model.refresh_all()
    return model


@pytest.mark.parametrize("arch", ["mlp-784-300-100-10", "lenet-small"])
def test_packed_inference_matches_reference_interpreter_bit_for_bit(tmp_path, arch):
    model = _trained_like_lenet() if arch == "lenet-small" else _trained_like_model(arch, seed=16)
    path = tmp_path / "m.tern"
    export_packed(model, path)
    x = np.random.default_rng(17).normal(size=(4, 1, 28, 28))
    if arch != "lenet-small":
        x = x.reshape(4, -1)
    for batch in (x, x[2:3]):
        got = load_packed_and_infer(path, batch)
        assert np.array_equal(got, _reference_packed_forward(path.read_bytes(), batch))
        in_memory = model.forward(batch, WEIGHT_PHASE).data
        assert np.allclose(got, in_memory, rtol=1e-6, atol=1e-9)


def _mlp_with_dead_columns(seed):
    rng = np.random.default_rng(seed)
    model = build_from_config("mlp-784-300-100-10", seed=seed)
    for layer, share in zip(model.quantized_layers(), (0.7, 0.2, 0.0)):
        w = layer.w.data.copy()
        w[:, rng.permutation(w.shape[1])[: int(share * w.shape[1])]] *= 0.01
        layer.w.data = w
        layer.b.data = rng.normal(scale=0.1, size=layer.b.size).astype(np.float32).astype(np.float64)
    model.init_thresholds(0.4)
    model.refresh_all()
    return model


def test_packed_model_with_dead_columns_matches_the_full_codes(tmp_path):
    model = _mlp_with_dead_columns(seed=24)
    path = tmp_path / "dead.tern"
    export_packed(model, path)
    data = path.read_bytes()
    packed = load_packed(path)
    for layer, source in zip(packed.quantized_layers(), model.quantized_layers()):
        codes = source.qstate.codes
        live = np.flatnonzero(codes.any(axis=0))
        if live.size == codes.shape[1]:
            assert layer.qstate.live_columns is None
            continue
        idx, cols = layer.qstate.live_columns
        assert np.array_equal(idx, live)
        assert cols.dtype == np.float64 and not cols.flags.writeable
        assert np.array_equal(cols, codes[:, idx])
    dense0_live = packed.quantized_layers()[0].qstate.live_columns[0]
    assert dense0_live.size < 100
    assert np.array_equal(dense0_live, model.quantized_layers()[0].qstate.live_columns[0])
    # A GEMM over fewer columns may sum in another order: within float64
    # rounding of the 784-term sums (see tests/test_live_columns.py).
    x = np.random.default_rng(25).normal(size=(64, 784))
    for batch in (x, x[:1]):
        with no_grad():
            got = packed.forward(batch, WEIGHT_PHASE).data
        np.testing.assert_allclose(got, _reference_packed_forward(data, batch), rtol=1e-11, atol=1e-11)
        assert np.array_equal(load_packed_and_infer(path, batch), got)
    assert packed_to_bytes(packed) == data


def test_packed_round_trip_of_a_trained_mlp_keeps_its_live_columns_bit_for_bit(tmp_path):
    images, labels = make_synth_mnist(2048, seed=1)
    ds = Dataset((images.reshape(2048, -1) / 255.0 - 0.2647) / 0.2075, labels, 0.2647, 0.2075)
    model = build_from_config("mlp-784-300-100-10", seed=1)
    pretrain(model, ds, OptimizerConfig(kind="vanilla-sgd", lr=0.1), epochs=3, seed=1)
    model.init_thresholds(0.1)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.02, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0),
        seed=1,
    )
    train(state, ds, epochs=4)
    path = tmp_path / "trained.tern"
    export_packed(model, path)
    packed = load_packed(path)
    live = [l.qstate.live_columns for l in model.quantized_layers()]
    assert live[0] is not None and live[1] is not None  # training left dead columns there
    for layer, trained in zip(packed.quantized_layers(), live):
        assert np.array_equal(layer.qstate.codes, layer.w.data)
        if trained is None:
            assert layer.qstate.live_columns is None
            continue
        idx, cols = layer.qstate.live_columns
        assert np.array_equal(idx, trained[0]) and idx.dtype == trained[0].dtype
        assert cols.dtype == np.float64 and cols.flags.c_contiguous and not cols.flags.writeable
        assert cols.tobytes() == trained[1].tobytes()


@pytest.mark.parametrize("make", [_trained_like_model, _trained_like_lenet])
def test_export_load_packed_export_is_byte_identical(tmp_path, make):
    path = tmp_path / "m.tern"
    export_packed(make(), path)
    loaded = load_packed(path)
    assert packed_to_bytes(loaded) == path.read_bytes()
    assert loaded.packed and all(is_fresh(l.qstate, l.w.data) for l in loaded.quantized_layers())
    export_packed(loaded, tmp_path / "again.tern")
    assert (tmp_path / "again.tern").read_bytes() == path.read_bytes()


def test_packed_mixed_layers_roundtrip(tmp_path):
    specs = [
        LayerSpec("dense", in_dim=6, out_dim=4, quantized=True),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=4, out_dim=2, quantized=False),
    ]
    model = Model(specs, glorot(6))
    model.quantized_layers()[0].qstate.delta = 0.1
    model.refresh_all()
    path = tmp_path / "mixed.tern"
    export_packed(model, path)
    x = np.random.default_rng(5).normal(size=(3, 6))
    loaded = load_packed(path)
    assert packed_to_bytes(loaded) == path.read_bytes()
    assert np.array_equal(load_packed_and_infer(path, x), _reference_packed_forward(path.read_bytes(), x))


def test_unchanged_file_is_decoded_once(tmp_path, monkeypatch):
    path = tmp_path / "m.tern"
    export_packed(_trained_like_model(seed=18), path)
    calls = []
    decode = modelio.packed_from_bytes
    monkeypatch.setattr(modelio, "packed_from_bytes", lambda data: calls.append(1) or decode(data))
    x = np.random.default_rng(19).normal(size=(2, 16))
    first = load_packed_and_infer(path, x)
    for _ in range(3):
        assert np.array_equal(load_packed_and_infer(path, x), first)
    assert len(calls) == 1


def test_rewritten_file_serves_the_new_model(tmp_path):
    path = tmp_path / "m.tern"
    x = np.random.default_rng(20).normal(size=(2, 16))
    served = []
    for seed in (21, 22, 21):
        model = _trained_like_model(seed=seed)
        export_packed(model, path)
        served.append(load_packed_and_infer(path, x))
        assert np.array_equal(served[-1], _reference_packed_forward(path.read_bytes(), x))
    assert not np.array_equal(served[0], served[1])
    assert np.array_equal(served[0], served[2])


def test_bit_flip_after_a_served_request_still_rejected(tmp_path):
    path = tmp_path / "m.tern"
    export_packed(_trained_like_model(seed=23), path)
    load_packed_and_infer(path, np.zeros((1, 16)))
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    for _ in range(2):
        with pytest.raises(CrcMismatchError):
            load_packed_and_infer(path, np.zeros((1, 16)))


def test_packed_model_rejects_refresh_training_and_checkpoint(tmp_path):
    path = tmp_path / "m.tern"
    export_packed(_trained_like_model(seed=24), path)
    model = load_packed(path)
    before = [l.w.data.copy() for l in model.param_layers()]
    with pytest.raises(ValueError, match="cannot be refreshed"):
        model.refresh_all()
    for layer, codes in zip(model.quantized_layers(), before):
        assert np.array_equal(layer.w.data, codes)
        assert layer.qstate.codes is layer.w.data and not layer.w.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.param_layers()[0].w.data[0, 0] = 1.0
    for mode in (FLOAT_MODE, THRESHOLD_PHASE):
        with pytest.raises(ValueError, match="packed"):
            model.forward(np.zeros((1, 16)), mode)
    with pytest.raises(ValueError, match="packed"):
        checkpoint_to_bytes(model)


def test_a_packed_model_evaluates_like_its_source_in_ternary_mode(tmp_path):
    rng = np.random.default_rng(26)
    labels = rng.integers(0, 3, size=300)
    ds = Dataset(rng.normal(size=(300, 6)) + 1.5 * np.eye(3, 6)[labels], labels)
    model = build_from_config("mlp-6-5-3", seed=26)
    pretrain(model, ds, OptimizerConfig(kind="vanilla-sgd", lr=0.1), epochs=3, seed=26)
    model.init_thresholds(0.1)
    state = make_train_state(
        model, OptimizerConfig(kind="vanilla-sgd", lr=0.05), OptimizerConfig(kind="vanilla-sgd", lr=0.001), seed=26
    )
    train(state, ds, epochs=2)
    path = tmp_path / "m.tern"
    export_packed(model, path)
    packed = load_packed(path)
    loss, acc = eval_loss_acc(packed, ds, "ternary")
    want_loss, want_acc = eval_loss_acc(model, ds, "ternary")
    assert acc == want_acc
    # TERN stores each scale as float32; the loss moves by that rounding only.
    assert loss == pytest.approx(want_loss, rel=1e-6)
    with pytest.raises(ValueError, match="packed"):
        eval_loss_acc(packed, ds, "float")


def test_packed_forward_with_a_zero_scale(tmp_path):
    # Only the weight-phase backward divides by the scale; a forward never does.
    model = packed_from_bytes(_tern_mlp_8_4())
    model.quantized_layers()[0].qstate.scale = 0.0
    with no_grad():
        out = model.forward(np.ones((1, 8)), WEIGHT_PHASE).data
    assert np.array_equal(out, np.arange(4.0)[None])


@st.composite
def _drawn_chains(draw):
    """A custom chain and an input batch for it: 0-2 convs (kernel 1-4,
    stride 1-2, padding 0-2, integral extents, 1-3 channels), flatten, then
    1-2 dense layers, each parametric layer quantized or not, with a drawn
    threshold per quantized layer."""
    chan, hw = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    x_shape = (3, chan, hw, hw)
    specs = []

    def quantized(size):  # one weight has no spread, so it cannot be ternarized
        return draw(st.booleans()) and size > 1

    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 4))
        p = draw(st.integers(max(0, (k - hw + 1) // 2), 2))
        s = draw(st.sampled_from([1, 2] if (hw + 2 * p - k) % 2 == 0 else [1]))
        out = draw(st.integers(1, 3))
        specs += [LayerSpec("conv2d", chan, out, k, s, p, quantized(out * chan * k * k)), LayerSpec("relu")]
        chan, hw = out, (hw + 2 * p - k) // s + 1
    specs.append(LayerSpec("flatten"))
    feat = chan * hw * hw
    for i in range(draw(st.integers(1, 2))):
        out = draw(st.integers(1, 4))
        specs += [LayerSpec("relu")] * (i > 0) + [LayerSpec("dense", feat, out, quantized=quantized(feat * out))]
        feat = out
    fracs = [draw(st.floats(0.0, 1.0)) for s in specs if s.quantized]
    return specs, fracs, x_shape, draw(st.integers(0, 2**16))


@given(case=_drawn_chains())
@settings(max_examples=40, deadline=None)
def test_drawn_chains_round_trip_through_both_formats(case):
    specs, fracs, x_shape, seed = case
    model = Model(specs, glorot(seed))
    rng = np.random.default_rng(seed)
    for layer in model.param_layers():
        layer.b.data = rng.normal(scale=0.1, size=layer.b.data.shape).astype(np.float32).astype(np.float64)
    for layer, frac in zip(model.quantized_layers(), fracs):
        layer.qstate.delta = frac * float(np.max(np.abs(layer.w.data)))
    model.refresh_all()

    loaded = checkpoint_from_bytes(checkpoint_to_bytes(model))
    assert loaded.specs == model.specs
    for got, want in zip(loaded.param_layers(), model.param_layers(), strict=True):
        assert got.w.data.tobytes() == want.w.data.tobytes() and got.b.data.tobytes() == want.b.data.tobytes()
        assert (got.qstate is None) == (want.qstate is None)
        if want.qstate is not None:
            assert (got.qstate.delta, got.qstate.mu, got.qstate.sigma) == (
                want.qstate.delta, want.qstate.mu, want.qstate.sigma)
            assert is_fresh(got.qstate, got.w.data)

    data = packed_to_bytes(model)
    packed = packed_from_bytes(data)
    assert packed_to_bytes(packed) == data
    # The file rounds each scale to float32, and that is all it changes: with
    # the source's scales so rounded, the packed logits match bit for bit.
    # (A relative bound on the unrounded logits fails where a bias cancels
    # the product, as README says.)
    for layer in model.quantized_layers():
        layer.qstate.scale = float(np.float32(layer.qstate.scale))
    x = rng.normal(size=x_shape)
    with no_grad():
        assert np.array_equal(packed.forward(x, WEIGHT_PHASE).data, model.forward(x, WEIGHT_PHASE).data)


FUZZ_SEED = 4711  # pinned before the first run


@pytest.mark.parametrize("arch", ["mlp-16-8-4", "lenet-small"])
@pytest.mark.parametrize("fmt", ["tnck", "tern"])
def test_single_byte_mutations_behind_a_valid_crc(arch, fmt):
    """Each mutated file either raises ModelIOError or loads a model whose
    parameters are all finite and whose forward answers with logits of the
    right shape; nothing else escapes."""
    model = _trained_like_lenet(seed=25) if arch == "lenet-small" else _trained_like_model(seed=25)
    x = np.random.default_rng(26).normal(size=(1, 1, 28, 28) if arch == "lenet-small" else (1, 16))
    if fmt == "tnck":
        blob, load, mode = checkpoint_to_bytes(model), checkpoint_from_bytes, FLOAT_MODE
    else:
        blob, load, mode = packed_to_bytes(model), packed_from_bytes, WEIGHT_PHASE

    def load_and_run(data):
        loaded = load(data)
        with no_grad():
            return loaded, loaded.forward(x, mode).data

    expected_shape = load_and_run(blob)[1].shape
    rng = np.random.default_rng(FUZZ_SEED)
    outcomes = {"rejected": 0, "loaded": 0}
    with np.errstate(all="ignore"):
        for _ in range(1000):
            body = bytearray(blob[:-4])
            pos = int(rng.integers(len(body)))
            body[pos] ^= int(rng.integers(1, 256))
            data = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
            try:
                loaded, out = load_and_run(data)
            except ModelIOError:
                outcomes["rejected"] += 1
                continue
            assert out.shape == expected_shape, f"byte {pos}: logits of shape {out.shape}"
            assert all(np.isfinite(p.data).all() for p in loaded.parameters()), f"byte {pos}: non-finite parameters"
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
