import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain import kernels, modelio, network
from terntrain.autograd import no_grad
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
    _Writer,
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
from terntrain.network import FLOAT_MODE, LayerSpec, Model, arch_specs, build_from_config
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, DegenerateLayerError, is_fresh


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
    model = Model(specs, seed=3)
    model.quantized_layers()[0].qstate.delta = 0.15
    model.refresh_all()
    blob = checkpoint_to_bytes(model)
    restored = checkpoint_from_bytes(blob)
    assert [s.to_dict() for s in restored.specs] == [s.to_dict() for s in specs]
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
    model = Model(specs, seed=4)
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
        model = Model.from_params(specs, "custom", lambda spec, name, shape: (w.copy(), np.zeros(spec.out_dim)))
        model.quantized_layers()[0].qstate.delta = 0.5
        model.refresh_all()
        before = packed_to_bytes(model)
        entry = export_packed(model, tmp_path / "hand.tern")["layers"][0]
        assert entry["dead_outputs"] == dead
        assert (tmp_path / "hand.tern").read_bytes() == before


def test_export_report_large_layer_near_16x(tmp_path):
    specs = [LayerSpec("dense", in_dim=1000, out_dim=1000, quantized=True)]
    model = Model(specs, seed=5)
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
    model = Model(specs, seed=6)
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


def _tern_mlp_8_4(arch="mlp-8-4", meta="{}", name="dense0", shape=(8, 4), bias_len=4, quantized=1, records=1,
                  codes=None, scale=0.5):
    """A TERN file written field by field: `records` copies of one dense
    layer record holding the packed `codes` (all zero by default) and
    `scale`."""
    w = _Writer()
    w.raw(b"TERN")
    w.u16(1)
    w.str16(arch)
    w.str32(meta)
    w.u16(records)  # layer count
    for _ in range(records):
        raw_name = name.encode("utf-8", "surrogateescape")
        w.u16(len(raw_name))
        w.raw(raw_name)
        w.u8(len(shape))
        for e in shape:
            w.u32(e)
        w.u8(quantized)
        n = int(np.prod(shape))
        if quantized:
            w.raw(struct.pack("<f", scale))
            w.raw(bytes((n + 3) // 4) if codes is None else codes)
        else:
            w.f32_array(np.zeros(n))
        w.u32(bias_len)
        w.f32_array(np.arange(bias_len, dtype=np.float64))
    return w.finish()


TNCK_QUANT = (0.25, -0.0625, 1.15)  # delta, mu, sigma of the hand-built record


def _tnck_weights(n):
    return (np.arange(n, dtype=np.float64) - n // 2) / 8  # exact in float32


def _tnck_mlp_8_4(arch="mlp-8-4", meta="{}", name="dense0", shape=(8, 4), bias_len=4, quantized=1, records=1):
    """A TNCK file written field by field: `records` copies of one dense
    layer record, weights from _tnck_weights and the quantizer TNCK_QUANT."""
    w = _Writer()
    w.raw(b"TNCK")
    w.u16(1)
    w.str16(arch)
    w.str32(meta)
    w.u16(records)  # layer count
    for _ in range(records):
        w.str16(name)
        w.u8(len(shape))
        for e in shape:
            w.u32(e)
        w.f32_array(_tnck_weights(int(np.prod(shape))))
        w.u32(bias_len)
        w.f32_array(np.arange(bias_len, dtype=np.float64))
        w.u8(quantized)
        if quantized:
            for v in TNCK_QUANT:
                w.f64(v)
    return w.finish()


def _hand_set_mlp_8_4():
    def params(spec, name, shape):
        return _tnck_weights(32).reshape(shape), np.arange(4.0)

    model = Model.from_params(arch_specs("mlp-8-4"), "mlp-8-4", params)
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
        return TERN_CODES.copy(), np.arange(4.0)

    model = Model.from_params(arch_specs("mlp-8-4"), "mlp-8-4", params)
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
    ],
    ids=["bias-length", "name", "transposed", "other-arch", "missing-layer", "quantized-flag",
         "flag-byte", "metadata-type", "name-encoding", "metadata-long-int", "metadata-nesting",
         "custom-huge-spec", "extra-layer"],
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
    ],
    ids=["bias-length", "name", "transposed", "other-arch", "missing-layer", "extra-layer",
         "quantized-flag", "flag-byte", "custom-huge-spec"],
)
def test_tnck_record_not_matching_its_spec_rejected_at_load(tmp_path, fields):
    data = _tnck_mlp_8_4(**fields)
    with pytest.raises(FormatError):
        checkpoint_from_bytes(data)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_loading_draws_no_random_init(tmp_path, monkeypatch):
    model = _trained_like_model()
    save_checkpoint(model, tmp_path / "m.ckpt")
    export_packed(model, tmp_path / "m.tern")

    def no_init(*args, **kwargs):
        raise AssertionError("a loader drew a random init")

    monkeypatch.setattr(network, "_glorot_uniform", no_init)
    x = np.random.default_rng(2).normal(size=(3, 16))
    assert np.array_equal(load_checkpoint(tmp_path / "m.ckpt").forward(x, WEIGHT_PHASE).data,
                          model.forward(x, WEIGHT_PHASE).data)
    load_packed(tmp_path / "m.tern")


# --- packed models --------------------------------------------------------------


def _reference_packed_forward(data: bytes, x: np.ndarray) -> np.ndarray:
    """A second, independent interpreter of a TERN file: per layer, the linear
    op on the codes, times the float32 scale, plus the bias. It reads the
    records with the format's record reader, not through the loader."""
    r, arch, meta, nlayers = modelio._read_header(data, modelio.PACKED_MAGIC)
    t = np.asarray(x, dtype=np.float64)
    specs = [LayerSpec.from_dict(d) for d in meta["specs"]] if arch == "custom" else arch_specs(arch)
    for spec in specs:
        if spec.kind == "relu":
            t = np.maximum(t, 0.0)
            continue
        if spec.kind == "flatten":
            t = t.reshape(t.shape[0], -1)
            continue
        nlayers -= 1
        r.str16()  # name
        shape = tuple(r.u32() for _ in range(r.u8()))
        eff, bias, st = modelio._read_packed_layer(r, shape)
        if spec.kind == "dense":
            z = t @ eff
        else:
            z = kernels.conv2d_forward(t, eff, spec.stride, spec.padding)
        if st is not None:
            z = z * float(st.scale)
        bias = bias.astype(np.float64)
        t = z + (bias if spec.kind == "dense" else bias[None, :, None, None])
    assert nlayers == 0
    r.expect_end()
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
    model = Model(specs, seed=6)
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


def test_packed_forward_with_a_zero_scale(tmp_path):
    # Only the weight-phase backward divides by the scale; a forward never does.
    model = packed_from_bytes(_tern_mlp_8_4())
    model.quantized_layers()[0].qstate.scale = 0.0
    with no_grad():
        out = model.forward(np.ones((1, 8)), WEIGHT_PHASE).data
    assert np.array_equal(out, np.arange(4.0)[None])


FUZZ_SEED = 4711  # pinned before the first run


@pytest.mark.parametrize("arch", ["mlp-16-8-4", "lenet-small"])
@pytest.mark.parametrize("fmt", ["tnck", "tern"])
def test_single_byte_mutations_behind_a_valid_crc(arch, fmt):
    """Each mutated file either raises ModelIOError or loads a model whose
    forward answers with logits of the right shape; nothing else escapes."""
    model = _trained_like_lenet(seed=25) if arch == "lenet-small" else _trained_like_model(seed=25)
    x = np.random.default_rng(26).normal(size=(1, 1, 28, 28) if arch == "lenet-small" else (1, 16))
    if fmt == "tnck":
        blob = checkpoint_to_bytes(model)

        def load_and_run(data):
            return checkpoint_from_bytes(data).forward(x).data

    else:
        blob = packed_to_bytes(model)

        def load_and_run(data):
            with no_grad():
                return packed_from_bytes(data).forward(x, WEIGHT_PHASE).data

    expected_shape = load_and_run(blob).shape
    rng = np.random.default_rng(FUZZ_SEED)
    outcomes = {"rejected": 0, "loaded": 0}
    with np.errstate(all="ignore"):
        for _ in range(1000):
            body = bytearray(blob[:-4])
            pos = int(rng.integers(len(body)))
            body[pos] ^= int(rng.integers(1, 256))
            data = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
            try:
                out = load_and_run(data)
            except ModelIOError:
                outcomes["rejected"] += 1
                continue
            assert out.shape == expected_shape, f"byte {pos}: logits of shape {out.shape}"
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 0 and outcomes["loaded"] > 0
