import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain.modelio import (
    BadMagicError,
    CrcMismatchError,
    FormatError,
    InvalidCodeError,
    ModelIOError,
    TruncatedFileError,
    UnsupportedVersionError,
    checkpoint_from_bytes,
    checkpoint_from_model,
    checkpoint_to_bytes,
    export_packed,
    load_checkpoint,
    load_packed_and_infer,
    model_from_checkpoint,
    pack_codes,
    packed_to_bytes,
    save_checkpoint,
    unpack_codes,
)
from terntrain.network import LayerSpec, Model, build_from_config
from terntrain.ternarize import WEIGHT_PHASE, DegenerateLayerError, is_fresh


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
    restored = model_from_checkpoint(checkpoint_from_bytes(checkpoint_to_bytes(checkpoint_from_model(model))))
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
    restored = model_from_checkpoint(checkpoint_from_bytes(checkpoint_to_bytes(checkpoint_from_model(model))))
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
    restored = model_from_checkpoint(checkpoint_from_bytes(checkpoint_to_bytes(checkpoint_from_model(model))))
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
    blob = checkpoint_to_bytes(checkpoint_from_model(model))
    restored = model_from_checkpoint(checkpoint_from_bytes(blob))
    assert [s.to_dict() for s in restored.specs] == [s.to_dict() for s in specs]
    assert restored.param_layers()[1].qstate is None
    assert restored.quantized_layers()[0].qstate.delta == 0.15


def test_checkpoint_before_any_refresh_roundtrips():
    # Quantizer caches are NaN until the first refresh; they must survive
    # serialization without inventing values.
    model = build_from_config("mlp-6-4", seed=2)
    blob = checkpoint_to_bytes(checkpoint_from_model(model))
    restored = model_from_checkpoint(checkpoint_from_bytes(blob))
    st = restored.quantized_layers()[0].qstate
    assert st.delta == 0.0
    assert np.isnan(st.mu) and np.isnan(st.sigma)


def test_truncated_file_rejected():
    blob = checkpoint_to_bytes(checkpoint_from_model(_trained_like_model()))
    with pytest.raises(ModelIOError):
        checkpoint_from_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFileError):
        checkpoint_from_bytes(blob[:6])


def test_bit_flip_rejected():
    blob = bytearray(checkpoint_to_bytes(checkpoint_from_model(_trained_like_model())))
    blob[100] ^= 0x10
    with pytest.raises(CrcMismatchError):
        checkpoint_from_bytes(bytes(blob))


def test_flipped_magic_rejected():
    blob = bytearray(checkpoint_to_bytes(checkpoint_from_model(_trained_like_model())))
    blob[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        checkpoint_from_bytes(bytes(blob))


def test_unsupported_version_rejected():
    blob = bytearray(checkpoint_to_bytes(checkpoint_from_model(_trained_like_model())))
    struct.pack_into("<H", blob, 4, 999)
    # Re-seal the CRC so only the version check can fire.
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(UnsupportedVersionError):
        checkpoint_from_bytes(bytes(blob))


def test_trailing_garbage_rejected():
    blob = bytearray(checkpoint_to_bytes(checkpoint_from_model(_trained_like_model())))
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
    from terntrain.modelio import packed_from_bytes

    arch, meta, layers = packed_from_bytes(blob)
    assert all(l.codes is not None for l in layers if l.quantized)


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
