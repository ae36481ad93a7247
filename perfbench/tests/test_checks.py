"""Each benchmark check passes on honest outputs and catches one planted fault.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import os
import struct
import sys
import zlib

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import pipeline  # noqa: E402
from terntrain import modelio, network  # noqa: E402


def _exported(tmp_path, arch="mlp-784-32-10", seed=3):
    model = network.build_from_config(arch, seed=seed)
    model.init_thresholds(0.1)
    model.refresh_all()
    path = str(tmp_path / "m.tern")
    modelio.export_packed(model, path)
    with open(path, "rb") as fh:
        return model, path, fh.read()


def _first_layer_offsets(blob: bytes) -> tuple[int, int]:
    """Byte offsets of layer 0's float32 scale and of its first code byte."""
    pos = 6
    pos += 2 + struct.unpack_from("<H", blob, pos)[0]  # arch
    pos += 4 + struct.unpack_from("<I", blob, pos)[0]  # metadata
    pos += 2  # layer count
    pos += 2 + struct.unpack_from("<H", blob, pos)[0]  # name
    rank = blob[pos]
    pos += 1 + 4 * rank + 1  # extents, quantized flag
    return pos, pos + 4


def _with_crc(body: bytearray) -> bytes:
    body = bytes(body[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _check_layers(model, decoded):
    for layer, rec in zip(model.param_layers(), decoded.layers):
        ref = checks.quantizer_reference(layer.w.data, layer.qstate.delta)
        st = layer.qstate
        checks.check_quantizer_state(layer.name, ref, st.mu, st.sigma, st.delta_c, st.scale)
        checks.check_file_layer(rec, ref)


def test_honest_file_passes(tmp_path):
    model, _, blob = _exported(tmp_path)
    _check_layers(model, checks.decode_tern(blob))


def test_flipped_code_is_caught(tmp_path):
    model, _, blob = _exported(tmp_path)
    _, codes_at = _first_layer_offsets(blob)
    bad = bytearray(blob)
    pair = bad[codes_at] & 3
    bad[codes_at] = (bad[codes_at] & ~3) | {0: 1, 1: 2, 2: 0}[pair]
    decoded = checks.decode_tern(_with_crc(bad))
    with pytest.raises(checks.CheckError, match="codes differ"):
        _check_layers(model, decoded)


def test_scale_off_by_1e3_is_caught(tmp_path):
    model, _, blob = _exported(tmp_path)
    scale_at, _ = _first_layer_offsets(blob)
    bad = bytearray(blob)
    (scale,) = struct.unpack_from("<f", bad, scale_at)
    struct.pack_into("<f", bad, scale_at, scale * (1 + 1e-3))
    decoded = checks.decode_tern(_with_crc(bad))
    with pytest.raises(checks.CheckError, match="stored scale"):
        _check_layers(model, decoded)


def test_corrupt_crc_and_reserved_pair_are_caught(tmp_path):
    _, _, blob = _exported(tmp_path)
    _, codes_at = _first_layer_offsets(blob)
    bad = bytearray(blob)
    bad[codes_at] |= 3
    with pytest.raises(checks.CheckError, match="CRC"):
        checks.decode_tern(bytes(bad))
    with pytest.raises(checks.CheckError, match="reserved"):
        checks.decode_tern(_with_crc(bad))


def test_delta_c_outside_clip_range_is_caught(tmp_path):
    model, _, _ = _exported(tmp_path)
    layer = model.param_layers()[0]
    ref = checks.quantizer_reference(layer.w.data, layer.qstate.delta)
    st = layer.qstate
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_quantizer_state(layer.name, ref, st.mu, st.sigma, 3.01 * st.sigma, st.scale)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_quantizer_state(layer.name, ref, st.mu, st.sigma, -1e-6, st.scale)


@pytest.mark.parametrize("arch", ["mlp-784-32-10", "lenet-small"])
def test_wrong_logit_is_caught(tmp_path, arch):
    _, path, blob = _exported(tmp_path, arch)
    x = np.random.default_rng(0).normal(size=(4, 1, 28, 28))
    want = checks.forward_reference(checks.decode_tern(blob), x)
    got = modelio.load_packed_and_infer(path, x)
    checks.check_logits(got, want)
    got[2, 3] += 1e-3
    with pytest.raises(checks.CheckError, match="served logits"):
        checks.check_logits(got, want)


def test_eval_mismatch_is_caught():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(200, 10))
    labels = rng.integers(0, 10, size=200)
    loss, hits, _ = checks.loss_and_hits(logits, labels)
    acc = float(hits.mean())
    assert checks.check_eval(loss, acc, logits, labels) == loss
    with pytest.raises(checks.CheckError, match="accuracy"):
        checks.check_eval(loss, acc + 1 / 200, logits, labels)
    with pytest.raises(checks.CheckError, match="loss"):
        checks.check_eval(loss * (1 + 1e-3), acc, logits, labels)


def test_training_checks_catch_no_progress_and_chance_accuracy():
    checks.check_training(2.0, 0.5, 0.8)
    with pytest.raises(checks.CheckError, match="did not fall"):
        checks.check_training(2.0, 2.0, 0.8)
    with pytest.raises(checks.CheckError, match="chance"):
        checks.check_training(2.0, 0.5, 0.12)


TINY = pipeline.Workload(arch="mlp-784-64-10", n_train=512, n_test=256, eval_repeats=1)
TINY_SERVE_BURST = 5
# Round 0 bursts once, after its file is verified; later rounds burst after
# each of the 2 pretraining epochs, the warm-up epoch, the timed epoch and
# the export.
BURSTS = 1 + (pipeline.MIN_ROUNDS - 1) * 5


def _tiny_run(tmp_path, monkeypatch):
    monkeypatch.setitem(pipeline.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(pipeline, "PRETRAIN_EPOCHS", 2)
    monkeypatch.setattr(pipeline, "TERN_EPOCHS", 1)
    monkeypatch.setattr(pipeline, "SERVE_BURST", TINY_SERVE_BURST)
    run = pipeline.Run("tiny", seed=1, seconds=0, trace=False, out_dir=str(tmp_path))
    run.execute(import_s=0.0)
    return run


def test_run_counts_every_operation(tmp_path, monkeypatch):
    run = _tiny_run(tmp_path, monkeypatch)
    per_round = 2 * 8 + 2 * 8 + 1 + 1  # pretrain steps, ternary steps, eval batch, export
    per_burst = 1 + 5  # eval batch, requests
    assert run.ops.failures == []
    assert (run.ops.attempted, run.ops.failed) == (pipeline.MIN_ROUNDS * per_round + BURSTS * per_burst, 0)


def test_run_fails_the_requests_a_wrong_logit_reaches(tmp_path, monkeypatch):
    real = modelio.load_packed_and_infer

    def off_by_one_logit(path, x):
        out = real(path, x)
        out[0, 0] += 1e-3
        return out

    monkeypatch.setattr(modelio, "load_packed_and_infer", off_by_one_logit)
    run = _tiny_run(tmp_path, monkeypatch)
    assert run.ops.failed == BURSTS * TINY_SERVE_BURST


def test_run_fails_the_export_a_flipped_code_reaches(tmp_path, monkeypatch):
    real = modelio.pack_codes

    def flip_first(codes):
        codes = np.array(codes, dtype=np.int8).reshape(-1)
        codes[0] = 1 if codes[0] != 1 else -1
        return real(codes)

    monkeypatch.setattr(modelio, "pack_codes", flip_first)
    run = _tiny_run(tmp_path, monkeypatch)
    assert sum("export" in f for f in run.ops.failures) == pipeline.MIN_ROUNDS
    # Nothing downstream of an unverified file counts as verified: only the
    # 16 pretraining steps of each round pass, and no burst runs.
    assert run.ops.failed == run.ops.attempted - pipeline.MIN_ROUNDS * 16
