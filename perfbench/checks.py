"""Reference computations made apart from terntrain, used to check its outputs.

Nothing here imports terntrain. The TERN decoder follows the layout in the
repository README: little-endian, magic "TERN", version u16, arch (u16
length + UTF-8), metadata JSON (u32 length + UTF-8), layer count u16, then
per layer a name (u16 + UTF-8), rank u8, u32 extents and a quantized flag
u8; a quantized layer stores a float32 scale and its codes packed four per
byte (first code in the least-significant pair, 00=0, 01=+1, 10=-1, 11
invalid, final byte zero-padded), any other layer raw float32 weights; a
u32 bias count and float32 biases follow either way. A CRC-32 (IEEE) of
everything before it closes the file.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import truncnorm

# The float32 scale stored in a TERN file is within 2**-24 of the float64
# scale it was rounded from; 1e-6 relative covers that and the difference
# between scipy's truncnorm arithmetic and the program's, while still
# catching a scale off by 1e-3.
SCALE_RTOL = 1e-6
# Logits pass through three float32-rounded scales and a different
# summation order than the program's kernels; 1e-6 relative plus 1e-6
# absolute covers both, far below any planted error worth catching.
LOGIT_RTOL = 1e-6
LOGIT_ATOL = 1e-6
CHANCE_ACCURACY = 0.1
MIN_ACCURACY = 0.5  # five times chance
REF_CHUNK = 256  # rows per reference forward pass


class CheckError(Exception):
    """A program output disagrees with the reference computation."""


@dataclass
class RefLayer:
    name: str
    shape: tuple
    quantized: bool
    scale: float  # float32 value as stored, quantized layers only
    codes: np.ndarray | None  # int8 reshaped to shape, quantized layers only
    weights: np.ndarray | None  # float32, other layers
    bias: np.ndarray  # float32


@dataclass
class RefModel:
    arch: str
    layers: list


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckError(f"TERN file truncated at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))[0]


def decode_codes(payload: bytes, n: int) -> np.ndarray:
    """2-bit codes, low pair first, via the bits themselves: code = lo - hi."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    pairs = bits.reshape(-1, 2).astype(np.int8)
    if np.any(pairs[:, 0] & pairs[:, 1]):
        raise CheckError("reserved 11 bit pair in packed codes")
    codes = pairs[:, 0] - pairs[:, 1]
    if np.any(codes[n:]):
        raise CheckError("non-zero padding in the final code byte")
    return codes[:n]


def decode_tern(data: bytes) -> RefModel:
    if len(data) < 10 or data[:4] != b"TERN":
        raise CheckError("not a TERN file")
    (crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != crc:
        raise CheckError("TERN CRC-32 mismatch")
    cur = _Cursor(data[:-4])
    cur.take(4)
    if cur.unpack("H") != 1:
        raise CheckError("unexpected TERN version")
    arch = cur.take(cur.unpack("H")).decode("utf-8")
    json.loads(cur.take(cur.unpack("I")).decode("utf-8"))  # metadata: must parse, not used
    layers = []
    for _ in range(cur.unpack("H")):
        name = cur.take(cur.unpack("H")).decode("utf-8")
        shape = tuple(cur.unpack("I") for _ in range(cur.unpack("B")))
        n = int(np.prod(shape))
        scale, codes, weights = 0.0, None, None
        if cur.unpack("B"):
            scale = cur.unpack("f")
            codes = decode_codes(cur.take((n + 3) // 4), n).reshape(shape)
        else:
            weights = np.frombuffer(cur.take(4 * n), dtype="<f4").reshape(shape)
        bias = np.frombuffer(cur.take(4 * cur.unpack("I")), dtype="<f4")
        layers.append(RefLayer(name, shape, codes is not None, scale, codes, weights, bias))
    if cur.pos != len(cur.data):
        raise CheckError("trailing bytes after the last TERN layer")
    return RefModel(arch, layers)


# --- quantizer reference ------------------------------------------------------


def quantizer_reference(w: np.ndarray, delta: float) -> dict:
    """mu, sigma, clipped threshold, codes and truncated-Gaussian scale of w."""
    w = np.asarray(w, dtype=np.float64)
    mu = float(np.mean(w))
    sigma = float(np.std(w))
    delta_c = min(abs(delta), 3.0 * sigma)
    codes = np.zeros(w.shape, dtype=np.int8)
    codes[w > mu + delta_c] = 1
    codes[w < mu - delta_c] = -1
    scale = float(truncnorm(a=delta_c / sigma, b=np.inf, loc=mu, scale=sigma).mean())
    return {"mu": mu, "sigma": sigma, "delta_c": delta_c, "codes": codes, "scale": scale}


def check_quantizer_state(name: str, ref: dict, mu: float, sigma: float, delta_c: float, scale: float) -> None:
    """The program's cached statistics and float64 scale against the reference."""
    tol = 1e-9 * max(1.0, abs(ref["mu"]), ref["sigma"])
    if abs(mu - ref["mu"]) > tol or abs(sigma - ref["sigma"]) > tol:
        raise CheckError(f"{name}: cached mu/sigma {mu}/{sigma} vs {ref['mu']}/{ref['sigma']}")
    if not 0.0 <= delta_c <= 3.0 * sigma:
        raise CheckError(f"{name}: delta_c {delta_c} outside [0, 3 sigma = {3.0 * sigma}]")
    if abs(delta_c - ref["delta_c"]) > tol:
        raise CheckError(f"{name}: delta_c {delta_c} vs reference {ref['delta_c']}")
    if not np.isclose(scale, ref["scale"], rtol=1e-9, atol=0.0):
        raise CheckError(f"{name}: scale {scale!r} vs truncnorm mean {ref['scale']!r}")


def check_file_layer(layer: RefLayer, ref: dict) -> None:
    """A decoded quantized layer against the reference codes and scale."""
    if not layer.quantized:
        raise CheckError(f"{layer.name}: stored unquantized")
    if layer.codes.shape != ref["codes"].shape:
        raise CheckError(f"{layer.name}: code shape {layer.codes.shape} vs {ref['codes'].shape}")
    wrong = int(np.count_nonzero(layer.codes != ref["codes"]))
    if wrong:
        raise CheckError(f"{layer.name}: {wrong} decoded codes differ from the reference")
    if not np.isclose(layer.scale, ref["scale"], rtol=SCALE_RTOL, atol=0.0):
        raise CheckError(f"{layer.name}: stored scale {layer.scale!r} vs truncnorm mean {ref['scale']!r}")


# --- reference forward --------------------------------------------------------

# (kind, stride, padding) per layer; "dense" and "conv" consume one file layer.
_LENET_SMALL = [("conv", 2, 1), ("relu",), ("conv", 2, 1), ("relu",), ("flatten",), ("dense",)]


def _arch_plan(arch: str) -> list:
    if arch == "lenet-small":
        return _LENET_SMALL
    if arch.startswith("mlp-"):
        n = len(arch.split("-")) - 2
        plan = [("flatten",)]
        for i in range(n):
            plan.append(("dense",))
            if i < n - 1:
                plan.append(("relu",))
        return plan
    raise CheckError(f"no reference plan for arch {arch!r}")


def conv2d_reference(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlation through a window view and one tensordot."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, w.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))  # N, Ho, Wo, F
    return out.transpose(0, 3, 1, 2)


def forward_reference(model: RefModel, x: np.ndarray) -> np.ndarray:
    """Logits from decoded codes times the stored float32 scales.

    Rows go through in chunks, so that the check's own intermediates (the
    conv window products above all) stay small beside the program's
    memory, which the benchmark reports.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([_forward_rows(model, x[i : i + REF_CHUNK]) for i in range(0, len(x), REF_CHUNK)])


def _forward_rows(model: RefModel, t: np.ndarray) -> np.ndarray:
    layers = iter(model.layers)
    for step in _arch_plan(model.arch):
        if step[0] == "relu":
            t = np.maximum(t, 0.0)
        elif step[0] == "flatten":
            t = t.reshape(len(t), -1)
        else:
            layer = next(layers)
            w = (layer.codes if layer.quantized else layer.weights).astype(np.float64)
            s = float(layer.scale) if layer.quantized else 1.0
            if step[0] == "dense":
                t = (t @ w) * s + layer.bias.astype(np.float64)
            else:
                z = conv2d_reference(t, w, step[1], step[2]) * s
                t = z + layer.bias.astype(np.float64)[None, :, None, None]
    return t


def loss_and_hits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy, per-sample correctness and per-sample top-2 margin."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(len(labels)), labels].mean())
    top2 = np.sort(logits, axis=1)[:, -2:]
    return loss, logits.argmax(axis=1) == labels, top2[:, 1] - top2[:, 0]


def check_eval(program_loss: float, program_acc: float, ref_logits: np.ndarray, labels: np.ndarray) -> float:
    """The program's eval loss and accuracy against the reference forward.

    A sample whose top-2 logits lie within the logit tolerance may rank
    either way, so the accuracy may differ by at most those samples.
    Returns the reference loss.
    """
    loss, hits, margin = loss_and_hits(ref_logits, labels)
    if not np.isclose(program_loss, loss, rtol=1e-5, atol=1e-9):
        raise CheckError(f"eval loss {program_loss!r} vs reference {loss!r}")
    tol = LOGIT_RTOL * np.abs(ref_logits).max(axis=1) + LOGIT_ATOL
    ties = int(np.count_nonzero(margin <= 2 * tol))
    n = len(labels)
    if abs(program_acc * n - hits.sum()) > ties + 1e-6:
        raise CheckError(f"eval accuracy {program_acc} vs reference {hits.mean()} ({ties} near-ties)")
    return loss


def check_logits(got: np.ndarray, want: np.ndarray) -> None:
    got = np.asarray(got)
    if got.shape != want.shape or not np.allclose(got, want, rtol=LOGIT_RTOL, atol=LOGIT_ATOL):
        raise CheckError(f"served logits differ from the reference by up to {np.max(np.abs(got - want))}")


def check_training(init_loss: float, final_loss: float, acc: float) -> None:
    if not final_loss < init_loss:
        raise CheckError(f"ternary test loss {final_loss} did not fall below its threshold-init value {init_loss}")
    if not acc >= MIN_ACCURACY:
        raise CheckError(f"ternary test accuracy {acc} is not far above chance ({CHANCE_ACCURACY})")
