"""Model files: TNCK checkpoints and TERN 2-bit packed models.

Both formats turn a Model into bytes and bytes into a Model, with no record
type between: checkpoint_to_bytes / checkpoint_from_bytes and
packed_to_bytes / packed_from_bytes. Both are little-endian and CRC-32
trailed, so corruption and truncation are rejected before any parsing.
Every rejection of a file is a ModelIOError whose message names the check
that failed; a writer refuses a model it cannot write with a ValueError.

Both formats are one container over two layer codecs. One writer,
_to_bytes, writes the header (magic, version u16, arch string, JSON
metadata, layer count), then per parametric layer its name and weight
shape followed by the format's layer body, then the CRC-32. One loader,
_load, reads it back. A TNCK body is the float32 weight payload, the
float32 bias payload and an optional quantizer record (delta, mu, sigma as
float64). A TERN body is either a float32 scale plus codes packed four per
byte (2 bits each, first weight in the least-significant pair, 00=0,
01=+1, 10=-1, 11 reserved) or, for non-quantized layers, the raw float32
weights; the float32 biases follow either way.

The loader resolves the layer specs and passes the Model constructor a
params source that reads each layer record as its layer is built, so no
init is drawn. A record whose name or weight shape differs from its spec
is rejected before its payload is read; one whose bias length or quantized
flag differs, by the constructor's check before its layer is built. Every
float32 payload (weights, biases, a TERN scale) must be finite: a NaN or
infinite value is rejected as it is read, and the writers refuse to write
one. A TNCK delta must be finite too, and its mu and sigma both NaN (a
state never refreshed, as in every pretrain checkpoint) or both finite
with sigma > 0. Loading only decodes: a TNCK quantizer record loads as
saved and stale, and model.refresh_all() readies the model to run. A TERN
file loads into a packed Model, ready as loaded, which runs through
Model.forward like any other.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .autograd import no_grad
from .network import LayerSpec, Model, arch_specs
from .ternarize import (
    WEIGHT_PHASE,
    QuantizerState,
    check_fresh,
    dead_outputs,
    set_codes,
    sparsity,
)

CHECKPOINT_MAGIC = b"TNCK"
PACKED_MAGIC = b"TERN"
FORMAT_VERSION = 1

_MIN_FILE = 4 + 2 + 4  # magic + version + crc


class ModelIOError(Exception):
    """A model file rejected: its message names the check that failed."""


# --- byte-level helpers -----------------------------------------------------


def _text_bytes(width: str, s: str) -> bytes:
    """A UTF-8 string behind its byte length, packed as struct format `width`."""
    b = s.encode("utf-8")
    return struct.pack("<" + width, len(b)) + b


def _f32_bytes(a) -> bytes:
    """A float32 payload; a value that is not finite in float32 is refused."""
    a = np.ascontiguousarray(a, dtype="<f4")
    if not np.isfinite(a).all():
        raise ValueError(f"float32 payload holds a non-finite value: {a[~np.isfinite(a)][0]}")
    return a.tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelIOError(f"needed {n} bytes at offset {self.pos}, only {len(self.data) - self.pos} left")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, width: str) -> str:
        raw = self.take(self.unpack(width)[0])
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelIOError(f"string before offset {self.pos} is not UTF-8: {e}") from e

    def flag(self) -> bool:
        (v,) = self.unpack("B")
        if v > 1:
            raise ModelIOError(f"flag byte {v} before offset {self.pos} is neither 0 nor 1")
        return bool(v)

    def f32_array(self, n: int) -> np.ndarray:
        start = self.pos
        a = np.frombuffer(self.take(4 * n), dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise ModelIOError(f"float32 value {a[bad[0]]} at offset {start + 4 * int(bad[0])} is not finite")
        return a.copy()

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ModelIOError(f"{len(self.data) - self.pos} trailing bytes after the last layer")


# --- container layout, writer and loader shared by both formats ---------------


def _to_bytes(magic: bytes, model: Model, meta: dict, write_layer) -> bytes:
    """The file of a model: the header (magic, version, arch, metadata plus a
    custom arch's specs, layer count), then per parametric layer its name,
    its weight shape and the bytes write_layer(layer) returns, then the CRC-32."""
    if model.arch == "custom":
        meta = {**meta, "specs": [asdict(s) for s in model.specs]}
    layers = model.param_layers()
    buf = bytearray(magic + struct.pack("<H", FORMAT_VERSION))
    buf += _text_bytes("H", model.arch) + _text_bytes("I", json.dumps(meta, sort_keys=True))
    buf += struct.pack("<H", len(layers))
    for layer in layers:
        shape = layer.w.shape
        buf += _text_bytes("H", layer.name) + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        buf += write_layer(layer)
    buf += struct.pack("<I", zlib.crc32(buf))
    return bytes(buf)


def _read_header(data: bytes, magic: bytes) -> tuple[_Reader, str, dict, int]:
    """Validate length, magic, CRC and version; return a reader at the first
    layer record, the arch string, the metadata and the layer count."""
    if len(data) < _MIN_FILE:
        raise ModelIOError(f"file of {len(data)} bytes is shorter than any valid model file")
    if data[:4] != magic:
        raise ModelIOError(f"expected magic {magic!r}, found {data[:4]!r}")
    (stored,) = struct.unpack("<I", data[-4:])
    actual = zlib.crc32(data[:-4])
    if stored != actual:
        raise ModelIOError(f"CRC mismatch: stored {stored:#010x}, computed {actual:#010x}")
    r = _Reader(data[:-4])
    r.take(4)  # magic
    (version,) = r.unpack("H")
    if version != FORMAT_VERSION:
        raise ModelIOError(f"unsupported format version {version}")
    arch = r.text("H")
    text = r.text("I")
    try:
        meta = json.loads(text)
    # ValueError covers malformed JSON and over-long integer literals;
    # RecursionError, deeply nested arrays.
    except (ValueError, RecursionError) as e:
        raise ModelIOError(f"bad metadata JSON: {e}") from e
    if not isinstance(meta, dict):
        raise ModelIOError(f"metadata is a JSON {type(meta).__name__}, not an object")
    return r, arch, meta, r.unpack("H")[0]


def _specs_from(arch: str, metadata: dict) -> list[LayerSpec]:
    if arch == "custom":
        try:
            return [LayerSpec(**d) for d in metadata["specs"]]
        except (KeyError, TypeError) as e:
            raise ModelIOError(f"custom arch without usable specs in metadata: {e}") from e
    try:
        return arch_specs(arch)
    except ValueError as e:
        raise ModelIOError(str(e)) from e


def _load(data: bytes, magic: bytes, read_layer) -> Model:
    """The model of a file's bytes, built from its layer records with no init drawn.

    The Model constructor asks for each layer in turn, and its record is
    read then: the name and weight shape are checked against the spec
    before the payload is read. read_layer(reader, shape) reads the rest
    of a record and returns the float64 weights, the bias and the layer's
    quantizer state (None for a layer stored unquantized), which the
    constructor holds to the spec. A record that differs, or a record too
    many or too few, is a ModelIOError.
    """
    r, arch, meta, nlayers = _read_header(data, magic)
    specs = _specs_from(arch, meta)
    read = 0

    def params(spec: LayerSpec, name: str, shape: tuple) -> tuple:
        nonlocal read
        if read == nlayers:
            raise ModelIOError(f"file has {nlayers} layer records, fewer than arch {arch!r} needs")
        head = (r.text("H"), r.unpack(f"{r.unpack('B')[0]}I"))
        if head != (name, shape):
            raise ModelIOError(
                f"layer record (name, shape) {head} does not match the architecture's {(name, shape)}"
            )
        read += 1
        weights, bias, state = read_layer(r, shape)
        return weights, bias.astype(np.float64), state

    try:
        model = Model(specs, params, arch)
    except (ValueError, TypeError) as e:
        raise ModelIOError(f"layer specs or records unusable: {e}") from e
    if read != nlayers:
        raise ModelIOError(f"file has {nlayers} layer records, more than arch {arch!r} has")
    r.expect_end()
    model.meta = dict(meta)
    return model


# --- checkpoint format ------------------------------------------------------


def _write_checkpoint_layer(layer) -> bytes:
    st = layer.qstate
    quant = struct.pack("<B", 0) if st is None else struct.pack("<B3d", 1, st.delta, st.mu, st.sigma)
    return _f32_bytes(layer.w.data) + struct.pack("<I", layer.b.size) + _f32_bytes(layer.b.data) + quant


def checkpoint_to_bytes(model: Model, metadata: dict | None = None) -> bytes:
    if model.packed:
        raise ValueError("a packed model holds codes, not float weights; it has no checkpoint")
    return _to_bytes(CHECKPOINT_MAGIC, model, metadata or {}, _write_checkpoint_layer)


def _read_checkpoint_layer(r: _Reader, shape: tuple) -> tuple:
    weights = r.f32_array(math.prod(shape)).astype(np.float64).reshape(shape)
    bias = r.f32_array(r.unpack("I")[0])
    if not r.flag():
        return weights, bias, None
    delta, mu, sigma = r.unpack("3d")
    # mu and sigma are both NaN in a state never refreshed, else a Gaussian fit.
    fitted = math.isfinite(mu) and math.isfinite(sigma) and sigma > 0
    if not math.isfinite(delta) or not (fitted or (math.isnan(mu) and math.isnan(sigma))):
        raise ModelIOError(f"quantizer record (delta, mu, sigma) {(delta, mu, sigma)} is not usable")
    return weights, bias, QuantizerState(delta, mu, sigma)


def checkpoint_from_bytes(data: bytes) -> Model:
    """Decode a TNCK checkpoint; each quantizer record is the saved (delta, mu, sigma),
    stale until model.refresh_all()."""
    return _load(data, CHECKPOINT_MAGIC, _read_checkpoint_layer)


def save_checkpoint(model: Model, path, metadata: dict | None = None) -> None:
    data = checkpoint_to_bytes(model, metadata)
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    return checkpoint_from_bytes(data)


# --- 2-bit packing ----------------------------------------------------------


def pack_codes(codes) -> bytes:
    """Pack codes in {-1, 0, +1} four per byte, first code in bits 1:0; any other code is a ValueError."""
    flat = np.asarray(codes).reshape(-1)
    valid = (flat == 0) | (flat == 1) | (flat == -1)
    if not valid.all():
        raise ValueError(f"code {flat[~valid][0]} outside {{-1, 0, +1}}")
    # A code's int8 byte masked to its low pair reads 01 for +1 and 11 for -1;
    # folding the pair's high bit onto its low bit turns 11 into 10.
    u = flat.astype(np.int8).view(np.uint8) & 3
    u ^= u >> 1
    pad = (-u.size) % 4
    if pad:
        u = np.concatenate([u, np.zeros(pad, dtype=np.uint8)])
    quads = u.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.astype(np.uint8).tobytes()


_PAIR_CODE = np.array([0, 1, -1, 0], dtype=np.int8)  # bit pair 11 is reserved
_BYTE_PAIRS = (np.arange(256)[:, None] >> np.array([0, 2, 4, 6])) & 3
_BYTE_CODES = _PAIR_CODE[_BYTE_PAIRS]  # (256, 4) int8: the four codes of each byte


def unpack_codes(data: bytes, n: int) -> np.ndarray:
    """Inverse of pack_codes; rejects the reserved 11 pair and bad padding.

    Returns a flat int8 array of the n codes in pack order. pack_codes
    flattens its input and the payload records no shape, so a caller that
    packed a multi-dimensional array reshapes the result itself.
    """
    expected = (n + 3) // 4
    if len(data) != expected:
        raise ModelIOError(f"packed payload of {len(data)} bytes cannot hold {n} codes")
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    b = np.frombuffer(data, dtype=np.uint8)
    # A pair is 11 when its high bit, shifted onto its low bit, meets a set low bit.
    if (b & (b >> 1) & 0x55).any():
        raise ModelIOError("reserved 11 bit pair in packed codes")
    # np.take, not fancy indexing: it gathers whole table rows several times faster.
    codes = np.take(_BYTE_CODES, b, axis=0).reshape(-1)
    if codes[n:].any():
        raise ModelIOError("non-zero padding bit pairs in final byte")
    return codes[:n]


# --- packed model format ----------------------------------------------------


def _write_packed_layer(layer) -> bytes:
    st = layer.qstate
    if st is None:
        body = struct.pack("<B", 0) + _f32_bytes(layer.w.data)
    else:
        check_fresh(st, layer.w.data, layer.name)
        body = struct.pack("<B", 1) + _f32_bytes([st.scale]) + pack_codes(st.codes)
    return body + struct.pack("<I", layer.b.size) + _f32_bytes(layer.b.data)


def packed_to_bytes(model: Model) -> bytes:
    return _to_bytes(PACKED_MAGIC, model, {}, _write_packed_layer)


def _read_packed_layer(r: _Reader, shape: tuple) -> tuple:
    n = math.prod(shape)
    if not r.flag():
        return r.f32_array(n).astype(np.float64).reshape(shape), r.f32_array(r.unpack("I")[0]), None
    st = QuantizerState(0.0, scale=float(r.f32_array(1)[0]))
    set_codes(st, unpack_codes(r.take((n + 3) // 4), n).reshape(shape))
    st.source = st.float_codes()
    return st.source, r.f32_array(r.unpack("I")[0]), st


def packed_from_bytes(data: bytes) -> Model:
    """A packed Model from the bytes of a TERN file.

    A quantized layer's int8 codes are its quantizer state's codes, beside
    the file's float32 scale. Their read-only float64 copy, widened once at
    the load, serves as its weights, as its state's source and as the
    float64 codes every forward multiplies, so the weight-phase forward
    computes (x @ codes) * scale + bias and a request widens nothing. The
    codes are set through set_codes(), as a trained layer's are, so a
    quantized dense layer's live columns follow from them the same way.
    """
    model = _load(data, PACKED_MAGIC, _read_packed_layer)
    model.packed = True
    return model


def export_packed(model: Model, path) -> dict:
    """Write the packed model and return the compression/sparsity report.

    Per quantized layer the ratio is (4 * params) / (packed bytes + 4 bytes
    of scale), and dead_outputs counts the output units (dense columns or
    conv filters) whose codes are all zero; non-quantized layers are stored
    as float32 and excluded from the ratio, flagged in the report.
    """
    data = packed_to_bytes(model)
    with open(path, "wb") as fh:
        fh.write(data)

    layers = []
    q_params = 0
    q_packed = 0
    for layer in model.param_layers():
        n = layer.w.size
        entry = {
            "name": layer.name,
            "params": n,
            "quantized": layer.qstate is not None,
            "bytes_float32": 4 * n,
        }
        if layer.qstate is not None:
            packed_bytes = (n + 3) // 4
            entry["sparsity"] = sparsity(layer.qstate.codes)
            entry["dead_outputs"] = dead_outputs(layer.qstate.codes)
            entry["bytes_packed"] = packed_bytes
            entry["compression_ratio"] = (4 * n) / (packed_bytes + 4)
            q_params += n
            q_packed += packed_bytes + 4
        layers.append(entry)
    report = {
        "file": str(path),
        "file_bytes": len(data),
        "layers": layers,
        "totals": {
            "params": sum(l["params"] for l in layers),
            "quantized_params": q_params,
            "bytes_float32_quantized": 4 * q_params,
            "bytes_packed_with_scales": q_packed,
            "compression_ratio": (4 * q_params) / q_packed if q_packed else None,
        },
    }
    return report


# The bytes of the file load_packed_and_infer last decoded, and their model.
_served: tuple[bytes, Model] | None = None


def load_packed_and_infer(path, x: np.ndarray) -> np.ndarray:
    """Logits of a packed file's model for the batch x.

    The file is read on every call, and checked, decoded and loaded only
    when its bytes differ from those this function last decoded: a file
    that stays the same is decoded once, and a changed or corrupted file is
    never answered from memory. Traffic that alternates between files, or
    that rewrites the file before every request, decodes on every call.
    """
    global _served
    with open(path, "rb") as fh:
        data = fh.read()
    if _served is None or _served[0] != data:
        _served = (data, packed_from_bytes(data))
    with no_grad():
        return _served[1].forward(x, WEIGHT_PHASE).data
