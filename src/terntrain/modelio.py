"""Model files: TNCK checkpoints and TERN 2-bit packed models.

Both formats turn a Model into bytes and bytes into a Model, with no record
type between: checkpoint_to_bytes / checkpoint_from_bytes and
packed_to_bytes / packed_from_bytes. Both are little-endian and CRC-32
trailed, so corruption and truncation are rejected before any parsing.

TNCK checkpoints: magic "TNCK", version u16, arch string, JSON metadata,
then per parametric layer the name, weight shape, float32 weight payload,
float32 bias payload and an optional quantizer record (delta, mu, sigma as
float64).

TERN packed models: magic "TERN", version u16, arch string, JSON metadata,
then per layer either a float32 scale plus codes packed four per byte (2
bits each, first weight in the least-significant pair, 00=0, 01=+1, 10=-1,
11 reserved) or, for non-quantized layers, the raw float32 weights; biases
follow in float32 either way.

Both formats load through one loader: it resolves the layer specs and
builds the Model with no init drawn, reading each layer record as its layer
is built. A record whose name, weight shape, bias length or quantized flag
differs from its spec is rejected as it is read, before its layer is
allocated. A TERN file loads into a packed Model, which runs through
Model.forward like any other.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .autograd import no_grad
from .network import LayerSpec, Model, arch_specs
from .ternarize import (
    WEIGHT_PHASE,
    QuantizerState,
    dead_outputs,
    is_fresh,
    layer_stats,
    refresh,
    set_codes,
    sparsity,
)

CHECKPOINT_MAGIC = b"TNCK"
PACKED_MAGIC = b"TERN"
FORMAT_VERSION = 1

_MIN_FILE = 4 + 2 + 4  # magic + version + crc


class ModelIOError(Exception):
    """Base class for every model file rejection."""


class BadMagicError(ModelIOError):
    pass


class UnsupportedVersionError(ModelIOError):
    pass


class CrcMismatchError(ModelIOError):
    pass


class TruncatedFileError(ModelIOError):
    pass


class InvalidCodeError(ModelIOError):
    """A code outside {-1, 0, +1} or the reserved 11 bit pair."""


class FormatError(ModelIOError):
    """Structurally malformed content behind a valid CRC."""


# --- byte-level helpers -----------------------------------------------------


class _Writer:
    def __init__(self):
        self.buf = bytearray()

    def u8(self, v):
        self.buf += struct.pack("<B", v)

    def u16(self, v):
        self.buf += struct.pack("<H", v)

    def u32(self, v):
        self.buf += struct.pack("<I", v)

    def f32(self, v):
        self.buf += struct.pack("<f", v)

    def f64(self, v):
        self.buf += struct.pack("<d", v)

    def raw(self, b: bytes):
        self.buf += b

    def str16(self, s: str):
        b = s.encode("utf-8")
        self.u16(len(b))
        self.raw(b)

    def str32(self, s: str):
        b = s.encode("utf-8")
        self.u32(len(b))
        self.raw(b)

    def f32_array(self, a: np.ndarray):
        self.buf += np.ascontiguousarray(a, dtype="<f4").data

    def finish(self) -> bytes:
        self.u32(zlib.crc32(self.buf) & 0xFFFFFFFF)
        return bytes(self.buf)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, only {len(self.data) - self.pos} left"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def f32(self):
        return struct.unpack("<f", self.take(4))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def str16(self) -> str:
        return self._text(self.u16())

    def str32(self) -> str:
        return self._text(self.u32())

    def _text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"string before offset {self.pos} is not UTF-8: {e}") from e

    def flag(self) -> bool:
        v = self.u8()
        if v > 1:
            raise FormatError(f"flag byte {v} before offset {self.pos} is neither 0 nor 1")
        return bool(v)

    def f32_array(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * n), dtype="<f4").copy()

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes after the last layer")


# --- container layout and loader shared by both formats ----------------------


def _write_header(w: _Writer, magic: bytes, model: Model, meta: dict) -> None:
    """Magic, version, arch, metadata (plus a custom arch's specs) and layer count."""
    if model.arch == "custom":
        meta = {**meta, "specs": [s.to_dict() for s in model.specs]}
    w.raw(magic)
    w.u16(FORMAT_VERSION)
    w.str16(model.arch)
    w.str32(json.dumps(meta, sort_keys=True))
    w.u16(len(model.param_layers()))


def _read_header(data: bytes, magic: bytes) -> tuple[_Reader, str, dict, int]:
    """Validate length, magic, CRC and version; return a reader at the first
    layer record, the arch string, the metadata and the layer count."""
    if len(data) < _MIN_FILE:
        raise TruncatedFileError(f"file of {len(data)} bytes is shorter than any valid model file")
    if data[:4] != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {data[:4]!r}")
    stored = struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise CrcMismatchError(f"CRC mismatch: stored {stored:#010x}, computed {actual:#010x}")
    r = _Reader(data[:-4])
    r.take(4)  # magic
    version = r.u16()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    arch = r.str16()
    text = r.str32()
    try:
        meta = json.loads(text)
    # ValueError covers malformed JSON and over-long integer literals;
    # RecursionError, deeply nested arrays.
    except (ValueError, RecursionError) as e:
        raise FormatError(f"bad metadata JSON: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"metadata is a JSON {type(meta).__name__}, not an object")
    return r, arch, meta, r.u16()


def _write_layer_head(w: _Writer, name: str, shape: tuple[int, ...]) -> None:
    w.str16(name)
    w.u8(len(shape))
    for e in shape:
        w.u32(e)


def _specs_from(arch: str, metadata: dict) -> list[LayerSpec]:
    if arch == "custom":
        try:
            return [LayerSpec.from_dict(d) for d in metadata["specs"]]
        except (KeyError, TypeError) as e:
            raise FormatError(f"custom arch without usable specs in metadata: {e}") from e
    try:
        return arch_specs(arch)
    except ValueError as e:
        raise FormatError(str(e)) from e


def _load(data: bytes, magic: bytes, read_layer) -> Model:
    """The model of a file's bytes, built from its layer records with no init drawn.

    Each record is read as Model.from_params asks for its layer: its name
    and weight shape are checked against the spec before the payload is
    read, its bias length and quantized flag once it is. A record that
    differs, or a record too many or too few, is a FormatError.
    read_layer(reader, shape) reads the rest of a record and returns the
    float64 weights, the bias and the layer's quantizer state (None for a
    layer stored unquantized).
    """
    r, arch, meta, nlayers = _read_header(data, magic)
    specs = _specs_from(arch, meta)
    states = []

    def params(spec: LayerSpec, name: str, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        if len(states) == nlayers:
            raise FormatError(f"file has {nlayers} layer records, fewer than arch {arch!r} needs")
        head = (r.str16(), tuple(r.u32() for _ in range(r.u8())))
        if head != (name, shape):
            raise FormatError(
                f"layer record (name, shape) {head} does not match the architecture's {(name, shape)}"
            )
        weights, bias, state = read_layer(r, shape)
        got, want = (bias.size, state is not None), (spec.out_dim, spec.quantized)
        if got != want:
            raise FormatError(
                f"layer record {name!r} (bias length, quantized) {got} does not match "
                f"the architecture's {want}"
            )
        states.append(state)
        return weights, bias.astype(np.float64)

    try:
        model = Model.from_params(specs, arch, params)
    except (ValueError, TypeError) as e:
        raise FormatError(f"unusable layer specs: {e}") from e
    if len(states) != nlayers:
        raise FormatError(f"file has {nlayers} layer records, more than arch {arch!r} has")
    r.expect_end()
    for layer, state in zip(model.param_layers(), states):
        layer.qstate = state
    model.meta = dict(meta)
    return model


# --- checkpoint format ------------------------------------------------------


def checkpoint_to_bytes(model: Model, metadata: dict | None = None) -> bytes:
    if model.packed:
        raise ValueError("a packed model holds codes, not float weights; it has no checkpoint")
    w = _Writer()
    _write_header(w, CHECKPOINT_MAGIC, model, metadata or {})
    for layer in model.param_layers():
        _write_layer_head(w, layer.name, layer.w.shape)
        w.f32_array(layer.w.data)
        w.u32(layer.b.size)
        w.f32_array(layer.b.data)
        st = layer.qstate
        w.u8(st is not None)
        if st is not None:
            for v in (st.delta, st.mu, st.sigma):
                w.f64(v)
    return w.finish()


def _read_checkpoint_layer(r: _Reader, shape: tuple) -> tuple:
    weights = r.f32_array(math.prod(shape)).astype(np.float64).reshape(shape)
    bias = r.f32_array(r.u32())
    if not r.flag():
        return weights, bias, None
    st = QuantizerState(r.f64(), r.f64(), r.f64())
    # A state refreshed from these very weights is derived again, so the
    # loaded model is ready to run. Any other record (never refreshed, or
    # saved after a weight update without a refresh) loads stale, as saved:
    # the forward and the export reject it until refresh_all().
    if np.isfinite(st.sigma) and st.sigma > 0 and layer_stats(weights) == (st.mu, st.sigma):
        refresh(st, weights)
    return weights, bias, st


def checkpoint_from_bytes(data: bytes) -> Model:
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
    """Pack codes in {-1, 0, +1} four per byte, first code in bits 1:0."""
    flat = np.asarray(codes).reshape(-1)
    if flat.size and not np.isin(flat, (-1, 0, 1)).all():
        bad = flat[~np.isin(flat, (-1, 0, 1))][0]
        raise InvalidCodeError(f"code {bad!r} outside {{-1, 0, +1}}")
    u = np.zeros(flat.size, dtype=np.uint8)
    u[flat == 1] = 1
    u[flat == -1] = 2
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
        raise FormatError(f"packed payload of {len(data)} bytes cannot hold {n} codes")
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    b = np.frombuffer(data, dtype=np.uint8)
    # A pair is 11 when its high bit, shifted onto its low bit, meets a set low bit.
    if (b & (b >> 1) & 0x55).any():
        raise InvalidCodeError("reserved 11 bit pair in packed codes")
    # np.take, not fancy indexing: it gathers whole table rows several times faster.
    codes = np.take(_BYTE_CODES, b, axis=0).reshape(-1)
    if codes[n:].any():
        raise FormatError("non-zero padding bit pairs in final byte")
    return codes[:n]


# --- packed model format ----------------------------------------------------


def packed_to_bytes(model: Model) -> bytes:
    w = _Writer()
    _write_header(w, PACKED_MAGIC, model, {})
    for layer in model.param_layers():
        _write_layer_head(w, layer.name, layer.w.shape)
        if layer.qstate is not None:
            if not is_fresh(layer.qstate, layer.w.data):
                raise ValueError(
                    f"stale quantizer state on layer {layer.name}; refresh before exporting"
                )
            w.u8(1)
            w.f32(layer.qstate.scale)
            w.raw(pack_codes(layer.qstate.codes))
        else:
            w.u8(0)
            w.f32_array(layer.w.data)
        w.u32(layer.b.size)
        w.f32_array(layer.b.data)
    return w.finish()


def _read_packed_layer(r: _Reader, shape: tuple) -> tuple:
    n = math.prod(shape)
    if not r.flag():
        return r.f32_array(n).astype(np.float64).reshape(shape), r.f32_array(r.u32()), None
    st = QuantizerState(0.0, scale=r.f32())
    set_codes(st, unpack_codes(r.take((n + 3) // 4), n).reshape(shape).astype(np.float64))
    st.source = st.codes
    return st.codes, r.f32_array(r.u32()), st


def packed_from_bytes(data: bytes) -> Model:
    """A packed Model from the bytes of a TERN file.

    A quantized layer's read-only float64 codes serve as its weights and as
    its quantizer state's codes and source, beside the file's float32 scale,
    so the weight-phase forward computes (x @ codes) * scale + bias. The
    codes are set through set_codes(), as a trained layer's are, so a
    quantized dense layer's live columns follow from them the same way.
    """
    model = _load(data, PACKED_MAGIC, _read_packed_layer)
    model.packed = True
    return model


def load_packed(path) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    return packed_from_bytes(data)


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
