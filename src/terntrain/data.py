"""Dataset ingestion: IDX image files, CSV feature files, a synthetic MNIST-like fixture.

A run's config names each split as one CSV file or one IDX image/label
pair, and its keys pick the loader. IDX files are the plain big-endian
format: magic 0x00000803 for 3-D image files (N, H, W of unsigned bytes),
0x00000801 for label files. A header whose sizes claim other than the bytes
its file holds is rejected before any payload is read. Pixels are scaled to
[0, 1] and then normalized by the configured mean (which the config holds
to [0, 1]) and std; a normalized pixel that is not finite is rejected. CSV
features are read as they are; CSV labels must be whole numbers that a
64-bit integer holds.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
_INT64 = np.iinfo(np.int64)
_SYNTH_BLOCK = 256  # samples per block of make_synth_mnist


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass
class Dataset:
    images: np.ndarray  # float64, N x C x H x W or N x D
    labels: np.ndarray  # int64
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) == 0:
            raise DataError("dataset is empty")
        if len(self.images) != len(self.labels):
            raise DataError(
                f"{len(self.images)} samples but {len(self.labels)} labels"
            )
        if self.labels.min() < 0:
            raise DataError("negative class label")

    def __len__(self) -> int:
        return len(self.images)


def _read_u32s(fh, count: int, path) -> tuple[int, ...]:
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise DataError(f"{path}: truncated IDX header")
    return struct.unpack(f">{count}I", raw)


# What one payload byte of each IDX file kind is, for error messages.
_IDX_UNITS = {IDX_IMAGES_MAGIC: "pixel", IDX_LABELS_MAGIC: "label"}


def _read_idx(path, magic: int, rank: int) -> np.ndarray:
    """The uint8 array of a rank-D IDX file with this magic.

    The payload its header claims must be exactly the bytes left in the
    file. That is checked before any of it is read, so a corrupt header
    cannot ask for more memory than the file holds, and a header that
    undercounts cannot load a silent prefix of the file.
    """
    unit = _IDX_UNITS[magic]
    with open(path, "rb") as fh:
        (found,) = _read_u32s(fh, 1, path)
        if found != magic:
            raise DataError(f"{path}: bad IDX magic {found:#010x}, expected {magic:#010x}")
        dims = _read_u32s(fh, rank, path)
        size = math.prod(dims)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != left:
            raise DataError(f"{path}: header dims {dims} claim {size} {unit} bytes, the file holds {left}")
        return np.frombuffer(fh.read(size), dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path, mean: float = 0.0, std: float = 1.0) -> Dataset:
    """Load an IDX image/label pair as a normalized N x 1 x H x W dataset."""
    if std <= 0:
        raise DataError(f"std must be positive, got {std}")
    pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(pixels) != len(labels):
        raise DataError(f"image count {len(pixels)} does not match label count {len(labels)}")
    with np.errstate(over="ignore"):  # a tiny std overflows; the check below names it
        images = (pixels[:, None].astype(np.float64) / 255.0 - mean) / std
    if not np.isfinite(images).all():
        raise DataError(f"{images_path}: mean {mean!r} and std {std!r} normalize pixels to non-finite values")
    return Dataset(images, labels, mean, std)


def _as_bytes(values, what: str) -> np.ndarray:
    """values as uint8; a DataError when one lies outside 0..255 (or is NaN)."""
    values = np.asarray(values)
    if values.size and not (values.min() >= 0 and values.max() <= 255):
        raise DataError(f"{what} must lie in 0..255, got values in [{values.min()}, {values.max()}]")
    return values.astype(np.uint8)


def save_idx_images(path, images: np.ndarray) -> None:
    """Write N x H x W images of values in 0..255 in IDX format."""
    images = _as_bytes(images, "images")
    if images.ndim != 3:
        raise DataError(f"expected N x H x W uint8 images, got shape {images.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    """Write N labels in 0..255 in IDX format."""
    labels = _as_bytes(labels, "labels")
    if labels.ndim != 1:
        raise DataError(f"expected N uint8 labels, got shape {labels.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def load_csv(path) -> Dataset:
    """Load rows of "label,f1,...,fD"; the header line is optional."""
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, "rb") as fh:
        # bytes.splitlines breaks at \n, \r\n and \r, as reading in text mode does.
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise DataError(f"{path}: line {lineno}: not UTF-8 text: {e}") from e
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1:
                try:
                    float(parts[0])
                except ValueError:
                    continue  # header
            if len(parts) < 2:
                raise DataError(f"{path}: line {lineno}: need a label and at least one feature")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DataError(
                    f"{path}: line {lineno}: ragged row, {len(parts)} fields where {width} expected"
                )
            try:
                label = float(parts[0])
                row = [float(p) for p in parts[1:]]
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: {e}") from e
            if not label.is_integer():
                raise DataError(f"{path}: line {lineno}: label {parts[0]!r} is not a whole number")
            if not _INT64.min <= label <= _INT64.max:
                raise DataError(f"{path}: line {lineno}: label {parts[0]!r} does not fit a 64-bit integer")
            bad = [p for p, v in zip(parts[1:], row) if not math.isfinite(v)]
            if bad:
                raise DataError(f"{path}: line {lineno}: feature {bad[0]!r} is not a finite number")
            labels.append(int(label))
            features.append(row)
    if not features:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.asarray(features), np.asarray(labels))


def make_synth_mnist(
    n: int,
    seed: int = 0,
    proto_seed: int = 7,
    noise: float = 50.0,
    max_shift: int = 4,
    gain_lo: float = 0.55,
) -> tuple[np.ndarray, np.ndarray]:
    """MNIST-shaped synthetic 10-class images: N x 28 x 28 uint8 plus labels.

    Each class is a fixed low-frequency prototype drawn from proto_seed, so
    splits generated with different sample seeds share the same classes.
    Samples are randomly shifted, intensity-jittered and noised; the default
    difficulty leaves a trained float MLP in the mid-90s on held-out data
    rather than at ceiling, so accuracy comparisons have headroom.

    Images are built in blocks of _SYNTH_BLOCK samples. All labels, shifts
    and gains are drawn first; the pixel noise follows, block by block in
    sample order, which is the same stream as one draw for all N. So the
    bytes are those of rolling, scaling and noising one image at a time,
    while memory beyond the output is bounded by one block.
    """
    rng = np.random.default_rng(seed)
    protos = np.kron(np.random.default_rng(proto_seed).normal(size=(10, 7, 7)), np.ones((4, 4)))
    lo = protos.min(axis=(1, 2), keepdims=True)
    hi = protos.max(axis=(1, 2), keepdims=True)
    protos = (protos - lo) / (hi - lo)  # each prototype in [0, 1]

    labels = rng.integers(0, 10, size=n)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    gains = rng.uniform(gain_lo, 1.0, size=n)
    pixel = np.arange(28)
    # At n = 0 one empty block is still drawn, so a negative noise raises as a single draw would.
    for start in range(0, max(n, 1), _SYNTH_BLOCK):
        stop = min(start + _SYNTH_BLOCK, n)
        # np.roll by (r, c) reads pixel ((i - r) % 28, (j - c) % 28).
        rows = (pixel - shifts[start:stop, :1]) % 28
        cols = (pixel - shifts[start:stop, 1:]) % 28
        block = protos[labels[start:stop, None, None], rows[:, :, None], cols[:, None, :]]
        block *= gains[start:stop, None, None]
        block *= 170.0
        block += rng.normal(0.0, noise, size=(stop - start, 28, 28))
        images[start:stop] = np.clip(block, 0, 255, out=block)
    return images, labels

