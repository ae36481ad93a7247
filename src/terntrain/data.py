"""Dataset ingestion: IDX image files, CSV feature files, synthetic fixtures.

IDX files are the plain big-endian format: magic 0x00000803 for 3-D image
files (N, H, W of unsigned bytes), 0x00000801 for label files. Pixels are
scaled to [0, 1] and then normalized by the configured mean/std.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


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


def load_idx(images_path, labels_path, mean: float = 0.0, std: float = 1.0) -> Dataset:
    """Load an IDX image/label pair as a normalized N x 1 x H x W dataset."""
    if std <= 0:
        raise DataError(f"std must be positive, got {std}")
    with open(images_path, "rb") as fh:
        (magic,) = _read_u32s(fh, 1, images_path)
        if magic != IDX_IMAGES_MAGIC:
            raise DataError(
                f"{images_path}: bad IDX image magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}"
            )
        n, h, w = _read_u32s(fh, 3, images_path)
        raw = fh.read(n * h * w)
        if len(raw) != n * h * w:
            raise DataError(f"{images_path}: expected {n * h * w} pixel bytes, got {len(raw)}")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w)
    with open(labels_path, "rb") as fh:
        (magic,) = _read_u32s(fh, 1, labels_path)
        if magic != IDX_LABELS_MAGIC:
            raise DataError(
                f"{labels_path}: bad IDX label magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}"
            )
        (n_labels,) = _read_u32s(fh, 1, labels_path)
        raw = fh.read(n_labels)
        if len(raw) != n_labels:
            raise DataError(f"{labels_path}: expected {n_labels} label bytes, got {len(raw)}")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if n != n_labels:
        raise DataError(f"image count {n} does not match label count {n_labels}")
    images = (pixels.astype(np.float64) / 255.0 - mean) / std
    return Dataset(images, labels, mean, std)


def save_idx_images(path, images: np.ndarray) -> None:
    """Write N x H x W uint8 images in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise DataError(f"expected N x H x W uint8 images, got shape {images.shape}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def load_csv(path) -> Dataset:
    """Load rows of "label,f1,...,fD"; the header line is optional."""
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
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
    pixel_noise = rng.normal(0.0, noise, size=(n, 28, 28))
    for i in range(n):
        img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(0, 1))
        img = img * gains[i] * 170.0 + pixel_noise[i]
        images[i] = np.clip(img, 0, 255).astype(np.uint8)
    return images, labels


def make_two_moons(n: int, seed: int = 0, noise: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved half-circles in 2-D; labels 0/1."""
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0, np.pi, n0)
    t1 = rng.uniform(0, np.pi, n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([x0, x1]) + rng.normal(0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    perm = rng.permutation(n)
    return x[perm], y[perm]
