import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terntrain.data import (
    DataError,
    Dataset,
    load_idx,
    make_synth_mnist,
    save_idx_images,
    save_idx_labels,
)


@pytest.fixture
def idx_fixture(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    labels = np.array([3, 1, 4, 1], dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    save_idx_images(img_path, images)
    save_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


def test_load_idx_fixture(idx_fixture):
    img_path, lbl_path, images, labels = idx_fixture
    ds = load_idx(img_path, lbl_path)
    assert ds.images.shape == (4, 1, 28, 28)
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.images[:, 0], images / 255.0)


def test_load_idx_normalization(idx_fixture, tmp_path):
    save_idx_images(tmp_path / "one.idx", np.full((1, 2, 2), 255, dtype=np.uint8))
    save_idx_labels(tmp_path / "one_lbl.idx", np.array([0]))
    ds = load_idx(tmp_path / "one.idx", tmp_path / "one_lbl.idx", mean=0.0, std=1.0)
    assert ds.images.max() == 1.0
    ds2 = load_idx(tmp_path / "one.idx", tmp_path / "one_lbl.idx", mean=0.5, std=0.25)
    assert ds2.images.max() == pytest.approx((1.0 - 0.5) / 0.25)


def test_load_idx_count_mismatch(idx_fixture, tmp_path):
    img_path, _, _, _ = idx_fixture
    save_idx_labels(tmp_path / "short.idx", np.array([1, 2]))
    with pytest.raises(DataError, match="match"):
        load_idx(img_path, tmp_path / "short.idx")


def test_load_idx_bad_magic(tmp_path, idx_fixture):
    _, lbl_path, _, _ = idx_fixture
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000901, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataError, match="magic"):
        load_idx(bad, lbl_path)


def test_load_idx_truncated_pixels(tmp_path, idx_fixture):
    _, lbl_path, _, _ = idx_fixture
    bad = tmp_path / "trunc.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000803, 4, 28, 28) + b"\x00" * 100)
    with pytest.raises(DataError, match="pixel"):
        load_idx(bad, lbl_path)


@pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (2**20, 2**12, 2**12)], ids=["overflowing", "oversized"])
def test_load_idx_header_claiming_more_than_the_file_holds(tmp_path, idx_fixture, dims):
    _, lbl_path, _, _ = idx_fixture
    bad = tmp_path / "big.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000803, *dims) + b"\x00" * 64)
    with pytest.raises(DataError, match=f"claim {math.prod(dims)} pixel bytes, the file holds 64"):
        load_idx(bad, lbl_path)


def test_load_idx_rejects_bytes_after_the_payload(tmp_path, idx_fixture):
    # A header that undercounts its images would otherwise load a prefix.
    _, lbl_path, _, _ = idx_fixture
    bad = tmp_path / "long.idx"
    bad.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(12) + bytes(100))
    message = f"{bad}: header dims (3, 2, 2) claim 12 pixel bytes, the file holds 112"
    with pytest.raises(DataError, match=re.escape(message)):
        load_idx(bad, lbl_path)


def test_save_idx_labels_rejects_labels_that_are_not_1d(tmp_path):
    path = tmp_path / "lbl.idx"
    with pytest.raises(DataError, match=r"expected N uint8 labels, got shape \(3, 2\)"):
        save_idx_labels(path, [[1, 2], [3, 4], [5, 6]])
    assert not path.exists()


@pytest.mark.parametrize(
    "save, values",
    [
        (save_idx_labels, [300, -1]),
        (save_idx_labels, np.array([3.0, np.nan])),
        (save_idx_images, np.full((1, 2, 2), 256)),
        (save_idx_images, -np.ones((1, 2, 2), dtype=np.int64)),
    ],
    ids=["labels-above-and-below", "labels-nan", "images-above", "images-below"],
)
def test_save_idx_rejects_values_outside_a_byte(tmp_path, save, values):
    path = tmp_path / "out.idx"
    with pytest.raises(DataError, match="must lie in 0..255"):
        save(path, values)
    assert not path.exists()


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3)), np.zeros(3, dtype=int))
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3)), np.array([-1, 0]))


def test_make_synth_mnist_deterministic():
    img1, lbl1 = make_synth_mnist(32, seed=5)
    img2, lbl2 = make_synth_mnist(32, seed=5)
    assert np.array_equal(img1, img2)
    assert np.array_equal(lbl1, lbl2)
    assert img1.shape == (32, 28, 28)
    assert img1.dtype == np.uint8
    assert set(np.unique(lbl1)) <= set(range(10))


def test_make_synth_mnist_idx_roundtrip(tmp_path):
    images, labels = make_synth_mnist(16, seed=6)
    save_idx_images(tmp_path / "img.idx", images)
    save_idx_labels(tmp_path / "lbl.idx", labels)
    ds = load_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
    assert ds.images.shape == (16, 1, 28, 28)
    assert np.array_equal(ds.labels, labels)


def reference_synth_mnist(n, seed=0, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55):
    """make_synth_mnist as one np.roll, one scale and one clip per image:
    the bytes the blocked generator must reproduce."""
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


def assert_same_split(got, want):
    (images, labels), (ref_images, ref_labels) = got, want
    assert images.dtype == ref_images.dtype and images.shape == ref_images.shape
    assert images.tobytes() == ref_images.tobytes()
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)


# The block edges, and the benchmark's test split at the default difficulty.
@example(n=0, seed=0, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55)
@example(n=255, seed=1, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55)
@example(n=256, seed=2, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55)
@example(n=257, seed=3, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55)
@example(n=4096, seed=10001, proto_seed=7, noise=50.0, max_shift=4, gain_lo=0.55)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    proto_seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.0, 80.0),
    max_shift=st.integers(0, 40),
    gain_lo=st.floats(0.0, 1.0),
)
def test_make_synth_mnist_matches_the_per_sample_loop(n, seed, proto_seed, noise, max_shift, gain_lo):
    kwargs = dict(seed=seed, proto_seed=proto_seed, noise=noise, max_shift=max_shift, gain_lo=gain_lo)
    assert_same_split(make_synth_mnist(n, **kwargs), reference_synth_mnist(n, **kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, noise=-1.0),
        dict(n=300, noise=-1.0),
        dict(n=3, max_shift=-1),
        dict(n=3, gain_lo=1.5),
        dict(n=0, gain_lo=1.5),
        dict(n=-1),
    ],
    ids=["noise-below-0-n0", "noise-below-0", "shift-below-0", "gain-lo-above-1", "gain-lo-above-1-n0", "n-below-0"],
)
def test_make_synth_mnist_rejects_what_the_per_sample_loop_rejects(kwargs):
    with pytest.raises(Exception) as want:
        reference_synth_mnist(**kwargs)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        make_synth_mnist(**kwargs)


def test_make_synth_mnist_memory_is_bounded_by_a_block():
    """Beyond its output, the generator holds about one block of float64
    pixels and noise, not an N x 28 x 28 float64 array (25.7 MB at N = 4096)."""
    tracemalloc.start()
    try:
        images, labels = make_synth_mnist(4096, seed=10001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - images.nbytes - labels.nbytes) / 1e6 < 8.0
