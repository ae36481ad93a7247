#!/usr/bin/env python3
"""Time batch-1 packed inference when every request sees changed file bytes.

`load_packed_and_infer` decodes a TERN file again only when its bytes
differ from the last file it decoded. This script exports two files of each
of mlp-784-300-100-10 and lenet-small (trained like the benchmark's
workloads, from seeds 1 and 2) and sends batch-1 requests that alternate
between the two, so that every timed request reads, checks, decodes and
loads a file before its forward. It prints, per arch, the median and 90th
percentile request latency and each file's count of all-zero code columns
(dense layers) or filters (conv layers). Takes about ten seconds on one
core.

Run from the repository root: PYTHONPATH=src python3 scripts/serve_changed_bytes.py
"""

import os
import tempfile
import time

# One BLAS thread, as the benchmark runs: a batch-1 request is too small to
# gain from more, and thread start-up would add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  after the thread pinning

from terntrain.data import Dataset, make_synth_mnist
from terntrain.modelio import export_packed, load_packed, load_packed_and_infer
from terntrain.network import build_from_config
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import dead_outputs
from terntrain.trainer import make_train_state, pretrain, train

ARCHS = {"mlp-784-300-100-10": 2048, "lenet-small": 768}  # training samples, as in the benchmark
SEEDS = (1, 2)
N_TEST = 256
NORM_MEAN, NORM_STD = 0.2647, 0.2075
WARMUP, TIMED = 100, 1400


def _dataset(n: int, seed: int) -> Dataset:
    images, labels = make_synth_mnist(n, seed=seed)
    x = (images.astype(np.float64) / 255.0 - NORM_MEAN) / NORM_STD
    return Dataset(x.reshape(n, 1, 28, 28), labels, NORM_MEAN, NORM_STD)


def export_trained(arch: str, n_train: int, seed: int, path: str) -> None:
    """3 float epochs, then 4 ternary epochs with the pinned optimizers."""
    ds = _dataset(n_train, seed)
    model = build_from_config(arch, seed=seed)
    for e in range(3):
        pretrain(model, ds, OptimizerConfig(kind="vanilla-sgd", lr=0.1), epochs=1, seed=seed + e)
    model.init_thresholds(0.1)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.02, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0),
        seed=seed,
    )
    train(state, ds, epochs=4)
    export_packed(model, path)


def dead_units(path: str) -> list[str]:
    """Per quantized layer, all-zero output units out of all, read from the file."""
    out = []
    for layer in load_packed(path).quantized_layers():
        codes = layer.qstate.codes
        units = codes.shape[1] if codes.ndim == 2 else codes.shape[0]
        out.append(f"{layer.name} {dead_outputs(codes)}/{units}")
    return out


def time_requests(paths: list[str], images: np.ndarray) -> np.ndarray:
    """Milliseconds per request over TIMED requests, alternating files."""
    times = []
    for i in range(WARMUP + TIMED):
        x = images[i % len(images)][None]
        t0 = time.perf_counter()
        load_packed_and_infer(paths[i % 2], x)
        if i >= WARMUP:
            times.append(time.perf_counter() - t0)
    return 1e3 * np.asarray(times)


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        for arch, n_train in ARCHS.items():
            paths = []
            for seed in SEEDS:
                paths.append(os.path.join(out_dir, f"{arch}-{seed}.tern"))
                export_trained(arch, n_train, seed, paths[-1])
            images = _dataset(N_TEST, 10_000).images
            if arch.startswith("mlp-"):
                images = images.reshape(N_TEST, -1)
            ms = time_requests(paths, images)
            print(f"{arch} p50_ms {np.percentile(ms, 50):.4f} p90_ms {np.percentile(ms, 90):.4f} "
                  f"requests {ms.size}")
            for seed, path in zip(SEEDS, paths):
                print(f"  file seed {seed}: dead units {', '.join(dead_units(path))}")


if __name__ == "__main__":
    main()
