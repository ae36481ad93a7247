#!/usr/bin/env python3
"""Print SHA-256 digests of a fixed-seed training run's output files.

On mlp-784-300-100-10 and lenet-small, builds a model, pretrains it in
float for one epoch, runs a 3-epoch alternating ternary train(), and
digests both phases' metrics CSVs and TNCK checkpoints (as `terntrain
pretrain` and `quantize` write them) and the TERN packed file. Running this script on
two versions of the code and comparing the printed lines shows whether a
change kept every output byte identical. The first line, `blas_threads <n>`,
is the OpenBLAS thread count the run used (`None` when numpy's BLAS cannot
be asked); digests compare only at the same count. Takes a few seconds on
one core.

Run from the repository root: PYTHONPATH=src python3 scripts/rerun_digest.py
"""

import hashlib
import os
import tempfile

# The metrics CSV logs losses at full precision, and a multi-threaded BLAS
# can sum in a different order on a host with another core count. One
# thread keeps the digests comparable across hosts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  after the thread pinning

from terntrain.cli import blas_threads
from terntrain.data import Dataset, make_synth_mnist
from terntrain.modelio import checkpoint_to_bytes, export_packed
from terntrain.network import build_from_config
from terntrain.optim import OptimizerConfig
from terntrain.trainer import make_train_state, pretrain, train

ARCHS = ("mlp-784-300-100-10", "lenet-small")
SEED = 3
N_TRAIN, N_TEST = 512, 256
NORM_MEAN, NORM_STD = 0.1307, 0.3081


def _dataset(n: int, seed: int) -> Dataset:
    images, labels = make_synth_mnist(n, seed=seed)
    x = (images.astype(np.float64) / 255.0 - NORM_MEAN) / NORM_STD
    return Dataset(x.reshape(n, 1, 28, 28), labels, NORM_MEAN, NORM_STD)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run(arch: str, seed: int, out_dir: str) -> dict:
    train_ds, test_ds = _dataset(N_TRAIN, seed), _dataset(N_TEST, seed + 1000)
    model = build_from_config(arch, seed=seed)
    pretrain_csv = os.path.join(out_dir, f"{arch}.pretrain.csv")
    rows = pretrain(
        model,
        train_ds,
        OptimizerConfig(kind="vanilla-sgd", lr=0.1),
        epochs=1,
        seed=seed,
        test_dataset=test_ds,
        csv_path=pretrain_csv,
    )
    # The metadata `terntrain pretrain` writes into pretrain.ckpt.
    pretrain_ckpt = checkpoint_to_bytes(
        model,
        metadata={
            "kind": "pretrain",
            "epochs": 1,
            "seed": seed,
            "final_train_accuracy": rows[-2]["accuracy"],
            "final_test_accuracy": rows[-1]["accuracy"],
        },
    )
    model.init_thresholds(0.1)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.02, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0),
        seed=seed,
    )
    csv_path = os.path.join(out_dir, f"{arch}.csv")
    metrics = train(state, train_ds, epochs=3, test_dataset=test_ds, csv_path=csv_path)
    # The metadata `terntrain quantize` writes into ternary.ckpt.
    ckpt = checkpoint_to_bytes(
        model,
        metadata={
            "kind": "ternary",
            "epochs": 3,
            "seed": seed,
            "grad_correctness": state.grad_correctness,
            "final_test_accuracy": metrics[-1]["accuracy"],
        },
    )
    tern_path = os.path.join(out_dir, f"{arch}.tern")
    export_packed(model, tern_path)
    return {
        "pretrain-csv": _sha(_read(pretrain_csv)),
        "pretrain-tnck": _sha(pretrain_ckpt),
        "csv": _sha(_read(csv_path)),
        "tnck": _sha(ckpt),
        "tern": _sha(_read(tern_path)),
    }


def main():
    print(f"blas_threads {blas_threads()}")
    with tempfile.TemporaryDirectory() as out_dir:
        for arch in ARCHS:
            for kind, digest in run(arch, SEED, out_dir).items():
                print(f"{arch} {kind} {digest}")


if __name__ == "__main__":
    main()
