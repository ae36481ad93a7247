#!/usr/bin/env python3
"""Print SHA-256 digests of the files a fixed-seed terntrain CLI run writes.

On mlp-784-300-100-10 and lenet-small, writes synthetic train and test
splits as IDX files and a config per command, then runs `terntrain
pretrain` (one float epoch), `terntrain quantize` (a 3-epoch alternating
ternary run on the pretrain checkpoint) and `terntrain export` through
`cli.main`. It digests the five files they write: both metrics CSVs, both
TNCK checkpoints and the TERN packed file. Running this script on two
versions of the code and comparing the printed lines shows whether a change
kept every output byte identical. The first line, `blas_threads <n>`, is
the OpenBLAS thread count the run used (`None` when numpy's BLAS cannot be
asked); digests compare only at the same count. Takes a few seconds on one
core.

Run from the repository root: PYTHONPATH=src python3 scripts/rerun_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

# The metrics CSV logs losses at full precision, and a multi-threaded BLAS
# can sum in a different order on a host with another core count. One
# thread keeps the digests comparable across hosts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from terntrain import cli  # noqa: E402  after the thread pinning
from terntrain.data import make_synth_mnist, save_idx_images, save_idx_labels  # noqa: E402

ARCHS = ("mlp-784-300-100-10", "lenet-small")
# Passed as --seed, which beats the config file; nothing else sets the seed.
SEED = "3"
SPLITS = {"train": (512, 3), "test": (256, 1003)}  # samples, make_synth_mnist seed
DATA = "".join(f"{s}_{part} = {{root}}/{s}-{part}.idx\n" for s in SPLITS for part in ("images", "labels"))
COMMON = "arch = {arch}\nout_dir = {out}\nnormalize_mean = 0.1307\nnormalize_std = 0.3081\n" + DATA
SETTINGS = {
    "pretrain": "epochs = 1\nweight_opt = vanilla-sgd\nweight_lr = 0.1\n",
    "quantize": (
        "epochs = 3\nweight_opt = sgd-momentum\nweight_lr = 0.02\nweight_momentum = 0.9\n"
        "threshold_opt = vanilla-sgd\nthreshold_lr = 0.0005\ninit_frac = 0.1\n"
        "pretrain_checkpoint = {out}/pretrain.ckpt\n"
    ),
}
# Each digest's kind and the file of the run directory it hashes.
OUTPUTS = {
    "pretrain-csv": "pretrain_metrics.csv", "pretrain-tnck": "pretrain.ckpt",
    "csv": "metrics.csv", "tnck": "ternary.ckpt", "tern": "model.tern",
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _terntrain(*argv: str) -> None:
    """Run one CLI command with its stdout discarded; exit when it fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"rerun_digest: terntrain {argv[0]} exited with code {code}")


def run(arch: str, root: str) -> dict:
    out = os.path.join(root, arch)
    for command, settings in SETTINGS.items():
        cfg = os.path.join(root, f"{arch}.{command}.cfg")
        with open(cfg, "w") as fh:
            fh.write((COMMON + settings).format(arch=arch, out=out, root=root))
        _terntrain(command, "--config", cfg, "--seed", SEED)
    _terntrain("export", "--checkpoint", os.path.join(out, "ternary.ckpt"), "--out", os.path.join(out, "model.tern"))
    return {kind: _sha(os.path.join(out, name)) for kind, name in OUTPUTS.items()}


def main():
    print(f"blas_threads {cli.blas_threads()}")
    with tempfile.TemporaryDirectory() as root:
        for split, (n, seed) in SPLITS.items():
            images, labels = make_synth_mnist(n, seed=seed)
            save_idx_images(os.path.join(root, f"{split}-images.idx"), images)
            save_idx_labels(os.path.join(root, f"{split}-labels.idx"), labels)
        for arch in ARCHS:
            for kind, digest in run(arch, root).items():
                print(f"{arch} {kind} {digest}")


if __name__ == "__main__":
    main()
