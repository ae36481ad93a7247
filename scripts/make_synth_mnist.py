#!/usr/bin/env python3
"""Generate the synthetic MNIST-shaped IDX fixtures used by the desk-scale runs.

The default seeds, 111 and 211, give the splits of desk seed 11: the desk
draws seed s's train and test splits from seeds 100 + s and 200 + s.
"""

import argparse
import os

from terntrain.data import make_synth_mnist, save_idx_images, save_idx_labels


def _count(text: str) -> int:
    """A sample count: an integer of 1 or more, since every command rejects an empty split."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of 1 or more, got {text!r}")
    return n


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--train", type=_count, default=5000)
    parser.add_argument("--test", type=_count, default=1000)
    parser.add_argument("--train-seed", type=int, default=111)
    parser.add_argument("--test-seed", type=int, default=211)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for split, n, seed in (("train", args.train, args.train_seed), ("test", args.test, args.test_seed)):
        images, labels = make_synth_mnist(n, seed=seed)
        save_idx_images(os.path.join(args.out_dir, f"{split}-images.idx"), images)
        save_idx_labels(os.path.join(args.out_dir, f"{split}-labels.idx"), labels)
        print(f"{split}: {n} samples -> {args.out_dir}/{split}-{{images,labels}}.idx")


if __name__ == "__main__":
    main()
