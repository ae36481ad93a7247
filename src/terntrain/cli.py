"""Operator surface: pretrain, quantize, eval, export, gradcheck, inspect.

pretrain and quantize share one run path and one fit, trainer.train(), one
epoch per call: pretrain trains a float train state on a fresh model,
quantize a ternary one on the pretrain checkpoint. This module writes every
file of a run directory; the trainer opens none. Each of their flags stores
its text under a RunConfig field name and is checked by that key's parser
like a value in the file, and beats the file. gradcheck's --seed goes
through the seed key's parser too. The settings, the checkpoint (whose arch
must be the config's) and both data splits load before the run directory is
written, so a bad input leaves no run record behind. A split's keys pick its
format, CSV or IDX. export prints its report.

Exit codes: 0 success, 1 usage/config error, 2 runtime/training failure
(an allocation that fails included), 3 gradcheck failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .autograd import no_grad
from .config import ConfigError, RunConfig, parse_config, parse_value
from .data import DataError, Dataset, load_csv, load_idx
from .gradcheck import run_suite, suite_passed
from .modelio import ModelIOError, export_packed, load_checkpoint, save_checkpoint
from .network import FLOAT_MODE, Model, build_from_config
from .ternarize import sparsity
from .trainer import DivergenceError, TrainState, eval_loss_acc, make_train_state, train


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def build_id() -> str:
    """Version plus the git revision when one is discoverable."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return f"terntrain-{__version__}+g{proc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"terntrain-{__version__}"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded; None when it is not
    OpenBLAS or cannot be asked. Reruns sum in the same order only at the
    same count."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _open_checkpoint(path: str, arch: str | None = None) -> Model:
    """The checkpoint's model; given a config's arch, a checkpoint of another arch is a config error."""
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    model = load_checkpoint(path)
    if arch is not None and model.arch != arch:
        raise ConfigError(f"config arch {arch!r} is not the arch {model.arch!r} of checkpoint {path}")
    return model


def _load_split(cfg: RunConfig, split: str, model: Model, required: bool = True) -> Dataset | None:
    """A split's dataset (None for an unnamed optional split). Its keys pick its
    format: {split}_csv a CSV file, {split}_images and {split}_labels an IDX
    pair. Naming both kinds, or one key of the pair, is a config error. Its
    samples must fit model, as a float forward of the first one shows, and each
    label must index one of its logits."""
    table, images, labels = (getattr(cfg, f"{split}_{kind}") for kind in ("csv", "images", "labels"))
    if table and (images or labels):
        raise ConfigError(f"config names {split}_csv beside an IDX key of the {split} split; name one kind")
    if table:
        ds = load_csv(table)
    elif images and labels:
        ds = load_idx(images, labels, cfg.normalize_mean, cfg.normalize_std)
    elif images or labels:
        missing = f"{split}_labels" if images else f"{split}_images"
        raise ConfigError(f"config must name {split}_images and {split}_labels; {missing} is not set")
    elif required:
        raise ConfigError(f"config must name {split}_csv, or {split}_images and {split}_labels")
    else:
        return None
    try:
        with no_grad():
            classes = model.forward(ds.images[:1], FLOAT_MODE).shape[1]
    except ValueError as e:
        raise DataError(
            f"{split} split: samples of shape {ds.images.shape[1:]} do not fit arch {model.arch!r}: {e}"
        ) from e
    top = int(ds.labels.max())
    if top >= classes:
        raise DataError(f"{split} split: label {top} is not one of the model's {classes} classes")
    return ds


def _last_accuracy(metrics: list[dict], split: str) -> float | None:
    """The accuracy of a split's last metric row; None when it has no row."""
    for row in reversed(metrics):
        if row["split"] == split:
            return row["accuracy"]
    return None


# Every file a training command writes in out_dir: its run record, metrics
# CSV, checkpoint and divergence dump. No two commands share a name, so a run
# removes no file of the other command's run in the same directory.
_OUTPUTS = {
    "pretrain": ("pretrain_run_info.json", "pretrain_metrics.csv", "pretrain.ckpt", "pretrain_divergence_dump.json"),
    "quantize": ("run_info.json", "metrics.csv", "ternary.ckpt", "divergence_dump.json"),
}


def _append_csv(path, rows: list[dict]) -> None:
    """Append one epoch's rows to the CSV at path, below a header when the file is new."""
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        if not exists:
            writer.writeheader()
        writer.writerows(rows)


def _train_state(cfg: RunConfig, command: str) -> TrainState:
    """pretrain: a float state on a fresh model. quantize: a ternary state on the pretrain
    checkpoint, refreshed at its initial thresholds, so a degenerate layer fails here."""
    if command == "pretrain":
        model = build_from_config(cfg.arch, seed=cfg.seed)
        return make_train_state(model, cfg.weight_optimizer(), seed=cfg.seed)
    if not cfg.pretrain_checkpoint:
        raise ConfigError("quantize needs a pretrain checkpoint (--checkpoint or config)")
    model = _open_checkpoint(cfg.pretrain_checkpoint, cfg.arch)
    if not model.quantized_layers():
        raise ConfigError(f"architecture {model.arch!r} has no quantized layers")
    model.init_thresholds(cfg.init_frac)
    model.refresh_all()
    try:
        return make_train_state(
            model,
            cfg.weight_optimizer(),
            cfg.threshold_optimizer(),
            seed=cfg.seed,
            schedule=cfg.lr_schedule,
            grad_correctness=cfg.grad_correctness,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _metadata(cfg: RunConfig, state: TrainState) -> dict:
    """The checkpoint's run record; a float run adds its last train accuracy, a ternary one grad_correctness."""
    meta = {"epochs": cfg.epochs, "seed": cfg.seed, "final_test_accuracy": _last_accuracy(state.metrics, "test")}
    if state.threshold_opt is None:
        return {"kind": "pretrain", **meta, "final_train_accuracy": _last_accuracy(state.metrics, "train")}
    return {"kind": "ternary", **meta, "grad_correctness": cfg.grad_correctness}


def cmd_run(args) -> int:
    """The one path of pretrain and quantize: a float or a ternary train state through one fit.

    Settings, train state and both data splits load before anything is
    written, so a bad input leaves no run directory behind. The run then
    removes a stale metrics CSV and divergence dump, but keeps an old
    checkpoint until it saves its own, so a rerun that diverges leaves the
    last good model. Each epoch's rows reach the CSV as the epoch ends.
    """
    cfg = parse_config(args.config, {f.name: getattr(args, f.name, None) for f in fields(RunConfig)})
    state = _train_state(cfg, args.command)
    train_ds = _load_split(cfg, "train", state.model)
    test_ds = _load_split(cfg, "test", state.model, required=False)
    out = cfg.out_dir
    info_path, csv_path, ckpt_path, dump_path = (os.path.join(out, name) for name in _OUTPUTS[args.command])
    os.makedirs(out, exist_ok=True)
    for stale in (csv_path, dump_path):
        if os.path.exists(stale):
            os.remove(stale)
    info = {
        "command": args.command,
        "seed": cfg.seed,
        "build_id": build_id(),
        "blas_threads": blas_threads(),
        "config": cfg.to_dict(),
    }
    with open(info_path, "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    try:
        for _ in range(cfg.epochs):
            logged = len(state.metrics)
            train(state, train_ds, 1, batch_size=cfg.batch_size, test_dataset=test_ds)
            _append_csv(csv_path, state.metrics[logged:])
    except DivergenceError as e:
        try:
            with open(dump_path, "w") as fh:
                json.dump({"error": str(e), "context": e.dump}, fh, indent=2)
        except OSError:
            pass
        raise
    meta = _metadata(cfg, state)
    save_checkpoint(state.model, ckpt_path, meta)
    print(f"{args.command} done: checkpoint={ckpt_path}")
    split = "test" if meta["final_test_accuracy"] is not None else "train"
    if meta.get(f"final_{split}_accuracy") is not None:
        print(f"final {split} accuracy={meta[f'final_{split}_accuracy']:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = parse_config(args.config)
    model = _open_checkpoint(args.checkpoint, cfg.arch)
    ds = _load_split(cfg, args.split, model)
    acc = eval_loss_acc(model, ds, args.mode)[1]
    print(f"mode={args.mode} split={args.split} accuracy={acc:.6f}")
    return 0


def cmd_export(args) -> int:
    model = _open_checkpoint(args.checkpoint)
    model.refresh_all()
    report = export_packed(model, args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=parse_value("seed", args.seed))
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.max_err:.3e} tol={r.tol:.1e}")
    if suite_passed(results):
        print(f"gradcheck: all {len(results)} checks passed")
        return 0
    print("gradcheck: FAILURES detected", file=sys.stderr)
    return 3


def _skewness(w: np.ndarray) -> float:
    mu = w.mean()
    sd = w.std()
    if sd == 0:
        return 0.0
    return float(np.mean(((w - mu) / sd) ** 3))


def _print_histogram(w: np.ndarray, bins: int = 32, width: int = 50) -> None:
    counts, edges = np.histogram(w, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    for i in range(bins):
        bar = "#" * int(round(width * counts[i] / peak))
        print(f"  [{edges[i]:+.4f}, {edges[i + 1]:+.4f}) {counts[i]:>8d} {bar}")


def cmd_inspect(args) -> int:
    model = _open_checkpoint(args.checkpoint)
    model.refresh_all()
    print(f"arch={model.arch} params={model.num_params()}")
    for layer in model.param_layers():
        w = layer.w.data
        print(f"\nlayer {layer.name} shape={tuple(layer.w.shape)} params={w.size}")
        line = f"  mean={w.mean():+.6f} std={w.std():.6f} skewness={_skewness(w):+.4f}"
        if layer.qstate is not None:
            st = layer.qstate
            line += (
                f"\n  delta={st.delta:+.6f} delta_c={st.delta_c:.6f} "
                f"scale={st.scale:+.6f} sparsity={sparsity(st.codes):.4f}"
            )
        print(line)
        _print_histogram(w.reshape(-1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="terntrain", description=__doc__)
    parser.add_argument("--version", action="version", version=f"terntrain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each pretrain/quantize flag stores its text under its config key, a RunConfig field name.
    def run_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value run config file")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--epochs")
        p.add_argument("--out-dir")
        p.set_defaults(func=cmd_run)
        return p

    run_parser("pretrain", "train the full-precision baseline")
    p = run_parser("quantize", "alternating ternary training from a pretrain checkpoint")
    p.add_argument("--checkpoint", dest="pretrain_checkpoint", help="pretrain checkpoint path")
    p.add_argument("--init-frac", help="threshold init as a fraction of max|w|")
    p.add_argument(
        "--no-grad-correctness",
        dest="grad_correctness",
        action="store_const",
        const="false",
        help="unit STE backward instead of 1/scale",
    )

    p = sub.add_parser("eval", help="accuracy of a checkpoint in float or ternary mode")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("float", "ternary"), default="ternary")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="write the 2-bit packed model and print its report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="packed model output path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seed", default="0", help="seed of the checks' random inputs")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="per-layer statistics and weight histograms")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ConfigError, DataError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DivergenceError, ModelIOError, ValueError, OSError, MemoryError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
