"""Operator surface: pretrain, quantize, eval, export, gradcheck, inspect.

Exit codes: 0 success, 1 usage/config error, 2 runtime/training failure,
3 gradcheck failure. TERNTRAIN_SEED overrides the config seed; an explicit
--seed flag beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, checked_float, checked_int, parse_config
from .data import DataError, Dataset, load_csv, load_idx
from .gradcheck import run_suite, suite_passed
from .modelio import ModelIOError, export_packed, load_checkpoint, save_checkpoint
from .network import build_from_config
from .ternarize import DegenerateLayerError, sparsity
from .trainer import DivergenceError, eval_loss_acc, make_train_state, pretrain, train


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
    except OSError:
        pass
    return f"terntrain-{__version__}"


def _resolve_seed(cfg: RunConfig, args) -> int:
    if args.seed is not None:
        return checked_int("seed", args.seed)
    env = os.environ.get("TERNTRAIN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"TERNTRAIN_SEED must be an integer, got {env!r}") from None
        return checked_int("seed", seed)
    return cfg.seed


def _load_split(cfg: RunConfig, split: str) -> Dataset | None:
    if cfg.dataset == "idx":
        images = cfg.train_images if split == "train" else cfg.test_images
        labels = cfg.train_labels if split == "train" else cfg.test_labels
        if not images or not labels:
            if split == "train":
                raise ConfigError("config must name train_images and train_labels")
            return None
        return load_idx(images, labels, cfg.normalize_mean, cfg.normalize_std)
    path = cfg.train_csv if split == "train" else cfg.test_csv
    if not path:
        if split == "train":
            raise ConfigError("config must name train_csv")
        return None
    return load_csv(path)


def _prepare_out_dir(cfg: RunConfig, seed: int, command: str) -> str:
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    info = {
        "command": command,
        "seed": seed,
        "build_id": build_id(),
        "config": cfg.to_dict(),
    }
    with open(os.path.join(out, "run_info.json"), "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    return out


def _fresh_csv(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def _last_accuracy(metrics: list[dict], split: str) -> float | None:
    """The accuracy of a split's last metric row; None when it has no row."""
    for row in reversed(metrics):
        if row["split"] == split:
            return row["accuracy"]
    return None


def cmd_pretrain(args) -> int:
    cfg = parse_config(args.config)
    if args.epochs is not None:
        cfg.epochs = checked_int("epochs", args.epochs)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    seed = _resolve_seed(cfg, args)
    out = _prepare_out_dir(cfg, seed, "pretrain")
    train_ds = _load_split(cfg, "train")
    test_ds = _load_split(cfg, "test")
    model = build_from_config(cfg.arch, seed=seed)
    csv_path = _fresh_csv(os.path.join(out, "pretrain_metrics.csv"))
    try:
        metrics = pretrain(
            model,
            train_ds,
            cfg.weight_optimizer(),
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            seed=seed,
            test_dataset=test_ds,
            csv_path=csv_path,
        )
    except DivergenceError as e:
        _write_dump(out, e)
        raise
    ckpt_path = os.path.join(out, "pretrain.ckpt")
    save_checkpoint(
        model,
        ckpt_path,
        {
            "kind": "pretrain",
            "epochs": cfg.epochs,
            "seed": seed,
            "final_train_accuracy": _last_accuracy(metrics, "train"),
            "final_test_accuracy": _last_accuracy(metrics, "test"),
        },
    )
    final = metrics[-1] if metrics else {}
    print(f"pretrain done: checkpoint={ckpt_path}")
    if final:
        print(f"final {final['split']} accuracy={final['accuracy']:.6f}")
    return 0


def cmd_quantize(args) -> int:
    cfg = parse_config(args.config)
    if args.epochs is not None:
        cfg.epochs = checked_int("epochs", args.epochs)
    if args.init_frac is not None:
        cfg.init_frac = checked_float("init_frac", args.init_frac)
    if args.no_grad_correctness:
        cfg.grad_correctness = False
    if args.out_dir:
        cfg.out_dir = args.out_dir
    seed = _resolve_seed(cfg, args)
    ckpt_path = args.checkpoint or cfg.pretrain_checkpoint
    if not ckpt_path:
        raise ConfigError("quantize needs a pretrain checkpoint (--checkpoint or config)")
    if not os.path.exists(ckpt_path):
        raise ConfigError(f"pretrain checkpoint not found: {ckpt_path}")
    out = _prepare_out_dir(cfg, seed, "quantize")
    model = load_checkpoint(ckpt_path)
    if not model.quantized_layers():
        raise ConfigError(f"architecture {model.arch!r} has no quantized layers")
    model.init_thresholds(cfg.init_frac)
    state = make_train_state(
        model,
        cfg.weight_optimizer(),
        cfg.threshold_optimizer(),
        seed=seed,
        schedule=cfg.lr_schedule,
        grad_correctness=cfg.grad_correctness,
    )
    train_ds = _load_split(cfg, "train")
    test_ds = _load_split(cfg, "test")
    csv_path = _fresh_csv(os.path.join(out, "metrics.csv"))
    try:
        metrics = train(
            state,
            train_ds,
            cfg.epochs,
            batch_size=cfg.batch_size,
            test_dataset=test_ds,
            csv_path=csv_path,
        )
    except DivergenceError as e:
        _write_dump(out, e)
        raise
    out_ckpt = os.path.join(out, "ternary.ckpt")
    final_test = _last_accuracy(metrics, "test")
    save_checkpoint(
        model,
        out_ckpt,
        {
            "kind": "ternary",
            "epochs": cfg.epochs,
            "seed": seed,
            "grad_correctness": cfg.grad_correctness,
            "final_test_accuracy": final_test,
        },
    )
    print(f"quantize done: checkpoint={out_ckpt}")
    if final_test is not None:
        print(f"final test accuracy={final_test:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = parse_config(args.config)
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    model = load_checkpoint(args.checkpoint)
    ds = _load_split(cfg, args.split)
    if ds is None:
        raise ConfigError(f"config does not name a {args.split} dataset")
    acc = eval_loss_acc(model, ds, args.mode)[1]
    print(f"mode={args.mode} split={args.split} accuracy={acc:.6f}")
    return 0


def cmd_export(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    model = load_checkpoint(args.checkpoint)
    model.refresh_all()
    report = export_packed(model, args.out)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(seed=checked_int("seed", args.seed) if args.seed is not None else 0)
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
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint not found: {args.checkpoint}")
    model = load_checkpoint(args.checkpoint)
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


def _write_dump(out_dir: str, e: DivergenceError) -> None:
    try:
        with open(os.path.join(out_dir, "divergence_dump.json"), "w") as fh:
            json.dump({"error": str(e), "context": e.dump}, fh, indent=2)
    except OSError:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="terntrain", description=__doc__)
    parser.add_argument("--version", action="version", version=f"terntrain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the full-precision baseline")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--seed", type=int, default=None, help="override config/env seed")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("quantize", help="alternating ternary training from a pretrain checkpoint")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--seed", type=int, default=None, help="override config/env seed")
    p.add_argument("--checkpoint", default=None, help="pretrain checkpoint path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--init-frac", type=float, default=None, help="threshold init as a fraction of max|w|")
    p.add_argument("--no-grad-correctness", action="store_true", help="unit STE backward instead of 1/scale")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="accuracy of a checkpoint in float or ternary mode")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("float", "ternary"), default="ternary")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="write the 2-bit packed model and its report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="packed model output path")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seed", type=int, default=None)
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
    except (DivergenceError, ModelIOError, DegenerateLayerError, ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
