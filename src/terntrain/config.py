"""Flat key=value run configuration.

Zero-dependency text format: one "key = value" per line, blank lines and
'#' comments ignored. Unknown keys are rejected, every numeric value is
range-checked at parse time (a float must also be finite), `arch` must name
a buildable network, and the parsed config echoes back into the run
directory so ablation grids stay diffable. Command-line overrides are
checked like the file's own values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .network import arch_specs
from .optim import OPTIMIZER_KINDS, OptimizerConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    arch: str = ""
    dataset: str = "idx"  # idx | csv
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    train_csv: str = ""
    test_csv: str = ""
    normalize_mean: float = 0.0
    normalize_std: float = 1.0
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    weight_opt: str = "sgd-momentum"
    weight_lr: float = 0.1
    weight_momentum: float = 0.9
    weight_decay: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    threshold_opt: str = "vanilla-sgd"
    threshold_lr: float | None = None  # defaults to weight_lr
    lr_schedule: list[tuple[int, float]] = field(default_factory=list)
    init_frac: float = 0.1
    grad_correctness: bool = True
    out_dir: str = "runs/run"
    pretrain_checkpoint: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lr_schedule"] = ",".join(f"{e}:{lr!r}" for e, lr in self.lr_schedule)
        return d

    def weight_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            kind=self.weight_opt,
            lr=self.weight_lr,
            momentum=self.weight_momentum,
            betas=(self.adam_beta1, self.adam_beta2),
            eps=self.adam_eps,
            weight_decay=self.weight_decay,
        )

    def threshold_optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(
            kind=self.threshold_opt,
            lr=self.threshold_lr if self.threshold_lr is not None else self.weight_lr,
            betas=(self.adam_beta1, self.adam_beta2),
            eps=self.adam_eps,
            weight_decay=0.0,
        )


def _parse_bool(key: str, v: str) -> bool:
    low = v.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {v!r}")


def _parse_schedule(key: str, v: str) -> list[tuple[int, float]]:
    if not v.strip():
        return []
    out = []
    for part in v.split(","):
        try:
            ep_s, lr_s = part.split(":")
            ep, lr = int(ep_s), float(lr_s)
        except ValueError:
            raise ConfigError(f"{key}: expected epoch:lr pairs, got {part!r}") from None
        if ep < 0 or not 0 < lr < math.inf:
            raise ConfigError(f"{key}: epoch must be >= 0 and lr finite and > 0, got {part!r}")
        out.append((ep, lr))
    if sorted(e for e, _ in out) != [e for e, _ in out]:
        raise ConfigError(f"{key}: breakpoints must be in ascending epoch order")
    return out


def _in_range(key, value, lo=None, hi=None, lo_open=False, hi_open=False):
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(f"{key}: value {value} below allowed range")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(f"{key}: value {value} above allowed range")
    return value


# Each float key's allowed range, as keyword arguments to _in_range.
_FLOAT_RANGES = {
    "normalize_mean": {},
    "normalize_std": dict(lo=0.0, lo_open=True),
    "weight_lr": dict(lo=0.0, lo_open=True),
    "weight_momentum": dict(lo=0.0, hi=1.0, hi_open=True),
    "weight_decay": dict(lo=0.0),
    "adam_beta1": dict(lo=0.0, hi=1.0, hi_open=True),
    "adam_beta2": dict(lo=0.0, hi=1.0, hi_open=True),
    "adam_eps": dict(lo=0.0, lo_open=True),
    "threshold_lr": dict(lo=0.0, lo_open=True),
    "init_frac": dict(lo=0.0, lo_open=True),
}


# Each integer key's lowest allowed value.
_INT_MINIMA = {"batch_size": 1, "epochs": 0, "seed": 0}


def checked_int(key: str, value: int) -> int:
    """value if it is at least the integer key's lowest allowed value; else a ConfigError."""
    return _in_range(key, value, lo=_INT_MINIMA[key])


_STR_KEYS = (
    "train_images",
    "train_labels",
    "test_images",
    "test_labels",
    "train_csv",
    "test_csv",
    "out_dir",
    "pretrain_checkpoint",
)


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}: line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{source}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def config_from_pairs(pairs: dict[str, str], source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for key, value in pairs.items():
        try:
            if key == "arch":
                arch_specs(value)
                cfg.arch = value
            elif key in _STR_KEYS:
                if key == "out_dir" and not value:
                    raise ConfigError("out_dir: must name a directory, got an empty value")
                setattr(cfg, key, value)
            elif key == "dataset":
                if value not in ("idx", "csv"):
                    raise ConfigError(f"dataset: expected idx or csv, got {value!r}")
                cfg.dataset = value
            elif key in _FLOAT_RANGES:
                number = float(value)
                if not math.isfinite(number):
                    raise ConfigError(f"{key}: value {number} is not a finite number")
                setattr(cfg, key, _in_range(key, number, **_FLOAT_RANGES[key]))
            elif key in _INT_MINIMA:
                setattr(cfg, key, checked_int(key, int(value)))
            elif key == "weight_opt":
                if value not in OPTIMIZER_KINDS:
                    raise ConfigError(f"weight_opt: expected one of {OPTIMIZER_KINDS}, got {value!r}")
                cfg.weight_opt = value
            elif key == "threshold_opt":
                if value not in ("vanilla-sgd", "adam"):
                    raise ConfigError(
                        f"threshold_opt: expected vanilla-sgd or adam, got {value!r}"
                    )
                cfg.threshold_opt = value
            elif key == "lr_schedule":
                cfg.lr_schedule = _parse_schedule(key, value)
            elif key == "grad_correctness":
                cfg.grad_correctness = _parse_bool(key, value)
            else:
                raise ConfigError(f"{source}: unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from e
    if not cfg.arch:
        raise ConfigError(f"{source}: missing required key 'arch'")
    return cfg


def parse_config(path, overrides: dict[str, str | None] | None = None) -> RunConfig:
    """The config file at path, each non-None override replacing the file's value of its key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    pairs = parse_kv_text(text, str(path))
    pairs.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return config_from_pairs(pairs, str(path))
