"""Flat key=value run configuration.

Zero-dependency text format: one "key = value" per line, blank lines and
'#' comments ignored. Each `RunConfig` field declares its parser next to its
default, so the field list is the key list: the parser checks the value's
type and range (a float must also be finite), `arch` must name a buildable
network, and `parse_value` prefixes any rejection with "<key>: ". Unknown
keys are rejected. A data split is the IDX pair its `{split}_images` and
`{split}_labels` keys name. The config file, the command-line overrides and
`gradcheck --seed` all go through `parse_value`, and the parsed config
echoes back into the run directory so ablation grids stay diffable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .network import arch_specs
from .optim import OPTIMIZER_KINDS, THRESHOLD_KINDS, OptimizerConfig


class ConfigError(ValueError):
    pass


def _number(kind, at_least=None, above=None, below=None, at_most=None):
    """A parser of a kind (int or float) number in the given bounds; a float must be finite."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"value {value} is not a finite number")
        if (at_least is not None and value < at_least) or (above is not None and value <= above):
            raise ValueError(f"value {value} below allowed range")
        if (below is not None and value >= below) or (at_most is not None and value > at_most):
            raise ValueError(f"value {value} above allowed range")
        return value

    return parse


def _choice(options: tuple[str, ...]):
    """A parser that accepts exactly one of options."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return parse


def _directory(text: str) -> str:
    if not text:
        raise ValueError("must name a directory, got an empty value")
    return text


def _arch(text: str) -> str:
    arch_specs(text)
    return text


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _schedule(text: str) -> list[tuple[int, float]]:
    if not text.strip():
        return []
    out = []
    for part in text.split(","):
        try:
            ep_s, lr_s = part.split(":")
            ep, lr = int(ep_s), float(lr_s)
        except ValueError:
            raise ValueError(f"expected epoch:lr pairs, got {part!r}") from None
        if ep < 0 or not 0 < lr < math.inf:
            raise ValueError(f"epoch must be >= 0 and lr finite and > 0, got {part!r}")
        out.append((ep, lr))
    epochs = [ep for ep, _ in out]
    if any(a >= b for a, b in zip(epochs, epochs[1:])):
        raise ValueError("breakpoint epochs must be strictly ascending")
    return out


def _key(default, parse):
    """A RunConfig field: its default, and the parser of its config-file text."""
    return field(default=default, metadata={"parse": parse})


_POSITIVE = _number(float, above=0.0)
_FRACTION = _number(float, at_least=0.0, below=1.0)


@dataclass
class RunConfig:
    arch: str = _key("", _arch)
    train_images: str = _key("", str)
    train_labels: str = _key("", str)
    test_images: str = _key("", str)
    test_labels: str = _key("", str)
    normalize_mean: float = _key(0.0, _number(float, at_least=0.0, at_most=1.0))  # of pixels scaled to [0, 1]
    normalize_std: float = _key(1.0, _POSITIVE)
    batch_size: int = _key(64, _number(int, at_least=1))
    epochs: int = _key(10, _number(int, at_least=0))
    seed: int = _key(0, _number(int, at_least=0))
    weight_opt: str = _key("sgd-momentum", _choice(OPTIMIZER_KINDS))
    weight_lr: float = _key(0.1, _POSITIVE)
    weight_momentum: float = _key(0.9, _FRACTION)
    weight_decay: float = _key(0.0, _number(float, at_least=0.0))
    adam_beta1: float = _key(0.9, _FRACTION)
    adam_beta2: float = _key(0.999, _FRACTION)
    adam_eps: float = _key(1e-8, _POSITIVE)
    threshold_opt: str = _key("vanilla-sgd", _choice(THRESHOLD_KINDS))
    threshold_lr: float | None = _key(None, _POSITIVE)  # defaults to weight_lr
    lr_schedule: list[tuple[int, float]] = field(default_factory=list, metadata={"parse": _schedule})
    init_frac: float = _key(0.1, _POSITIVE)
    grad_correctness: bool = _key(True, _bool)
    out_dir: str = _key("runs/run", _directory)
    pretrain_checkpoint: str = _key("", str)

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
        )


_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def parse_value(key: str, text: str):
    """The value of config key `key` written as text; a ConfigError "<key>: ..." when it is not valid."""
    try:
        return _PARSERS[key](text)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from e


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
    """The config the pairs set; the first bad pair, in their order, is the ConfigError."""
    values = {}
    for key, text in pairs.items():
        if key not in _PARSERS:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        values[key] = parse_value(key, text)
    if "arch" not in values:
        raise ConfigError(f"{source}: missing required key 'arch'")
    return RunConfig(**values)


def parse_config(path, overrides: dict[str, str | None] | None = None) -> RunConfig:
    """The config file at path, each non-None override replacing the file's value of its key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    pairs = parse_kv_text(text, str(path))
    pairs.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return config_from_pairs(pairs, str(path))
