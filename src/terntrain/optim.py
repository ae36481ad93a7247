"""SGD (vanilla and momentum) and Adam, functional cores plus thin stateful wrappers.

Every optimizer is built from its OptimizerConfig and keeps it as its base
learning rate; `lr` is the current one, which a schedule may change. The
weight optimizers and ThresholdOptimizer step through the same cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor

OPTIMIZER_KINDS = ("vanilla-sgd", "sgd-momentum", "adam")
THRESHOLD_KINDS = ("vanilla-sgd", "adam")


@dataclass
class OptimizerConfig:
    kind: str = "sgd-momentum"
    lr: float = 0.1
    momentum: float = 0.9
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {OPTIMIZER_KINDS}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError(f"betas must be in [0, 1), got {self.betas}")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")


def sgd_update(p, g, lr, momentum=0.0, weight_decay=0.0, velocity=None):
    """One SGD step; returns (p_new, velocity_new).

    d = g + weight_decay * p; with momentum, v = momentum * v + d and the
    step follows v; vanilla (momentum 0) steps along d and returns velocity
    None. The velocity is updated in place (a numpy scalar rebinds); on the
    first step it is a private copy of d, never the gradient itself. p_new
    is a new array: refresh() identifies weights by array identity.
    """
    d = g
    if weight_decay:
        d = weight_decay * p
        d += g  # g + weight_decay * p: addition commutes exactly
    if momentum:
        if velocity is None:
            velocity = np.copy(d)
        else:
            velocity *= momentum
            velocity += d
        d = velocity
    else:
        velocity = None
    p_new = d * -lr  # -(lr * d) exactly, so p_new == p - lr * d bit for bit
    p_new += p
    return p_new, velocity


def adam_update(p, g, state, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One bias-corrected Adam step; returns p_new.

    Updates state (m, v, t): m and v in place when they are arrays, by
    rebinding when they are scalars. p_new is a new array, as in sgd_update.
    """
    b1, b2 = betas
    state["t"] += 1
    t = state["t"]
    if weight_decay:
        g = g + weight_decay * p
    m, v = state["m"], state["v"]
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    state["m"], state["v"] = m, v
    denom = np.sqrt(v / (1 - b2**t))
    denom += eps
    step = m / (1 - b1**t)
    step *= lr  # lr * m_hat
    step /= denom
    del denom  # at most two parameter-sized temporaries are alive at once
    return p - step


class SGD:
    """SGD over params, built from its config: momentum 0 for vanilla-sgd."""

    def __init__(self, params: list[Tensor], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.lr = cfg.lr
        self.momentum = cfg.momentum if cfg.kind == "sgd-momentum" else 0.0
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            p.data, self._velocity[i] = sgd_update(
                p.data, p.grad, self.lr, self.momentum, self.cfg.weight_decay, self._velocity[i]
            )


class Adam:
    def __init__(self, params: list[Tensor], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.lr = cfg.lr
        self._state = [
            {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0} for p in self.params
        ]

    def step(self) -> None:
        cfg = self.cfg
        for p, st in zip(self.params, self._state):
            if p.grad is None:
                continue
            p.data = adam_update(p.data, p.grad, st, self.lr, cfg.betas, cfg.eps, cfg.weight_decay)


def make_optimizer(cfg: OptimizerConfig, params: list[Tensor]):
    return (Adam if cfg.kind == "adam" else SGD)(params, cfg)


class ThresholdOptimizer:
    """Optimizer over the named per-layer threshold scalars.

    It owns the threshold rules: its kind is one of THRESHOLD_KINDS, and a
    threshold takes no weight decay.
    """

    def __init__(self, cfg: OptimizerConfig):
        if cfg.kind not in THRESHOLD_KINDS:
            raise ValueError(f"threshold optimizer must be one of {THRESHOLD_KINDS}, got {cfg.kind!r}")
        if cfg.weight_decay != 0.0:
            raise ValueError("weight decay on thresholds is forbidden; set it to 0")
        self.cfg = cfg
        self.lr = cfg.lr
        self._state: dict[str, dict] = {}

    def update(self, name: str, value: float, grad: float) -> float:
        cfg = self.cfg
        if cfg.kind == "vanilla-sgd":
            return sgd_update(value, grad, self.lr)[0]
        st = self._state.setdefault(name, {"m": 0.0, "v": 0.0, "t": 0})
        return float(adam_update(np.float64(value), np.float64(grad), st, self.lr, cfg.betas, cfg.eps))
