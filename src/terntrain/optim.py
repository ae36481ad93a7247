"""SGD (vanilla and momentum) and Adam, functional cores plus thin stateful wrappers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor

OPTIMIZER_KINDS = ("vanilla-sgd", "sgd-momentum", "adam")


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
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError(f"betas must be in [0, 1), got {self.betas}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")


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


def adam_update(p, g, state, cfg: OptimizerConfig):
    """One bias-corrected Adam step; returns p_new.

    Updates state (m, v, t): m and v in place when they are arrays, by
    rebinding when they are scalars. p_new is a new array, as in sgd_update.
    """
    b1, b2 = cfg.betas
    state["t"] += 1
    t = state["t"]
    if cfg.weight_decay:
        g = g + cfg.weight_decay * p
    m, v = state["m"], state["v"]
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    state["m"], state["v"] = m, v
    denom = np.sqrt(v / (1 - b2**t))
    denom += cfg.eps
    step = m / (1 - b1**t)
    step *= cfg.lr  # lr * m_hat
    step /= denom
    del denom  # at most two parameter-sized temporaries are alive at once
    return p - step


class SGD:
    def __init__(self, params: list[Tensor], lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            p.data, self._velocity[i] = sgd_update(
                p.data, p.grad, self.lr, self.momentum, self.weight_decay, self._velocity[i]
            )

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    def __init__(self, params: list[Tensor], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.lr = cfg.lr
        self._state = [
            {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0} for p in self.params
        ]

    def step(self) -> None:
        cfg = OptimizerConfig(
            kind="adam",
            lr=self.lr,
            betas=self.cfg.betas,
            eps=self.cfg.eps,
            weight_decay=self.cfg.weight_decay,
        )
        for p, st in zip(self.params, self._state):
            if p.grad is None:
                continue
            p.data = adam_update(p.data, p.grad, st, cfg)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def make_optimizer(cfg: OptimizerConfig, params: list[Tensor]):
    if cfg.kind == "vanilla-sgd":
        return SGD(params, cfg.lr, momentum=0.0, weight_decay=cfg.weight_decay)
    if cfg.kind == "sgd-momentum":
        return SGD(params, cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    return Adam(params, cfg)


class ThresholdOptimizer:
    """Optimizer over the named per-layer threshold scalars.

    Structurally decay-free: thresholds never belong to a weight-decay
    parameter group, so there is no decay term to misconfigure.
    """

    def __init__(self, kind: str, lr: float, betas=(0.9, 0.999), eps: float = 1e-8):
        if kind not in ("vanilla-sgd", "adam"):
            raise ValueError(f"threshold optimizer must be vanilla-sgd or adam, got {kind!r}")
        self.kind = kind
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self._state: dict[str, dict] = {}

    def update(self, name: str, value: float, grad: float) -> float:
        if self.kind == "vanilla-sgd":
            return value - self.lr * grad
        st = self._state.setdefault(name, {"m": 0.0, "v": 0.0, "t": 0})
        cfg = OptimizerConfig(kind="adam", lr=self.lr, betas=self.betas, eps=self.eps)
        return float(adam_update(np.float64(value), np.float64(grad), st, cfg))
