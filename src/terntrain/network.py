"""Small configurable models assembled from the autograd ops.

One weight base serves three forward modes: full-precision, and the two
ternary phases. In the ternary modes each quantized layer runs its linear
op on the codes first and applies the scalar scale to the accumulated
result afterwards, never the other way around. A quantized dense layer
whose codes have all-zero columns multiplies only its live columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .ternarize import (
    THRESHOLD_PHASE,
    WEIGHT_PHASE,
    QuantizerState,
    assert_fresh,
    refresh,
    ste_codes_node,
    tern,  # noqa: F401  re-exported: tracing tools wrap network.tern by name
    threshold_scale_node,
)

FLOAT_MODE = "float"

_KNOWN_ARCHS = ("mlp-<dims>", "lenet-small")


@dataclass
class LayerSpec:
    """One layer of a model description.

    kind "dense": in_dim/out_dim are feature counts. kind "conv2d": in_dim
    and out_dim are channel counts with a square kernel. "relu"/"flatten"
    take no dims. quantized applies to parametric kinds only.
    """

    kind: str
    in_dim: int = 0
    out_dim: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    quantized: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "quantized": self.quantized,
        }

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        return LayerSpec(**d)


@dataclass
class ParamLayer:
    """A dense or conv layer's parameters; biases are never ternarized."""

    spec: LayerSpec
    name: str
    w: Tensor
    b: Tensor
    qstate: QuantizerState | None = None


def _glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-bound, bound, size=shape)
    # Snap through float32 so checkpoint payloads round-trip bit-exactly.
    return w.astype(np.float32).astype(np.float64)


class Model:
    """Ordered layer specs plus per-parametric-layer weights and quantizer state."""

    def __init__(self, specs: list[LayerSpec], arch: str = "custom", seed: int = 0):
        """Glorot-uniform weights drawn from seed, zero biases."""
        rng = np.random.default_rng(seed)

        def glorot(spec: LayerSpec, name: str, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
            rf = spec.kernel * spec.kernel if spec.kind == "conv2d" else 1
            w = _glorot_uniform(rng, shape, spec.in_dim * rf, spec.out_dim * rf)
            return w, np.zeros(spec.out_dim)

        self._build(specs, arch, glorot)

    @classmethod
    def from_params(cls, specs: list[LayerSpec], arch: str, params) -> "Model":
        """A model whose weights and biases come from params, with no init drawn.

        params(spec, name, weight_shape) -> (weights, bias) is called once
        per parametric layer, in order, before that layer is built; it may
        raise to reject the layer. Loaders build models this way.
        """
        model = cls.__new__(cls)
        model._build(specs, arch, params)
        return model

    def _build(self, specs: list[LayerSpec], arch: str, params) -> None:
        if not specs:
            raise ValueError("model needs at least one layer spec")
        _validate_chain(specs)
        self.arch = arch
        self.specs = list(specs)
        self.meta: dict = {}
        # True for a model loaded from a packed file: its quantized layers
        # hold the file's codes and scale, and only the ternary forward runs.
        self.packed = False
        self.delta_leaves: dict[str, Tensor] = {}
        self._items: list[tuple[LayerSpec, ParamLayer | None]] = []

        idx = 0
        for spec in self.specs:
            if spec.kind in ("relu", "flatten"):
                self._items.append((spec, None))
                continue
            if spec.kind == "dense":
                name, shape = f"dense{idx}", (spec.in_dim, spec.out_dim)
            elif spec.kind == "conv2d":
                name, shape = f"conv{idx}", (spec.out_dim, spec.in_dim, spec.kernel, spec.kernel)
            else:
                raise ValueError(f"unknown layer kind {spec.kind!r}")
            w, b = params(spec, name, shape)
            layer = ParamLayer(
                spec,
                name,
                Tensor(w, requires_grad=True),
                Tensor(b, requires_grad=True),
                QuantizerState(0.0) if spec.quantized else None,
            )
            self._items.append((spec, layer))
            idx += 1

    # -- structure ----------------------------------------------------------

    def param_layers(self) -> list[ParamLayer]:
        return [layer for _, layer in self._items if layer is not None]

    def quantized_layers(self) -> list[ParamLayer]:
        return [l for l in self.param_layers() if l.qstate is not None]

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.param_layers():
            params.append(layer.w)
            params.append(layer.b)
        return params

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def snap_params_f32(self) -> None:
        """Round parameters onto the float32 grid used by checkpoint payloads."""
        for p in self.parameters():
            p.data = p.data.astype(np.float32).astype(np.float64)

    # -- quantizer plumbing --------------------------------------------------

    def init_thresholds(self, frac: float) -> None:
        """Set each quantized layer's threshold to frac * max|w|."""
        if not 0 < frac < math.inf:
            raise ValueError(f"threshold init fraction must be positive and finite, got {frac}")
        for layer in self.quantized_layers():
            layer.qstate.delta = frac * float(np.max(np.abs(layer.w.data)))

    def refresh_all(self) -> None:
        if self.packed:
            raise ValueError("a packed model holds frozen codes, not weights; it cannot be refreshed")
        for layer in self.quantized_layers():
            refresh(layer.qstate, layer.w.data)

    # -- forward -------------------------------------------------------------

    def forward(self, x, mode: str = FLOAT_MODE, grad_correctness: bool = True) -> Tensor:
        if mode not in (FLOAT_MODE, WEIGHT_PHASE, THRESHOLD_PHASE):
            raise ValueError(f"unknown forward mode {mode!r}")
        if self.packed and mode != WEIGHT_PHASE:
            raise ValueError(f"a packed model runs only the {WEIGHT_PHASE!r} forward, not {mode!r}")
        if mode == THRESHOLD_PHASE:
            self.delta_leaves = {}
        t = x if isinstance(x, Tensor) else Tensor(x)
        for spec, layer in self._items:
            if spec.kind == "relu":
                t = ag.relu(t)
            elif spec.kind == "flatten":
                t = ag.flatten(t)
            else:
                t = self._parametric_forward(layer, t, mode, grad_correctness)
        return t

    def _parametric_forward(self, layer: ParamLayer, t: Tensor, mode: str, gc: bool) -> Tensor:
        spec = layer.spec

        def linop(weights: Tensor) -> Tensor:
            if spec.kind == "dense":
                return ag.matmul(t, weights)
            return ag.conv2d(t, weights, spec.stride, spec.padding)

        if mode == FLOAT_MODE or layer.qstate is None:
            z = linop(layer.w)
        elif mode == WEIGHT_PHASE:
            assert_fresh(layer.qstate, layer.w.data)
            codes = ste_codes_node(layer.w, layer.qstate, gc)
            z = linop(codes)
            z = ag.scale_by(z, layer.qstate.scale)
        else:  # THRESHOLD_PHASE
            assert_fresh(layer.qstate, layer.w.data)
            leaf = Tensor(np.float64(layer.qstate.delta), requires_grad=True)
            self.delta_leaves[layer.name] = leaf
            s = threshold_scale_node(leaf, layer.qstate)
            codes = Tensor(layer.qstate.codes)
            codes.live_columns = layer.qstate.live_columns
            z = ag.smul(s, linop(codes))
        return ag.add_bias(z, layer.b)


def _validate_chain(specs: list[LayerSpec]) -> None:
    """Check the statically checkable shape compatibilities between specs."""
    feat = None  # feature count flowing through dense layers
    chan = None  # channel count flowing through conv layers
    for spec in specs:
        if spec.kind == "dense":
            if spec.in_dim <= 0 or spec.out_dim <= 0:
                raise ValueError(f"dense layer needs positive dims, got {spec}")
            if feat is not None and feat != spec.in_dim:
                raise ValueError(
                    f"dense in_dim {spec.in_dim} incompatible with previous width {feat}"
                )
            feat = spec.out_dim
            chan = None
        elif spec.kind == "conv2d":
            if spec.in_dim <= 0 or spec.out_dim <= 0 or spec.kernel <= 0:
                raise ValueError(f"conv layer needs positive dims, got {spec}")
            if chan is not None and chan != spec.in_dim:
                raise ValueError(
                    f"conv in_dim {spec.in_dim} incompatible with previous channels {chan}"
                )
            chan = spec.out_dim
        elif spec.kind == "flatten":
            feat = None
            chan = None


def mlp_specs(dims: list[int]) -> list[LayerSpec]:
    specs = [LayerSpec("flatten")]
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        specs.append(LayerSpec("dense", in_dim=a, out_dim=b, quantized=True))
        if i < len(dims) - 2:
            specs.append(LayerSpec("relu"))
    return specs


def lenet_small_specs() -> list[LayerSpec]:
    # 28x28 inputs: two stride-2 convs down to 16 channels at 7x7, then dense.
    return [
        LayerSpec("conv2d", in_dim=1, out_dim=8, kernel=4, stride=2, padding=1, quantized=True),
        LayerSpec("relu"),
        LayerSpec("conv2d", in_dim=8, out_dim=16, kernel=4, stride=2, padding=1, quantized=True),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", in_dim=16 * 7 * 7, out_dim=10, quantized=True),
    ]


def arch_specs(arch: str) -> list[LayerSpec]:
    """Specs for a named architecture string."""
    if not isinstance(arch, str) or not arch:
        raise ValueError(f"architecture must be a non-empty string, known forms: {_KNOWN_ARCHS}")
    if arch == "lenet-small":
        return lenet_small_specs()
    if arch.startswith("mlp-"):
        try:
            dims = [int(p) for p in arch.split("-")[1:]]
        except ValueError:
            raise ValueError(f"malformed mlp architecture string {arch!r}") from None
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"mlp architecture needs at least two positive dims, got {arch!r}")
        return mlp_specs(dims)
    raise ValueError(f"unknown architecture {arch!r}, known forms: {_KNOWN_ARCHS}")


def build_from_config(cfg, seed: int = 0) -> Model:
    """Build a model from an architecture string or an explicit spec list.

    Strings: "mlp-<d0>-<d1>-...-<dk>" (dense stack with ReLU between) or
    "lenet-small". All parametric layers, including the first and the last,
    are quantized by default.
    """
    if isinstance(cfg, (list, tuple)):
        if not cfg:
            raise ValueError("empty layer spec list")
        return Model(list(cfg), arch="custom", seed=seed)
    return Model(arch_specs(cfg), arch=cfg, seed=seed)
