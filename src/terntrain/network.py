"""Small configurable models assembled from the autograd ops.

One weight base serves three forward modes: full-precision, and the two
ternary phases. In the ternary modes each quantized layer computes
S * linop(Tern(w)) through one expression: the linear op runs on the codes
first and the scalar scale multiplies the accumulated result afterwards,
never the other way around. A quantized dense layer whose codes have
all-zero columns multiplies only its live columns, and its float64 codes
are widened only for a product that reads them all.

A Model has one constructor, one pass over its layer specs: each spec is
checked against the one before it and each parametric layer takes its
arrays from a params source, glorot(seed) for a fresh model or a file's
records for a loaded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .ternarize import (
    THRESHOLD_PHASE,
    WEIGHT_PHASE,
    QuantizerState,
    check_fresh,
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


@dataclass
class ParamLayer:
    """A dense or conv layer's parameters; biases are never ternarized."""

    spec: LayerSpec
    name: str
    w: Tensor
    b: Tensor
    qstate: QuantizerState | None = None


class Model:
    """Ordered layer specs plus per-parametric-layer weights and quantizer state."""

    def __init__(self, specs: list[LayerSpec], params, arch: str = "custom"):
        """A model of the chain specs whose arrays come from params, in one pass.

        Each spec is checked against the one before it: a conv reads a 4-D
        tensor with an int stride >= 1 and an int padding >= 0, a dense layer
        a 2-D one. Then a parametric layer is named and shaped and
        params(spec, name, weight_shape) is called for its (weights, bias,
        quantizer state or None). It may raise to reject the layer. Every
        source is held to one contract, checked before the layer is built:
        the weights have the layer's shape, the bias length is out_dim, and a
        state is given exactly when the spec is quantized. glorot(seed) draws
        a fresh model; loaders read a file.
        """
        if not specs:
            raise ValueError("model needs at least one layer spec")
        self.arch = arch
        self.specs = list(specs)
        self.meta: dict = {}
        # True for a model loaded from a packed file: its quantized layers
        # hold the file's codes and scale, and only the ternary forward runs.
        self.packed = False
        self.delta_leaves: dict[str, Tensor] = {}
        self._items: list[tuple[LayerSpec, ParamLayer | None]] = []

        idx = 0
        feat = None  # feature count flowing through dense layers
        chan = None  # channel count flowing through conv layers
        rank = None  # 2 or 4, the flowing tensor's rank; None before the first dense, conv or flatten
        for spec in self.specs:
            if spec.kind == "dense":
                if spec.in_dim <= 0 or spec.out_dim <= 0:
                    raise ValueError(f"dense layer needs positive dims, got {spec}")
                if rank == 4:
                    raise ValueError(f"dense layer reads a 4-D conv output with no flatten between them: {spec}")
                if feat is not None and feat != spec.in_dim:
                    raise ValueError(f"dense in_dim {spec.in_dim} incompatible with previous width {feat}")
                feat, rank = spec.out_dim, 2
                name, shape = f"dense{idx}", (spec.in_dim, spec.out_dim)
            elif spec.kind == "conv2d":
                if spec.in_dim <= 0 or spec.out_dim <= 0 or spec.kernel <= 0:
                    raise ValueError(f"conv layer needs positive dims, got {spec}")
                if not (isinstance(spec.stride, int) and spec.stride >= 1
                        and isinstance(spec.padding, int) and spec.padding >= 0):
                    raise ValueError(f"conv layer needs an int stride >= 1 and an int padding >= 0, got {spec}")
                if rank == 2:
                    raise ValueError(f"conv layer reads a 2-D flattened or dense output: {spec}")
                if chan is not None and chan != spec.in_dim:
                    raise ValueError(f"conv in_dim {spec.in_dim} incompatible with previous channels {chan}")
                chan, rank = spec.out_dim, 4
                name, shape = f"conv{idx}", (spec.out_dim, spec.in_dim, spec.kernel, spec.kernel)
            elif spec.kind in ("relu", "flatten"):
                if spec.kind == "flatten":
                    feat, rank = None, 2
                self._items.append((spec, None))
                continue
            else:
                raise ValueError(f"unknown layer kind {spec.kind!r}")
            w, b, st = params(spec, name, shape)
            got, want = (np.shape(w), np.shape(b), st is not None), (shape, (spec.out_dim,), spec.quantized)
            if got != want:
                raise ValueError(
                    f"layer {name}: params give (weight shape, bias shape, quantized) {got}, "
                    f"where its spec needs {want}"
                )
            layer = ParamLayer(spec, name, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), st)
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

    def snap_params_f32(self) -> bool:
        """Round parameters onto the float32 grid used by checkpoint payloads.

        Returns whether every rounded value is finite: False after an update
        that left a value inf, NaN or beyond float32's range.
        """
        finite = True
        for p in self.parameters():
            snapped = p.data.astype(np.float32)
            finite = finite and bool(np.isfinite(snapped).all())
            p.data = snapped.astype(np.float64)
        return finite

    # -- quantizer plumbing --------------------------------------------------

    def init_thresholds(self, frac: float) -> None:
        """Set each quantized layer's threshold to frac * max|w|."""
        if not 0 < frac < math.inf:
            raise ValueError(f"threshold init fraction must be positive and finite, got {frac}")
        for layer in self.quantized_layers():
            layer.qstate.delta = frac * float(np.max(np.abs(layer.w.data)))

    def refresh_all(self) -> None:
        """Ready the model to run: refresh() every quantizer from its layer's weights.
        A packed model is ready as loaded, its codes and scales the file's, and stays so."""
        if self.packed:
            return
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

        # The threshold phase takes the thresholds' gradients alone: it reads
        # every weight and bias as a constant.
        st, w, b = layer.qstate, layer.w, layer.b
        if mode == FLOAT_MODE or st is None:
            if mode == THRESHOLD_PHASE:
                w, b = Tensor(w.data), Tensor(b.data)
            z = linop(w)
        else:
            # S * linop(Tern(w)): the threshold phase differentiates S through
            # the threshold with the codes a constant, the weight phase the codes
            # through the straight-through rule with S a constant.
            check_fresh(st, w.data, layer.name)
            if mode == THRESHOLD_PHASE:
                leaf = Tensor(np.float64(st.delta), requires_grad=True)
                self.delta_leaves[layer.name] = leaf
                s, w, b = threshold_scale_node(leaf, st), Tensor(w.data), Tensor(b.data)
            else:
                s = Tensor(st.scale)
            z = ag.smul(s, linop(ste_codes_node(w, st, gc)))
        return ag.add_bias(z, b)


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


def glorot(seed: int = 0):
    """The params source of one fresh model, drawn from seed.

    Glorot-uniform weights, snapped through float32 so checkpoint payloads
    round-trip bit-exactly, zero biases and a zero threshold on each
    quantized layer. The draws follow the layer order, so a source serves
    one model.
    """
    rng = np.random.default_rng(seed)

    def params(spec: LayerSpec, name: str, shape: tuple) -> tuple:
        rf = spec.kernel * spec.kernel if spec.kind == "conv2d" else 1
        bound = math.sqrt(6.0 / (spec.in_dim * rf + spec.out_dim * rf))
        w = rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)
        return w, np.zeros(spec.out_dim), QuantizerState(0.0) if spec.quantized else None

    return params


def build_from_config(arch: str, seed: int = 0) -> Model:
    """Build a model from an architecture string.

    "mlp-<d0>-<d1>-...-<dk>" (dense stack with ReLU between) or
    "lenet-small". All parametric layers, including the first and the last,
    are quantized by default.
    """
    return Model(arch_specs(arch), glorot(seed), arch)
