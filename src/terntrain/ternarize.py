"""Per-layer weight ternarization with a trainable threshold.

A layer's weights are mapped to codes in {-1, 0, +1} around their mean,
scaled by the closed-form mean of the Gaussian tail beyond the threshold.
Both training phases build one product, S * linop(Tern(w)), from the two
tape nodes below; a phase only chooses which factor is a tape variable.
Each node is built like every other tape op, by autograd._node with its own
backward rule.
The threshold phase differentiates the scale with respect to the threshold
(threshold_scale_node) while the codes stay frozen. The weight phase routes
gradients through the staircase (ste_codes_node) with a 1/scale correction,
so the composite derivative of the effective weight w.r.t. the float
weight is exactly one.

Codes are built as int8 (tern(), the TERN loader) and stay one byte each.
set_codes(), called by refresh() for a trained layer and by the TERN loader
for a packed one, is the one writer of a layer's codes and of the live
columns that follow from them; it widens only the live block of a dense
layer with dead columns to float64. The full codes are widened once per code
change, and only when a product reads them: the forward of a conv or of a
dense layer with no dead column, and the input gradient g @ codes.T of a
dense layer. A packed layer's float64 weights are its codes, so its state
holds them from the load on. ste_codes_node() alone hands the codes and the
live columns to the tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .gaussian import (
    TruncGaussParams,
    clip_threshold,
    clip_threshold_grad,
    d_truncated_mean_d_delta,
    truncated_upper_mean,
)

WEIGHT_PHASE = "weight-phase"
THRESHOLD_PHASE = "threshold-phase"


class DegenerateLayerError(ValueError):
    """Layer statistics unusable: zero spread (all weights equal) or too few weights."""


@dataclass
class QuantizerState:
    """Trainable threshold plus the quantizer state derived from the weights.

    delta is the trainable parameter and is never touched by refresh().
    mu/sigma/delta_c/scale/codes are derived by refresh() from the weight
    array `source`, which refresh() marks read-only: the state is fresh
    exactly while the layer still holds that same array. codes are the int8
    codes Tern(source), one byte each and read-only too, as tern() or the
    TERN loader built them.

    codes and live_columns are written by set_codes() alone, which derives
    the live columns from the codes: see there. codes64 is the float64 copy
    of the codes that float_codes() builds for a product that reads them,
    None until then; set_codes() drops it.
    """

    delta: float
    mu: float = float("nan")
    sigma: float = float("nan")
    delta_c: float = float("nan")
    scale: float = float("nan")
    codes: np.ndarray | None = field(default=None, repr=False, compare=False)
    source: np.ndarray | None = field(default=None, repr=False, compare=False)
    live_columns: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    codes64: np.ndarray | None = field(default=None, repr=False, compare=False)

    def float_codes(self) -> np.ndarray:
        """The codes as the read-only float64 array a product reads: widened
        on the first call after set_codes() and kept in codes64 until the next."""
        if self.codes64 is None:
            wide = self.codes.astype(np.float64)
            wide.flags.writeable = False
            self.codes64 = wide
        return self.codes64


def layer_stats(w: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation of a weight array.

    One mean pass; sigma is then numpy's own std recipe on that mean, so
    the pair equals (w.mean(), w.std()) bit for bit.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size < 2:
        raise DegenerateLayerError(f"layer needs at least 2 weights, got {w.size}")
    mu = w.mean()
    dev = w - mu
    np.square(dev, out=dev)
    return float(mu), float(np.sqrt(dev.sum() / w.size))


def tern(w: np.ndarray, mu: float, delta_c: float) -> np.ndarray:
    """Elementwise int8 ternary codes; the band [mu-delta_c, mu+delta_c] is inclusive.

    Each comparison's bool mask is reinterpreted as int8 (0 or 1), so the
    codes are one subtraction of two one-byte arrays, with no float temporary.
    """
    if delta_c < 0:
        raise ValueError(f"delta_c must be non-negative, got {delta_c}")
    w = np.asarray(w, dtype=np.float64)
    return (w > mu + delta_c).view(np.int8) - (w < mu - delta_c).view(np.int8)


def refresh(state: QuantizerState, w: np.ndarray) -> QuantizerState:
    """Derive mu, sigma, delta_c, scale, codes and live columns from the weights w.

    mu and sigma are recomputed only when w is not the array the state was
    last derived from; w is then marked read-only, so that the state stays
    exact for as long as the layer holds w. The codes and live columns are
    recomputed when the weights or the clipped threshold changed. delta is
    left unchanged.
    Raises DegenerateLayerError when the weights have zero spread, since
    no Gaussian fit exists then, and ValueError when delta is not finite,
    since clipping would silently map it onto 0 or 3 sigma.
    """
    if not np.isfinite(state.delta):
        raise ValueError(f"threshold delta must be finite, got {state.delta}")
    new_weights = not is_fresh(state, w)
    if new_weights:
        mu, sigma = layer_stats(w)
        if sigma <= 0.0:
            raise DegenerateLayerError("all weights equal: sigma is 0, no scale is defined")
        w.flags.writeable = False
        state.mu, state.sigma, state.source = mu, sigma, w
    delta_c = clip_threshold(state.delta, state.sigma)
    if new_weights or delta_c != state.delta_c:
        set_codes(state, tern(w, state.mu, delta_c))
    state.delta_c = delta_c
    state.scale = truncated_upper_mean(TruncGaussParams(state.mu, state.sigma, delta_c))
    return state


def set_codes(state: QuantizerState, codes8: np.ndarray) -> None:
    """Set the state's codes and live columns from int8 codes in {-1, 0, +1}.

    codes8 itself, marked read-only, becomes state.codes, the array the
    export and the layer statistics read; the float64 copy of the earlier
    codes is dropped. For 2-D (dense, in x out) codes with at least one
    all-zero column, live_columns is the indices of the columns holding a
    nonzero code beside the float64 codes on those columns as one contiguous
    read-only array. It is None when every column is live, and for conv
    codes. Only the live block is widened to float64 here.
    """
    codes8.flags.writeable = False
    state.codes, state.codes64, state.live_columns = codes8, None, None
    if codes8.ndim == 2:
        live = codes8.any(axis=0)
        if not live.all():
            idx = np.flatnonzero(live)
            # np.take keeps the row-major layout that codes[:, idx] would not: a
            # batch-1 product then runs the same BLAS routine as on the full codes.
            cols = np.take(codes8, idx, axis=1).astype(np.float64)
            cols.flags.writeable = False
            state.live_columns = (idx, cols)


def is_fresh(state: QuantizerState, w: np.ndarray) -> bool:
    """Whether the state was derived from w and w cannot have changed since.

    refresh() marks the array it derives from read-only, so an in-place
    write raises; a new array bound in its place, or a writable copy such
    as copy.deepcopy makes, is stale until the next refresh().
    """
    return w is state.source and not w.flags.writeable


def check_fresh(state: QuantizerState, w: np.ndarray, name: str) -> None:
    """Raise ValueError unless the state is fresh for w. A forward and an export
    call it, so the check holds under python -O, which strips an assert."""
    if not is_fresh(state, w):
        raise ValueError(
            f"stale quantizer state on layer {name}: it was not derived from the layer's current "
            "weights; call model.refresh_all() after building, loading or updating the model"
        )


class _CodesNode(Tensor):
    """The tape node of a layer's codes, carrying the state's live columns.

    Its data, the float64 codes, is the state's codes64 when they are
    widened already, and is otherwise built by state.float_codes() on the
    first read, so a node that no product reads widens nothing: a dense
    layer with dead columns multiplies its live block forward, and its
    weight gradient a.T @ g reads no codes. The node keeps the int8 codes it
    was made from: should set_codes() run before its backward, it widens
    those, not the new ones.
    """

    def __init__(self, state: QuantizerState):
        self._state, self._codes, self.live_columns = state, state.codes, state.live_columns
        if state.codes64 is not None:
            self.data = state.codes64

    @property
    def shape(self) -> tuple[int, ...]:
        return self._codes.shape

    def __getattr__(self, name: str):
        # Called only while data is unset: the first read builds it and keeps it.
        if name != "data":
            raise AttributeError(name)
        st = self._state
        self.data = st.float_codes() if st.codes is self._codes else self._codes.astype(np.float64)
        return self.data


def ste_codes_node(w: Tensor, state: QuantizerState, grad_correctness: bool = True) -> Tensor:
    """The state's cached Tern(w) as a tape node with the straight-through backward rule.

    The node (see _CodesNode) holds the state's float64 codes and live
    columns, so a matmul against it multiplies only those columns. The
    state must be fresh for w.data. With grad_correctness the backward
    multiplies incoming gradients by 1/scale, so scale * Tern(w)
    differentiates to exactly 1 w.r.t. w; without it the staircase passes
    gradients through unchanged. For a w that requires no gradient the node
    is a constant holding the codes.
    """
    # 1/scale is taken only when a gradient is: a forward alone runs on any
    # scale, 0.0 included.
    scale = state.scale

    def rule(g):
        return (g * (1.0 / scale if grad_correctness else 1.0),)

    return ag._node(state, (w,), rule, _CodesNode)


def threshold_scale_node(delta_leaf: Tensor, state: QuantizerState) -> Tensor:
    """The scale as a tape function of the threshold, with mu/sigma frozen.

    Forward: the truncated-tail mean at |delta| clipped to [0, 3*sigma].
    Backward: the incoming gradient times dS/d(delta_c), times the clip's
    derivative, in that order.
    """
    sigma = state.sigma
    delta = float(delta_leaf.data)
    params = TruncGaussParams(state.mu, sigma, clip_threshold(delta, sigma))

    def rule(g):
        return (np.asarray((g * d_truncated_mean_d_delta(params)) * clip_threshold_grad(delta, sigma)),)

    return ag._node(np.asarray(truncated_upper_mean(params)), (delta_leaf,), rule)


def dead_outputs(codes: np.ndarray) -> int:
    """Output units whose codes are all zero: the columns of dense (in, out)
    codes, the filters of conv (out, in, kh, kw) codes."""
    nonzero = np.asarray(codes) != 0
    live = nonzero.any(axis=0) if nonzero.ndim == 2 else nonzero.reshape(nonzero.shape[0], -1).any(axis=1)
    return int(live.size - np.count_nonzero(live))


def sparsity(codes) -> float:
    """Fraction of zero codes."""
    arr = np.asarray(codes)
    if arr.size == 0:
        raise ValueError("sparsity of an empty layer is undefined")
    return float(np.mean(arr == 0))
