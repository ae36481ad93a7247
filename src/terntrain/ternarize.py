"""Per-layer weight ternarization with a trainable threshold.

A layer's weights are mapped to codes in {-1, 0, +1} around their mean,
scaled by the closed-form mean of the Gaussian tail beyond the threshold.
Two gradient wirings exist: the threshold phase differentiates the scale
with respect to the threshold while the codes stay frozen, and the weight
phase routes gradients through the staircase with a 1/scale correction so
the composite derivative of the effective weight w.r.t. the float weight
is exactly one.

A layer's codes and the live columns that follow from them are written in
one place, set_codes(): by refresh() for a trained layer, and by the TERN
loader for a packed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, register_custom_grad
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
    exactly while the layer still holds that same array. codes are the
    float64 codes Tern(source), read-only too.

    codes and live_columns are written by set_codes() alone, which derives
    the live columns from the codes: see there.
    """

    delta: float
    mu: float = float("nan")
    sigma: float = float("nan")
    delta_c: float = float("nan")
    scale: float = float("nan")
    codes: np.ndarray | None = field(default=None, repr=False, compare=False)
    source: np.ndarray | None = field(default=None, repr=False, compare=False)
    live_columns: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)


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
    """Elementwise ternary codes; the band [mu-delta_c, mu+delta_c] is inclusive."""
    if delta_c < 0:
        raise ValueError(f"delta_c must be non-negative, got {delta_c}")
    w = np.asarray(w, dtype=np.float64)
    codes = (w > mu + delta_c).astype(np.float64)
    codes -= w < mu - delta_c
    return codes


def refresh(state: QuantizerState, w: np.ndarray) -> QuantizerState:
    """Derive mu, sigma, delta_c, scale, codes and live columns from the weights w.

    mu and sigma are recomputed only when w is not the array the state was
    last derived from; w is then marked read-only, so that the state stays
    exact for as long as the layer holds w. The codes and live columns are
    recomputed when the weights or the clipped threshold changed. delta is
    left unchanged.
    Raises DegenerateLayerError when the weights have zero spread, since
    no Gaussian fit exists then.
    """
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


def set_codes(state: QuantizerState, codes: np.ndarray) -> None:
    """Make the float64 codes the state's codes, read-only, with their live columns.

    For 2-D (dense, in x out) codes with at least one all-zero column,
    live_columns is the indices of the columns holding a nonzero code
    beside the codes on those columns as one contiguous read-only array.
    It is None when every column is live, and for conv codes.
    """
    codes.flags.writeable = False
    state.codes, state.live_columns = codes, None
    if codes.ndim == 2:
        live = (codes != 0).any(axis=0)
        if not live.all():
            idx = np.flatnonzero(live)
            # np.take keeps the row-major layout that codes[:, idx] would not: a
            # batch-1 product then runs the same BLAS routine as on the full codes.
            cols = np.take(codes, idx, axis=1)
            cols.flags.writeable = False
            state.live_columns = (idx, cols)


def is_fresh(state: QuantizerState, w: np.ndarray) -> bool:
    """Whether the state was derived from w and w cannot have changed since.

    refresh() marks the array it derives from read-only, so an in-place
    write raises; a new array bound in its place, or a writable copy such
    as copy.deepcopy makes, is stale until the next refresh().
    """
    return w is state.source and not w.flags.writeable


def assert_fresh(state: QuantizerState, w: np.ndarray) -> None:
    assert is_fresh(state, w), (
        "stale quantizer state: the weights were replaced since the last "
        "refresh(); call refresh() after any weight update"
    )


def ste_codes_node(w: Tensor, state: QuantizerState, grad_correctness: bool = True) -> Tensor:
    """The state's cached Tern(w) as a tape node with the straight-through backward rule.

    The node carries the state's live columns, so a matmul against it
    multiplies only those. The state must be fresh for w.data. With
    grad_correctness the backward multiplies incoming gradients by 1/scale,
    so scale * Tern(w) differentiates to exactly 1 w.r.t. w; without it the
    staircase passes gradients through unchanged.
    """
    # 1/scale is taken only when a gradient is: a forward alone runs on any
    # scale, 0.0 included.
    scale = state.scale
    codes = state.codes
    op = register_custom_grad(
        lambda arr: codes,
        lambda g, arr: (g * (1.0 / scale if grad_correctness else 1.0),),
    )
    node = op(w)
    node.live_columns = state.live_columns
    return node


def threshold_scale_node(delta_leaf: Tensor, state: QuantizerState) -> Tensor:
    """The scale as a tape function of the threshold, with mu/sigma frozen.

    Composes |delta| clipped to [0, 3*sigma] with the truncated-tail mean;
    each stage carries its analytic derivative.
    """
    mu, sigma = state.mu, state.sigma
    clip_op = register_custom_grad(
        lambda d: np.asarray(clip_threshold(float(d), sigma)),
        lambda g, d: (g * clip_threshold_grad(float(d), sigma),),
    )
    mean_op = register_custom_grad(
        lambda dc: np.asarray(truncated_upper_mean(TruncGaussParams(mu, sigma, float(dc)))),
        lambda g, dc: (g * d_truncated_mean_d_delta(TruncGaussParams(mu, sigma, float(dc))),),
    )
    return mean_op(clip_op(delta_leaf))


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
