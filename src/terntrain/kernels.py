"""Convolution kernels: one numpy im2col/GEMM path.

Every kernel computes the same cross-correlation (no kernel flip) with zero
padding, on float64 arrays, as in Chellapilla, Puri & Simard (2006): the
padded input's receptive fields are gathered into a column buffer of shape
(N, C*kh*kw, Ho*Wo) and contracted with the kernel by one batched matmul.
The forward pass and the kernel gradient share that buffer layout; the
input gradient is the transposed contraction, scattered back with kh*kw
strided slice-adds, and is returned as a batch-last array seen through an
(N, C, H, W) transpose. The column buffer costs N*C*kh*kw*Ho*Wo doubles per
call, about 13 MB for lenet-small's second conv at batch 256.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def backend() -> str:
    """Name of the kernel backend; there is one, "numpy"."""
    return "numpy"


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int) -> tuple[int, int]:
    """Output spatial extents; rejects configurations with fractional extents."""
    if stride < 1 or padding < 0:
        raise ValueError(f"bad stride/padding: stride={stride}, padding={padding}")
    num_h = h + 2 * padding - kh
    num_w = w + 2 * padding - kw
    if num_h < 0 or num_w < 0:
        raise ValueError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (padding={padding})")
    if num_h % stride or num_w % stride:
        raise ValueError(
            f"non-integral conv output extent: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride={stride}, padding={padding}"
        )
    return num_h // stride + 1, num_w // stride + 1


def _as_f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_grad(g: np.ndarray, out_shape: tuple) -> None:
    if g.shape != out_shape:
        raise ValueError(f"conv2d output gradient shape {g.shape} does not match {out_shape}")


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """im2col: x[N,C,H,W] -> contiguous (N, C*kh*kw, Ho*Wo) receptive fields."""
    n, c = x.shape[:2]
    ho, wo = conv_out_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    if padding:
        xp = np.zeros((n, c, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:-padding, padding:-padding] = x
        x = xp
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # win is (N, C, Ho, Wo, kh, kw); the reshape copies it into the buffer.
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlate x[N,C,H,W] with w[F,C,kh,kw]; zero padding."""
    x = _as_f64(x)
    w = _as_f64(w)
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d shape mismatch: x{x.shape} w{w.shape}")
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    cols = _columns(x, kh, kw, stride, padding)
    return (w.reshape(f, -1) @ cols).reshape(x.shape[0], f, ho, wo)


def conv2d_backward_x(g: np.ndarray, x_shape: tuple, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Gradient of the conv output w.r.t. its input."""
    g = _as_f64(g)
    w = _as_f64(w)
    n, c, h, w_in = x_shape
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(h, w_in, kh, kw, stride, padding)
    _check_grad(g, (n, f, ho, wo))
    # Contract over F into (kh, kw, C, Ho, Wo, N) and scatter with the batch
    # as the innermost axis: each offset's slice-add then runs over N-long
    # contiguous rows instead of Wo-long strided ones.
    wk = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    gt = g.transpose(1, 2, 3, 0).reshape(f, ho * wo * n)
    gcols = (wk @ gt).reshape(kh, kw, c, ho, wo, n)
    gxp = np.zeros((c, h + 2 * padding, w_in + 2 * padding, n))
    for p in range(kh):
        for q in range(kw):
            gxp[:, p : p + stride * ho : stride, q : q + stride * wo : stride] += gcols[p, q]
    return gxp[:, padding : padding + h, padding : padding + w_in].transpose(3, 0, 1, 2)


def conv2d_backward_w(g: np.ndarray, x: np.ndarray, w_shape: tuple, stride: int, padding: int) -> np.ndarray:
    """Gradient of the conv output w.r.t. the kernel."""
    g = _as_f64(g)
    x = _as_f64(x)
    n, _, h, w_in = x.shape
    f, _, kh, kw = w_shape
    _check_grad(g, (n, f) + conv_out_hw(h, w_in, kh, kw, stride, padding))
    cols = _columns(x, kh, kw, stride, padding)
    return (g.reshape(n, f, -1) @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
