"""Convolution kernels: one numpy im2col/GEMM path, batch innermost.

Every kernel computes the same cross-correlation (no kernel flip) with zero
padding, on float64 arrays, as in Chellapilla, Puri & Simard (2006): the
padded input's receptive fields are gathered into a column buffer and
contracted with the kernel. The buffer is (C*kh*kw, Ho*Wo*N) with the batch
as the innermost axis, so each conv op is one 2-D GEMM:
- forward: the kernel as (F, C*kh*kw) times the columns;
- input gradient: the kernel transposed times the output gradient as
  (F, Ho*Wo*N), scattered back with kh*kw slice-adds;
- kernel gradient: the output gradient as (F, Ho*Wo*N) times the columns
  transposed, from the forward's columns when the caller kept them.

Inputs and outputs are (N, C, H, W) arrays of any memory order. Outputs are
batch-last, (C, H, W, N) in memory, seen through an (N, C, H, W) transpose;
an input held that way is gathered in contiguous runs of N values. The
column buffer holds N*C*kh*kw*Ho*Wo doubles: 1.6 MB and 3.2 MB for
lenet-small's two convs at batch 64, 6.4 MB and 12.8 MB at batch 256.
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


def _check_grad(g: np.ndarray, out_shape: tuple) -> None:
    if g.shape != out_shape:
        raise ValueError(f"conv2d output gradient shape {g.shape} does not match {out_shape}")


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """im2col: x[N,C,H,W] -> (C*kh*kw, Ho*Wo*N) receptive fields, batch innermost."""
    n, c, h, w = x.shape
    xt = x.transpose(1, 2, 3, 0)  # a view, contiguous when x is batch-last
    if padding:
        xp = np.zeros((c, h + 2 * padding, w + 2 * padding, n))
        xp[:, padding : padding + h, padding : padding + w] = xt
        xt = xp
    win = sliding_window_view(xt, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # win is (C, Ho, Wo, N, kh, kw); the reshape copies it into the buffer,
    # moving N-long runs when x is batch-last.
    return win.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, -1)


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int, keep_columns: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Cross-correlate x[N,C,H,W] with w[F,C,kh,kw]; zero padding.

    Returns the (N, F, Ho, Wo) output, batch-last in memory; with
    keep_columns, the pair (output, columns) for conv2d_backward_w.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d shape mismatch: x{x.shape} w{w.shape}")
    n = x.shape[0]
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    cols = _columns(x, kh, kw, stride, padding)
    out = (w.reshape(f, -1) @ cols).reshape(f, ho, wo, n).transpose(3, 0, 1, 2)
    return (out, cols) if keep_columns else out


def conv2d_backward_x(g: np.ndarray, x_shape: tuple, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Gradient of the conv output w.r.t. its input, batch-last in memory."""
    g = np.asarray(g, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    n, c, h, w_in = x_shape
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(h, w_in, kh, kw, stride, padding)
    _check_grad(g, (n, f, ho, wo))
    # Gradient columns tap-major, (kh, kw, C, Ho, Wo, N): each tap's
    # slice-add reads one contiguous block and runs over N-long rows.
    wk = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    gcols = (wk @ g.transpose(1, 2, 3, 0).reshape(f, -1)).reshape(kh, kw, c, ho, wo, n)
    gxp = np.zeros((c, h + 2 * padding, w_in + 2 * padding, n))
    for p in range(kh):
        for q in range(kw):
            gxp[:, p : p + stride * ho : stride, q : q + stride * wo : stride] += gcols[p, q]
    return gxp[:, padding : padding + h, padding : padding + w_in].transpose(3, 0, 1, 2)


def conv2d_backward_w(
    g: np.ndarray, x: np.ndarray, w_shape: tuple, stride: int, padding: int, cols: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the conv output w.r.t. the kernel; cols, when given, are
    the columns conv2d_forward kept for this x."""
    g = np.asarray(g, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, _, h, w_in = x.shape
    f, _, kh, kw = w_shape
    _check_grad(g, (n, f) + conv_out_hw(h, w_in, kh, kw, stride, padding))
    if cols is None:
        cols = _columns(x, kh, kw, stride, padding)
    return (g.transpose(1, 2, 3, 0).reshape(f, -1) @ cols.T).reshape(w_shape)
