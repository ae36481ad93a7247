"""Convolution kernels: one numpy im2col/GEMM path, batch innermost.

Every kernel computes the same cross-correlation (no kernel flip) with zero
padding, on float64 arrays, as in Chellapilla, Puri & Simard (2006): the
padded input's receptive fields are gathered into a column buffer and
contracted with the kernel. The buffer is (C*kh*kw, Ho*Wo*N) with the batch
as the innermost axis, so each conv op is one 2-D GEMM:
- forward: the kernel as (F, C*kh*kw) times the columns;
- input gradient: one GEMM over the stride phases (Dumoulin & Visin,
  arXiv 1603.07285). Each of the s*s phases of the input gradient is a
  stride-1 correlation of the output gradient with a flipped th x tw
  sub-kernel, th = ceil(kh/s) and tw = ceil(kw/s). The phases' sub-kernels,
  as (s*s*C, F*th*tw), multiply the columns of the padded output gradient,
  gathered by the forward's window helper, and the product is interleaved
  into the input gradient, with no scatter;
- kernel gradient: the output gradient as (F, Ho*Wo*N) times the
  forward's columns transposed.

Inputs and outputs are (N, C, H, W) arrays of any memory order. Outputs are
batch-last, (C, H, W, N) in memory, seen through an (N, C, H, W) transpose;
an input held that way is gathered in contiguous runs of N values. The
forward's column buffer holds N*C*kh*kw*Ho*Wo doubles: 1.6 MB and 3.2 MB for
lenet-small's two convs at batch 64, 6.4 MB and 12.8 MB at batch 256. The
input gradient's holds N*F*th*tw*(Ho+th-1)*(Wo+tw-1): 2.1 MB for conv1 at
batch 64, 8.4 MB at batch 256.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


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


def _pad(xt: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """xt[C,H,W,N] with ph zero rows above and below and pw zero columns either side."""
    if not (ph or pw):
        return xt
    c, h, w, n = xt.shape
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw, n))
    xp[:, ph : ph + h, pw : pw + w] = xt
    return xp


def _windows(xt: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The kh x kw receptive fields of xt[C,H,W,N] at this stride: a
    read-only (C, kh, kw, Ho, Wo, N) view, batch innermost."""
    c, h, w, n = xt.shape
    sc, sh, sw, sn = xt.strides
    shape = (c, kh, kw, (h - kh) // stride + 1, (w - kw) // stride + 1, n)
    return as_strided(xt, shape, (sc, sh, sw, sh * stride, sw * stride, sn), writeable=False)


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """im2col: x[N,C,H,W] -> (C*kh*kw, Ho*Wo*N) receptive fields, batch innermost.

    The reshape copies the window view into the buffer, moving N-long runs
    when x is batch-last.
    """
    xt = x.transpose(1, 2, 3, 0)  # a view, contiguous when x is batch-last
    return _windows(_pad(xt, padding, padding), kh, kw, stride).reshape(x.shape[1] * kh * kw, -1)


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlate x[N,C,H,W] with w[F,C,kh,kw]; zero padding.

    Returns the (N, F, Ho, Wo) output, batch-last in memory, and the
    columns it was computed from, which conv2d_backward_w takes.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d shape mismatch: x{x.shape} w{w.shape}")
    n = x.shape[0]
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    cols = _columns(x, kh, kw, stride, padding)
    return (w.reshape(f, -1) @ cols).reshape(f, ho, wo, n).transpose(3, 0, 1, 2), cols


def conv2d_backward_x(g: np.ndarray, x_shape: tuple, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Gradient of the conv output w.r.t. its input, batch-last in memory.

    At stride s, tap (p, q) = (a + s*k, b + s*l) sends output (i, j) to
    padded input row s*(i+k) + a, column s*(j+l) + b. So each stride phase
    (a, b) of the padded input gradient is a stride-1 correlation of the
    output gradient, zero-padded by th-1 and tw-1, with that phase's flipped
    th x tw sub-kernel, th = ceil(kh/s) and tw = ceil(kw/s); the kernel is
    zero-padded to s*th x s*tw. The s*s phases are the rows of one GEMM over
    one set of gradient columns, interleaved into the padded input gradient,
    which is then cropped.
    """
    g = np.asarray(g, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    n, c, h, w_in = x_shape
    f, _, kh, kw = w.shape
    ho, wo = conv_out_hw(h, w_in, kh, kw, stride, padding)
    _check_grad(g, (n, f, ho, wo))
    s = stride
    th, tw = -(-kh // s), -(-kw // s)
    rh, rw = ho + th - 1, wo + tw - 1  # phase extents; s*rh x s*rw covers the padded input
    wz = np.zeros((f, c, s * th, s * tw))
    wz[:, :, :kh, :kw] = w
    # wz[f, c, s*k + a, s*l + b] -> row (a, b, c), column (f, th-1-k, tw-1-l).
    wk = wz.reshape(f, c, th, s, tw, s)[:, :, ::-1, :, ::-1].transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, -1)
    # One expression, so that the padded gradient and its columns are freed
    # before the interleave copy.
    phases = wk @ _windows(_pad(g.transpose(1, 2, 3, 0), th - 1, tw - 1), th, tw, 1).reshape(f * th * tw, -1)
    gxp = phases.reshape(s, s, c, rh, rw, n).transpose(2, 3, 0, 4, 1, 5).reshape(c, s * rh, s * rw, n)
    return gxp[:, padding : padding + h, padding : padding + w_in].transpose(3, 0, 1, 2)


def conv2d_backward_w(
    g: np.ndarray, x: np.ndarray, w_shape: tuple, stride: int, padding: int, cols: np.ndarray
) -> np.ndarray:
    """Gradient of the conv output w.r.t. the kernel, from the columns
    conv2d_forward returned for this x."""
    g = np.asarray(g, dtype=np.float64)
    n, _, h, w_in = x.shape
    f, _, kh, kw = w_shape
    _check_grad(g, (n, f) + conv_out_hw(h, w_in, kh, kw, stride, padding))
    return (g.transpose(1, 2, 3, 0).reshape(f, -1) @ cols.T).reshape(w_shape)
