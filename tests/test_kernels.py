import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from terntrain import kernels


def _reference(x, w, g, stride, padding):
    """Forward, input gradient and kernel gradient by direct loops over every tap."""
    n_, c_, h_, w_in = x.shape
    f_, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    out = np.zeros((n_, f_, ho, wo))
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for n in range(n_):
        for f in range(f_):
            for i in range(ho):
                for j in range(wo):
                    for c in range(c_):
                        for p in range(kh):
                            yy = i * stride - padding + p
                            if not 0 <= yy < h_:
                                continue
                            for q in range(kw):
                                xx = j * stride - padding + q
                                if 0 <= xx < w_in:
                                    out[n, f, i, j] += x[n, c, yy, xx] * w[f, c, p, q]
                                    gx[n, c, yy, xx] += g[n, f, i, j] * w[f, c, p, q]
                                    gw[f, c, p, q] += g[n, f, i, j] * x[n, c, yy, xx]
    return out, gx, gw


def _batch_last(a):
    """a's values held (C, H, W, N) in memory, seen as (N, C, H, W), as a conv output is."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


CASES = [
    # n, c, h, w, f, k, stride, padding
    (2, 1, 6, 6, 3, 3, 1, 1),
    (1, 2, 8, 8, 4, 4, 2, 1),
    (3, 2, 5, 7, 2, 3, 1, 0),
    (2, 3, 9, 9, 5, 3, 3, 0),
    (2, 1, 28, 28, 8, 4, 2, 1),  # lenet-small conv0
    (2, 8, 14, 14, 16, 4, 2, 1),  # lenet-small conv1
    (2, 2, 7, 6, 3, 5, 1, 2),
    (1, 2, 9, 7, 2, 3, 2, 2),
]


def _check_against_direct_loops(x_shape, w_shape, stride, padding, hold, seed):
    """Each kernel against the direct loops, the kernel gradient from the
    forward's columns, with x and g held in memory by hold."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    wt = rng.normal(size=w_shape)
    ho, wo = kernels.conv_out_hw(*x_shape[2:], *w_shape[2:], stride, padding)
    g = rng.normal(size=(x_shape[0], w_shape[0], ho, wo))
    expected = _reference(x, wt, g, stride, padding)
    x, g = hold(x), hold(g)

    out, cols = kernels.conv2d_forward(x, wt, stride, padding)
    got = (
        out,
        kernels.conv2d_backward_x(g, x.shape, wt, stride, padding),
        kernels.conv2d_backward_w(g, x, wt.shape, stride, padding, cols),
    )
    for a, b in zip(got, expected, strict=True):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def _check_case(case, hold):
    n, c, h, w, f, k, stride, padding = case
    _check_against_direct_loops((n, c, h, w), (f, c, k, k), stride, padding, hold, seed=sum(case))


@pytest.mark.parametrize("case", CASES)
def test_kernels_match_direct_loops(case):
    _check_case(case, np.ascontiguousarray)


@pytest.mark.parametrize("case", CASES)
def test_kernels_match_direct_loops_batch_last(case):
    """x and g as a conv output and the gradient reaching it are held:
    (N, C, H, W) views of (C, H, W, N) arrays."""
    _check_case(case, _batch_last)


@st.composite
def conv_configs(draw):
    """Stride 1-3, each kernel side 1-5 (often not a multiple of the stride),
    padding 0-2 and H != W, drawn through the output extents so that they
    are integral."""
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ho, wo = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = stride * (ho - 1) + kh - 2 * padding, stride * (wo - 1) + kw - 2 * padding
    assume(h >= 1 and w >= 1 and h != w)
    n, c, f = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (n, c, h, w), (f, c, kh, kw), stride, padding


@given(conv_configs(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kernels_match_direct_loops_on_drawn_configs(config, seed):
    for hold in (np.ascontiguousarray, _batch_last):
        _check_against_direct_loops(*config, hold, seed)


def test_all_ones_3x3_sums_to_nine():
    out = kernels.conv2d_forward(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)), 1, 0)[0]
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 9.0


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_conv_out_hw():
    assert kernels.conv_out_hw(28, 28, 4, 4, 2, 1) == (14, 14)
    assert kernels.conv_out_hw(3, 3, 3, 3, 1, 0) == (1, 1)
    with pytest.raises(ValueError, match="non-integral"):
        kernels.conv_out_hw(28, 28, 5, 5, 2, 2)
    with pytest.raises(ValueError):
        kernels.conv_out_hw(3, 3, 5, 5, 1, 0)
    with pytest.raises(ValueError):
        kernels.conv_out_hw(3, 3, 3, 3, 0, 0)


def test_forward_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        kernels.conv2d_forward(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)), 1, 0)


def test_backward_rejects_mismatched_output_gradient():
    x = np.ones((2, 1, 4, 4))
    w = np.ones((3, 1, 3, 3))
    g = np.ones((2, 3, 3, 3))  # the output is 2x2 at stride 1, padding 0
    with pytest.raises(ValueError, match="gradient shape"):
        kernels.conv2d_backward_x(g, x.shape, w, 1, 0)
    with pytest.raises(ValueError, match="gradient shape"):
        kernels.conv2d_backward_w(g, x, w.shape, 1, 0, kernels.conv2d_forward(x, w, 1, 0)[1])


@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "strided"])
def test_windows_is_a_read_only_view_of_every_receptive_field(contiguous):
    x = np.random.default_rng(41).normal(size=(2, 3, 7, 6))
    xt = x.transpose(1, 2, 3, 0)  # (C, H, W, N), not contiguous
    if contiguous:
        xt = np.ascontiguousarray(xt)
    win = kernels._windows(xt, 3, 2, 2)
    assert win.shape == (3, 3, 2, 3, 3, 2) and not win.flags.writeable
    for p in range(3):
        for q in range(2):
            assert np.array_equal(win[:, p, q], xt[:, p : p + 5 : 2, q : q + 5 : 2])
    if contiguous:
        assert np.shares_memory(win, xt)
