"""The conv path's memory layout and column lifetime.

A conv output is held batch-last, (C, H, W, N) in memory, and the ReLU,
bias-add and scale nodes after it keep that order, alone or fused into one
add_bias node, so the next conv gathers its columns in contiguous runs of
N values; a copy back to (N, C, H, W) anywhere on that path fails here.
flatten then views the batch-last array as a column-major (N, C*H*W)
matrix, which the dense GEMM reads as it is.
The forward's column buffer outlives the forward only when a kernel
gradient will be taken from it.
"""

import tracemalloc

import numpy as np
import pytest

from terntrain import autograd as ag
from terntrain.autograd import Tensor
from terntrain.network import FLOAT_MODE, build_from_config
from terntrain.ternarize import THRESHOLD_PHASE, WEIGHT_PHASE

BATCH = 16


def _is_batch_last(t: Tensor) -> bool:
    return t.data.transpose(1, 2, 3, 0).flags.c_contiguous


@pytest.mark.parametrize("requires_grad", [False, True])
def test_conv_relu_add_bias_smul_keep_the_batch_last(requires_grad):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(BATCH, 2, 8, 8)))
    w = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=requires_grad)
    b = Tensor(rng.normal(size=3), requires_grad=requires_grad)
    s = Tensor(1.5, requires_grad=requires_grad)
    t = ag.conv2d(x, w, 2, 1)
    assert _is_batch_last(t)
    epilogue = lambda t: ag.add_bias(t, b, s, relu=True)
    for op in (ag.relu, lambda t: ag.add_bias(t, b), lambda t: ag.smul(s, t), epilogue):
        t = op(t)
        assert _is_batch_last(t)
    t = ag.conv2d(t, Tensor(rng.normal(size=(2, 3, 3, 3))), 1, 1)
    assert _is_batch_last(t)
    # flatten orders the features as a row-major (N, C, H, W) array would.
    assert np.array_equal(ag.flatten(t).data, np.ascontiguousarray(t.data).reshape(BATCH, -1))


def _lenet(seed=0):
    model = build_from_config("lenet-small", seed=seed)
    model.init_thresholds(0.1)
    model.refresh_all()
    x = np.random.default_rng(seed).normal(size=(BATCH, 1, 28, 28))
    return model, x


# The smaller of lenet-small's two column buffers, conv0's (1*4*4 rows of
# 14*14*N); no activation of the forward is half as large.
COLUMN_BYTES = 16 * 14 * 14 * BATCH * 8


def _column_sized_blocks_kept(forward) -> list[int]:
    """Sizes of the blocks of COLUMN_BYTES or more that forward allocated
    and that are still alive while its output is."""
    tracemalloc.start()
    try:
        out = forward()
        sizes = [t.size for t in tracemalloc.take_snapshot().traces if t.size >= COLUMN_BYTES]
    finally:
        tracemalloc.stop()
    assert out.shape == (BATCH, 10)
    return sorted(sizes)


def test_no_grad_forward_keeps_no_columns():
    model, x = _lenet()

    def forward():
        with ag.no_grad():
            return model.forward(x, WEIGHT_PHASE)

    assert _column_sized_blocks_kept(forward) == []


def test_threshold_phase_keeps_no_columns():
    """The threshold phase records a graph but takes no kernel gradient
    against its frozen codes."""
    model, x = _lenet()
    assert _column_sized_blocks_kept(lambda: model.forward(x, THRESHOLD_PHASE)) == []


@pytest.mark.parametrize("mode", [WEIGHT_PHASE, FLOAT_MODE])
def test_phases_with_a_kernel_gradient_keep_both_convs_columns(mode):
    model, x = _lenet()
    kept = _column_sized_blocks_kept(lambda: model.forward(x, mode))
    assert kept == [COLUMN_BYTES, 8 * 4 * 4 * 7 * 7 * BATCH * 8]
