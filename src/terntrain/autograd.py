"""Reverse-mode autodiff over dense float64 arrays.

Define-by-run: every operation returns a fresh node holding references to
its inputs and a closure mapping the output gradient to input gradients, so
the recorded graph (the tape) is rebuilt on each forward pass and is always
topologically ordered by construction. backward() walks it once from the
loss and accumulates into leaf .grad, a read-only array; repeated calls
without zero_grad() accumulate. Leaves persist across steps, graphs do not.
Inside a no_grad() block nothing is recorded: ops return plain result
tensors, so an evaluation pass holds no graph. Backward rules compute a
gradient only for the inputs that require one.

No broadcasting beyond bias-add; explicit shapes keep the finite-difference
checks unambiguous.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from . import kernels

BackwardRule = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class Tensor:
    """A float64 array, optionally tracked for gradients.

    data keeps the memory order it was made in: a conv output and the
    ReLU, bias-add and scale nodes that follow it are batch-last, (C, H, W,
    N) in memory, seen through an (N, C, H, W) transpose.

    live_columns, when set on a 2-D tensor, is (indices, data[:, indices]
    as one contiguous array) and promises that every other column of data
    is zero; matmul then multiplies only those columns.
    ternarize.ste_codes_node sets it on a ternary layer's codes, whose
    node builds its data on the first read: a product reads data, and
    matmul and backward() read only such a node's shape.
    """

    # Class-level defaults: a node sets only what differs from them.
    requires_grad = False
    grad: np.ndarray | None = None
    _parents: tuple[Tensor, ...] = ()
    _backward: BackwardRule | None = None
    live_columns: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if requires_grad:
            self.requires_grad = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block; the previous setting returns on exit."""
    global _recording
    before = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = before


def _node(data, parents: Sequence[Tensor], backward_rule: BackwardRule, tensor: type[Tensor] = Tensor) -> Tensor:
    """The one node constructor of every op. The node is tensor(data): a
    Tensor holding data, or a Tensor subclass that builds its data from the
    argument on the first read. backward_rule maps the output gradient to
    one gradient (or None) per parent; backward() checks each one's shape
    against its parent. Parents and rule are recorded only while recording
    and when some parent requires a gradient."""
    out = tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_rule
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b; with b.live_columns set, the product of only those columns,
    scattered into zeros. Each output sums the same terms either way, but
    the BLAS kernel that sums a column can depend on the matrix width, so
    the two may differ in the last bits. The backward rule uses the full b."""
    # b's shape, not b.data: a codes node builds its data only when a product reads it.
    b_shape = b.shape
    if a.data.ndim != 2 or len(b_shape) != 2 or a.shape[1] != b_shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b_shape}")

    def rule(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    if b.live_columns is None:
        out = a.data @ b.data
    else:
        idx, cols = b.live_columns
        out = np.zeros((a.shape[0], b_shape[1]))
        out[:, idx] = a.data @ cols
    return _node(out, (a, b), rule)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[N,C,H,W] with w[F,C,kh,kw]; the output is batch-last.

    The forward's column buffer is kept for the kernel gradient only when
    one will be taken: while recording, against a kernel that requires a
    gradient. A no_grad pass and a frozen kernel free it at once.
    """
    out, cols = kernels.conv2d_forward(x.data, w.data, stride, padding)
    if not (_recording and w.requires_grad):
        cols = None

    def rule(g):
        gx = kernels.conv2d_backward_x(g, x.data.shape, w.data, stride, padding) if x.requires_grad else None
        gw = kernels.conv2d_backward_w(g, x.data, w.data.shape, stride, padding, cols) if w.requires_grad else None
        return gx, gw

    return _node(out, (x, w), rule)


def relu(x: Tensor) -> Tensor:
    # The mask is built by the backward rule from the parent's data, so a
    # forward that records nothing builds none.
    def rule(g):
        return (g * (x.data > 0),)

    return _node(np.maximum(x.data, 0.0), (x,), rule)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Bias add: [N,D]+[D] for dense outputs, [N,F,H,W]+[F] for conv outputs."""
    if x.data.ndim == 2 and b.data.ndim == 1 and x.shape[1] == b.shape[0]:
        data = x.data + b.data

        def rule(g):
            return g, (g.sum(axis=0) if b.requires_grad else None)

    elif x.data.ndim == 4 and b.data.ndim == 1 and x.shape[1] == b.shape[0]:
        data = x.data + b.data[None, :, None, None]

        def rule(g):
            return g, (g.sum(axis=(0, 2, 3)) if b.requires_grad else None)

    else:
        raise ValueError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    return _node(data, (x, b), rule)


def smul(s: Tensor, x: Tensor) -> Tensor:
    """Multiply an array by a scalar Tensor; each side that requires a gradient gets one."""
    if s.data.size != 1:
        raise ValueError(f"smul scale must be a scalar tensor, got shape {s.shape}")
    sval = float(s.data)

    def rule(g):
        gs = np.asarray(np.sum(g * x.data)).reshape(s.data.shape) if s.requires_grad else None
        return gs, (g * sval if x.requires_grad else None)

    return _node(sval * x.data, (s, x), rule)


def mean(x: Tensor) -> Tensor:
    n = x.data.size

    def rule(g):
        return ((float(g) / n) * np.ones_like(x.data),)

    return _node(np.asarray(np.mean(x.data)), (x,), rule)


def flatten(x: Tensor) -> Tensor:
    """(N, ...) -> (N, features) in row-major feature order; a batch-last
    conv output is viewed, not copied, as a column-major matrix."""
    n = x.data.shape[0]
    data = x.data.reshape(n, -1)

    def rule(g):
        # Hand the gradient back in x's memory order, so that the ops before
        # flatten run on matching layouts.
        gx = np.empty_like(x.data)
        gx[...] = g.reshape(gx.shape)
        return (gx,)

    return _node(data, (x,), rule)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target]."""
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    t = np.asarray(targets)
    n, k = logits.shape
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match batch size {n}")
    if t.min() < 0 or t.max() >= k:
        raise ValueError(f"target class out of range [0, {k})")
    t = t.astype(np.intp)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1))
    losses = lse - shifted[np.arange(n), t]

    def rule(g):
        p = np.exp(shifted - lse[:, None])
        p[np.arange(n), t] -= 1.0
        return (float(g) * p / n,)

    return _node(np.asarray(losses.mean()), (logits,), rule)


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into every reachable requires_grad leaf."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")

    # Iterative post-order over the recorded graph; only grad-requiring
    # branches are walked.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                # A read-only view, not a copy: g may be shared with other
                # nodes, so a stray in-place write to .grad must raise.
                grad = np.asarray(g if node.grad is None else node.grad + g).view()
                grad.flags.writeable = False
                node.grad = grad
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if pg.shape != p.shape:
                raise ValueError(
                    f"backward rule produced gradient of shape {pg.shape} "
                    f"for input of shape {p.shape}"
                )
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
