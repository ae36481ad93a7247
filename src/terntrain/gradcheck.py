"""Finite-difference verification of every gradient path.

The expected gradients come from central differences of plain forward
evaluations; the backward rules never participate in producing them. Each
check reports its worst relative error against a fixed tolerance, and the
CLI exits non-zero if any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor, backward
from .gaussian import (
    TruncGaussParams,
    clip_threshold,
    d_truncated_mean_d_delta,
    truncated_upper_mean,
)
from .network import LayerSpec, build_from_config
from .ternarize import (
    THRESHOLD_PHASE,
    WEIGHT_PHASE,
    QuantizerState,
    refresh,
    ste_codes_node,
    tern,
    threshold_scale_node,
)

FD_STEP = 1e-6
REL_TOL = 1e-5


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_err <= self.tol


def fd_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f(x)
        flat_x[i] = orig - h
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def _grad_of(loss_fn, tensors: list[Tensor]) -> list[np.ndarray]:
    for t in tensors:
        t.zero_grad()
    backward(loss_fn())
    return [t.grad for t in tensors]


def check_matmul(rng) -> CheckResult:
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    ga, gb = _grad_of(lambda: ag.mean(ag.matmul(a, b)), [a, b])
    err = max(
        max_rel_err(ga, fd_grad(lambda x: float(np.mean(x @ b.data)), a.data)),
        max_rel_err(gb, fd_grad(lambda x: float(np.mean(a.data @ x)), b.data)),
    )
    return CheckResult("matmul", err, REL_TOL)


def check_conv2d(rng) -> CheckResult:
    from . import kernels

    x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    gx, gw = _grad_of(lambda: ag.mean(ag.conv2d(x, w, 2, 1)), [x, w])
    err = max(
        max_rel_err(gx, fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(a, w.data, 2, 1))), x.data)),
        max_rel_err(gw, fd_grad(lambda a: float(np.mean(kernels.conv2d_forward(x.data, a, 2, 1))), w.data)),
    )
    return CheckResult("conv2d", err, REL_TOL)


def check_relu(rng) -> CheckResult:
    # Keep values away from the kink, where finite differences are undefined.
    vals = rng.normal(size=(4, 5))
    vals[np.abs(vals) < 0.05] += 0.1
    x = Tensor(vals, requires_grad=True)
    (gx,) = _grad_of(lambda: ag.mean(ag.relu(x)), [x])
    err = max_rel_err(gx, fd_grad(lambda a: float(np.mean(np.maximum(a, 0.0))), x.data))
    return CheckResult("relu", err, REL_TOL)


def check_add_bias(rng) -> CheckResult:
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    gx, gb = _grad_of(lambda: ag.mean(ag.add_bias(x, b)), [x, b])
    err = max(
        max_rel_err(gx, fd_grad(lambda a: float(np.mean(a + b.data)), x.data)),
        max_rel_err(gb, fd_grad(lambda a: float(np.mean(x.data + a)), b.data)),
    )
    xc = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    bc = Tensor(rng.normal(size=3), requires_grad=True)
    gxc, gbc = _grad_of(lambda: ag.mean(ag.add_bias(xc, bc)), [xc, bc])
    err = max(
        err,
        max_rel_err(gxc, fd_grad(lambda a: float(np.mean(a + bc.data[None, :, None, None])), xc.data)),
        max_rel_err(gbc, fd_grad(lambda a: float(np.mean(xc.data + a[None, :, None, None])), bc.data)),
    )
    return CheckResult("add_bias", err, REL_TOL)


def check_scale_smul(rng) -> CheckResult:
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    (gx,) = _grad_of(lambda: ag.mean(ag.scale_by(x, 2.5)), [x])
    err = max_rel_err(gx, fd_grad(lambda a: float(np.mean(2.5 * a)), x.data))
    s = Tensor(np.float64(1.7), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    gs, gy = _grad_of(lambda: ag.mean(ag.smul(s, y)), [s, y])
    err = max(
        err,
        max_rel_err(gs, fd_grad(lambda a: float(np.mean(float(a) * y.data)), s.data)),
        max_rel_err(gy, fd_grad(lambda a: float(np.mean(float(s.data) * a)), y.data)),
    )
    return CheckResult("scale_by/smul", err, REL_TOL)


def check_softmax_ce(rng) -> CheckResult:
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=4)

    def np_loss(a):
        shifted = a - a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        return float(np.mean(lse - shifted[np.arange(4), targets]))

    (g,) = _grad_of(lambda: ag.softmax_cross_entropy(logits, targets), [logits])
    err = max_rel_err(g, fd_grad(np_loss, logits.data))
    return CheckResult("softmax_cross_entropy", err, 1e-6 * 10)


def check_scale_derivative(n_points: int = 1000, seed: int = 0, margin: float = 1e-3) -> CheckResult:
    """Analytic dS/d(delta_c) against central differences at random params.

    Points keep delta_c at least margin*sigma away from both clip
    boundaries, where the derivative is smooth.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        mu = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.1, 2.0)
        delta_c = sigma * rng.uniform(margin, 3.0 - margin)
        analytic = d_truncated_mean_d_delta(TruncGaussParams(mu, sigma, delta_c))
        h = FD_STEP
        fp = truncated_upper_mean(TruncGaussParams(mu, sigma, delta_c + h))
        fm = truncated_upper_mean(TruncGaussParams(mu, sigma, delta_c - h))
        fd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8))
    return CheckResult("scale_derivative", worst, REL_TOL)


def _fresh_state(w: np.ndarray, delta: float) -> QuantizerState:
    return refresh(QuantizerState(delta), w)


def check_ste_identity(seed: int = 0) -> CheckResult:
    """Weight-phase composite gradient equals the surrogate-identity gradient."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(4, 6)))
    w = Tensor(rng.normal(scale=0.5, size=(6, 5)), requires_grad=True)
    r = rng.normal(size=(5, 3))
    state = _fresh_state(w.data, 0.3)

    def downstream(z: Tensor) -> Tensor:
        return ag.mean(ag.relu(ag.matmul(z, Tensor(r))))

    w.zero_grad()
    codes = ste_codes_node(w, state, grad_correctness=True)
    backward(downstream(ag.scale_by(ag.matmul(x, codes), state.scale)))
    through_ste = w.grad

    w_prime = Tensor(state.scale * tern(w.data, state.mu, state.delta_c), requires_grad=True)
    backward(downstream(ag.matmul(x, w_prime)))
    return CheckResult("ste_identity", max_rel_err(through_ste, w_prime.grad), 1e-6)


def check_threshold_phase_grad(seed: int = 0) -> CheckResult:
    """Threshold-phase gradient against finite differences with frozen codes."""
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.5, size=(40,))
    state = _fresh_state(w, 0.35)
    codes = tern(w, state.mu, state.delta_c)

    # The threshold-phase wiring of Model.forward: the scale as a function of
    # the threshold times the refreshed, frozen codes.
    leaf = Tensor(np.float64(state.delta), requires_grad=True)
    out = ag.smul(threshold_scale_node(leaf, state), Tensor(state.codes))
    backward(ag.tsum(out))
    analytic = float(leaf.grad)

    def f(d):
        dc = clip_threshold(float(d), state.sigma)
        s = truncated_upper_mean(TruncGaussParams(state.mu, state.sigma, dc))
        return float(np.sum(s * codes))

    fd = fd_grad(f, np.float64(state.delta))
    return CheckResult("threshold_phase_grad", max_rel_err(analytic, float(fd)), REL_TOL)


def check_model_composite(seed: int = 0) -> CheckResult:
    """Float-mode MLP: every parameter gradient against finite differences."""
    rng = np.random.default_rng(seed)
    specs = [
        LayerSpec("dense", in_dim=5, out_dim=4, quantized=False),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=4, out_dim=3, quantized=False),
    ]
    model = build_from_config(specs, seed=seed)
    x = rng.normal(size=(6, 5))
    y = rng.integers(0, 3, size=6)

    def loss_value() -> float:
        logits = model.forward(x, "float")
        return float(ag.softmax_cross_entropy(logits, y).data)

    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, "float"), y))
    worst = 0.0
    for p in model.parameters():
        analytic = p.grad
        original = p.data

        def f(arr):
            p.data = arr
            v = loss_value()
            p.data = original
            return v

        worst = max(worst, max_rel_err(analytic, fd_grad(f, original)))
    return CheckResult("model_composite", worst, REL_TOL)


def dead_column_model(seed: int = 0):
    """A small ternary MLP whose quantized layers each have all-zero code columns.

    Two output columns of every layer are shrunk into the threshold band.
    Biases are drawn away from 0, so that a dead unit's output, which is
    its bias alone, sits away from the ReLU kink.
    """
    rng = np.random.default_rng(seed)
    model = build_from_config("mlp-6-5-4-3", seed=seed)
    for layer in model.quantized_layers():
        w = layer.w.data.copy()
        w[:, :2] *= 0.01
        layer.w.data = w
        n = layer.b.size
        layer.b.data = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)
    model.init_thresholds(0.4)
    model.refresh_all()
    return model


def check_dead_column_grads(seed: int = 0) -> CheckResult:
    """Gradients through forwards that multiply only the live code columns.

    Against finite differences with the codes frozen: each threshold's
    gradient in the threshold phase, and each bias's gradient in the weight
    phase, which flows back through the compacted forwards of the later
    layers.
    """
    rng = np.random.default_rng(seed)
    model = dead_column_model(seed)
    layers = model.quantized_layers()
    if any(l.qstate.live_columns is None for l in layers):
        return CheckResult("dead_column_grads", float("inf"), REL_TOL)
    x = rng.normal(size=(6, 6))
    y = rng.integers(0, 3, size=6)

    def loss_value(mode: str) -> float:
        with ag.no_grad():
            return float(ag.softmax_cross_entropy(model.forward(x, mode), y).data)

    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, THRESHOLD_PHASE), y))
    # Each forward below records new leaves; keep these gradients first.
    delta_grads = [float(model.delta_leaves[l.name].grad) for l in layers]
    worst = 0.0
    for layer, analytic in zip(layers, delta_grads):
        st = layer.qstate
        original = st.delta

        def f(d):
            st.delta = float(d)  # no refresh: the threshold forward keeps the cached codes
            v = loss_value(THRESHOLD_PHASE)
            st.delta = original
            return v

        worst = max(worst, max_rel_err(analytic, float(fd_grad(f, np.float64(original)))))

    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, WEIGHT_PHASE), y))
    for layer in layers:
        b, original = layer.b, layer.b.data

        def f(arr):
            b.data = arr
            v = loss_value(WEIGHT_PHASE)
            b.data = original
            return v

        worst = max(worst, max_rel_err(b.grad, fd_grad(f, original)))
    return CheckResult("dead_column_grads", worst, REL_TOL)


def run_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_matmul(rng),
        check_conv2d(rng),
        check_relu(rng),
        check_add_bias(rng),
        check_scale_smul(rng),
        check_softmax_ce(rng),
        check_scale_derivative(seed=seed),
        check_ste_identity(seed=seed),
        check_threshold_phase_grad(seed=seed),
        check_model_composite(seed=seed),
        check_dead_column_grads(seed=seed),
    ]


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
