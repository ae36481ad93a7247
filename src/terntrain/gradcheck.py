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
from .gaussian import TruncGaussParams, d_truncated_mean_d_delta, truncated_upper_mean
from .network import FLOAT_MODE, LayerSpec, Model, build_from_config
from .ternarize import THRESHOLD_PHASE, WEIGHT_PHASE

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


def check_smul(rng) -> CheckResult:
    # A constant scale, as the weight phase multiplies by, then a trainable one.
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    (gx,) = _grad_of(lambda: ag.mean(ag.smul(Tensor(2.5), x)), [x])
    err = max_rel_err(gx, fd_grad(lambda a: float(np.mean(2.5 * a)), x.data))
    s = Tensor(np.float64(1.7), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    gs, gy = _grad_of(lambda: ag.mean(ag.smul(s, y)), [s, y])
    err = max(
        err,
        max_rel_err(gs, fd_grad(lambda a: float(np.mean(float(a) * y.data)), s.data)),
        max_rel_err(gy, fd_grad(lambda a: float(np.mean(float(s.data) * a)), y.data)),
    )
    return CheckResult("smul", err, REL_TOL)


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


def check_ste_identity(seed: int = 0) -> CheckResult:
    """Weight-phase gradients equal those of a float twin whose weights are S * Tern(w).

    With the 1/scale correction the straight-through rule makes the
    effective weight's derivative w.r.t. the float weight exactly one, so
    every weight and bias gradient of Model.forward's weight phase should
    match the twin's float-mode gradient.
    """
    rng = np.random.default_rng(seed)
    model = build_from_config("mlp-6-5-3", seed=seed)
    model.init_thresholds(0.3)
    model.refresh_all()
    effective = iter((l.qstate.scale * l.qstate.codes, l.b.data) for l in model.param_layers())
    twin = Model.from_params(model.specs, model.arch, lambda spec, name, shape: next(effective))
    x = rng.normal(size=(4, 6))
    y = rng.integers(0, 3, size=4)
    for m, mode in ((model, WEIGHT_PHASE), (twin, FLOAT_MODE)):
        m.zero_grad()
        backward(ag.softmax_cross_entropy(m.forward(x, mode), y))
    err = max(max_rel_err(p.grad, q.grad) for p, q in zip(model.parameters(), twin.parameters()))
    return CheckResult("ste_identity", err, 1e-6)


def _offset_biases(model, rng) -> None:
    """Draw every bias at 0.2 to 1 away from 0, so that a unit's input sits
    away from the ReLU kink, where finite differences are undefined."""
    for layer in model.param_layers():
        n = layer.b.size
        layer.b.data = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)


def _loss(model, x: np.ndarray, y: np.ndarray, mode: str) -> float:
    with ag.no_grad():
        return float(ag.softmax_cross_entropy(model.forward(x, mode), y).data)


def _tensor_fd_err(model, x: np.ndarray, y: np.ndarray, mode: str, tensors: list[Tensor]) -> float:
    """Worst relative error of each tensor's gradient against central
    differences of the model's loss in mode."""
    worst = 0.0
    for t in tensors:
        original = t.data

        def f(arr):
            t.data = arr
            v = _loss(model, x, y, mode)
            t.data = original
            return v

        worst = max(worst, max_rel_err(t.grad, fd_grad(f, original)))
    return worst


def _frozen_codes_err(model, x: np.ndarray, y: np.ndarray) -> float:
    """Worst relative error of Model.forward's gradients against central
    differences with the codes frozen: each threshold's gradient in the
    threshold phase, then each quantized layer's bias gradient in the weight
    phase. The model must be refreshed."""
    layers = model.quantized_layers()
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
            v = _loss(model, x, y, THRESHOLD_PHASE)
            st.delta = original
            return v

        worst = max(worst, max_rel_err(analytic, float(fd_grad(f, np.float64(original)))))

    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, WEIGHT_PHASE), y))
    return max(worst, _tensor_fd_err(model, x, y, WEIGHT_PHASE, [l.b for l in layers]))


def check_threshold_phase_grad(seed: int = 0) -> CheckResult:
    """Threshold and bias gradients of a quantized conv + dense model against
    finite differences with the codes frozen."""
    rng = np.random.default_rng(seed)
    conv = LayerSpec("conv2d", in_dim=1, out_dim=3, kernel=3, stride=2, padding=1, quantized=True)
    dense = LayerSpec("dense", in_dim=3 * 3 * 3, out_dim=4, quantized=True)
    model = Model([conv, LayerSpec("relu"), LayerSpec("flatten"), dense], seed=seed)
    _offset_biases(model, rng)
    model.init_thresholds(0.3)
    model.refresh_all()
    x = rng.normal(size=(5, 1, 5, 5))
    y = rng.integers(0, 4, size=5)
    return CheckResult("threshold_phase_grad", _frozen_codes_err(model, x, y), REL_TOL)


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
    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, FLOAT_MODE), y))
    err = _tensor_fd_err(model, x, y, FLOAT_MODE, model.parameters())
    return CheckResult("model_composite", err, REL_TOL)


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
    _offset_biases(model, rng)
    model.init_thresholds(0.4)
    model.refresh_all()
    return model


def check_dead_column_grads(seed: int = 0) -> CheckResult:
    """Gradients through forwards that multiply only the live code columns.

    The threshold and bias gradients of _frozen_codes_err; each bias's
    gradient flows back through the compacted forwards of the later layers.
    """
    rng = np.random.default_rng(seed)
    model = dead_column_model(seed)
    if any(l.qstate.live_columns is None for l in model.quantized_layers()):
        return CheckResult("dead_column_grads", float("inf"), REL_TOL)
    x = rng.normal(size=(6, 6))
    y = rng.integers(0, 3, size=6)
    return CheckResult("dead_column_grads", _frozen_codes_err(model, x, y), REL_TOL)


def run_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_matmul(rng),
        check_conv2d(rng),
        check_relu(rng),
        check_add_bias(rng),
        check_smul(rng),
        check_softmax_ce(rng),
        check_scale_derivative(seed=seed),
        check_ste_identity(seed=seed),
        check_threshold_phase_grad(seed=seed),
        check_model_composite(seed=seed),
        check_dead_column_grads(seed=seed),
    ]


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
