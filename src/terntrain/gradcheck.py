"""Finite-difference verification of every gradient path.

The expected gradients come from central differences of plain forward
evaluations; the backward rules never participate in producing them. Every
comparison with finite differences goes through _fd_err, whose floor
absorbs the central difference's own rounding. The op checks run each
autograd op against its numpy twin; the ternary checks (the straight-through
identity, the threshold phase with frozen codes, and the float forward)
share one model, ternary_fixture: a quantized conv and two quantized dense
layers with dead code columns. Each check reports its worst relative error
against a fixed tolerance, and the CLI exits non-zero if any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import kernels
from .autograd import Tensor, backward
from .gaussian import TruncGaussParams, d_truncated_mean_d_delta, truncated_upper_mean
from .network import FLOAT_MODE, LayerSpec, Model, glorot
from .ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, QuantizerState

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
    """Central-difference gradient of a scalar function of an array.

    f sees a row-major copy of x, whatever x's memory order."""
    x = np.array(x, dtype=np.float64, order="C")
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


def _fd_err(analytic, f, x) -> float:
    """Worst relative error of an analytic gradient against fd_grad(f, x).

    Each evaluation of f rounds within a few eps of |f(x)|, so a central
    difference carries about eps * |f(x)| / FD_STEP of error in every entry
    whatever the gradient's size. The floor is set so that 8 times that
    rounding reads as REL_TOL: an entry near zero is compared on that
    absolute scale instead of against its own noise.
    """
    floor = max(1e-8, 8 * np.finfo(np.float64).eps * abs(f(x)) / FD_STEP / REL_TOL)
    return max_rel_err(analytic, fd_grad(f, x), floor)


def _op_err(op, reference, inputs: list[np.ndarray]) -> float:
    """Worst error of the gradients of mean(op(*inputs)) against central
    differences of mean(reference(*inputs)), reference being op's numpy twin."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    backward(ag.mean(op(*tensors)))
    worst = 0.0
    for i, t in enumerate(tensors):

        def f(a, i=i):
            return float(np.mean(reference(*inputs[:i], a, *inputs[i + 1 :])))

        worst = max(worst, _fd_err(t.grad, f, inputs[i]))
    return worst


def check_matmul(rng) -> CheckResult:
    err = _op_err(ag.matmul, np.matmul, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])
    return CheckResult("matmul", err, REL_TOL)


def check_conv2d(rng) -> CheckResult:
    """One input held row-major, then held batch-last as a conv that
    follows a conv receives it."""
    x, w = rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3))
    batch_last = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    err = max(
        _op_err(lambda a, b: ag.conv2d(a, b, 2, 1), lambda a, b: kernels.conv2d_forward(a, b, 2, 1)[0], [held, w])
        for held in (x, batch_last)
    )
    return CheckResult("conv2d", err, REL_TOL)


def check_relu(rng) -> CheckResult:
    # Keep values away from the kink, where finite differences are undefined.
    vals = rng.normal(size=(4, 5))
    vals[np.abs(vals) < 0.05] += 0.1
    return CheckResult("relu", _op_err(ag.relu, lambda a: np.maximum(a, 0.0), [vals]), REL_TOL)


def check_add_bias(rng) -> CheckResult:
    err = max(
        _op_err(ag.add_bias, np.add, [rng.normal(size=(3, 4)), rng.normal(size=4)]),
        _op_err(
            ag.add_bias,
            lambda x, b: x + b[None, :, None, None],
            [rng.normal(size=(2, 3, 4, 4)), rng.normal(size=3)],
        ),
    )
    return CheckResult("add_bias", err, REL_TOL)


def check_smul(rng) -> CheckResult:
    # A constant scale, as the weight phase multiplies by, then a trainable one.
    err = max(
        _op_err(lambda x: ag.smul(Tensor(2.5), x), lambda x: 2.5 * x, [rng.normal(size=(3, 3))]),
        _op_err(ag.smul, lambda s, y: float(s) * y, [np.float64(1.7), rng.normal(size=(3, 3))]),
    )
    return CheckResult("smul", err, REL_TOL)


def check_softmax_ce(rng) -> CheckResult:
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)

    def np_loss(a):
        shifted = a - a.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        return np.mean(lse - shifted[np.arange(4), targets])

    err = _op_err(lambda t: ag.softmax_cross_entropy(t, targets), np_loss, [logits])
    return CheckResult("softmax_cross_entropy", err, REL_TOL)


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

        def f(d):
            return truncated_upper_mean(TruncGaussParams(mu, sigma, float(d)))

        worst = max(worst, _fd_err(analytic, f, delta_c))
    return CheckResult("scale_derivative", worst, REL_TOL)


def ternary_fixture(seed: int = 0) -> tuple[Model, np.ndarray, np.ndarray]:
    """A refreshed ternary conv + dense model with dead code columns, and a batch.

    A quantized conv (1 to 3 channels, kernel 3, stride 2, padding 1) feeds
    a quantized dense 27 to 5 and a quantized dense 5 to 4. Two columns of
    each dense layer are shrunk into the threshold band, so those layers
    multiply only their live columns. Every bias is drawn 0.2 to 1 away
    from 0, so that a unit's input, and a dead unit's output, its bias
    alone, sit away from the ReLU kink, where finite differences are
    undefined.
    """
    rng = np.random.default_rng(seed)
    specs = [
        LayerSpec("conv2d", in_dim=1, out_dim=3, kernel=3, stride=2, padding=1, quantized=True),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", in_dim=27, out_dim=5, quantized=True),
        LayerSpec("relu"),
        LayerSpec("dense", in_dim=5, out_dim=4, quantized=True),
    ]
    model = Model(specs, glorot(seed))
    for layer in model.param_layers():
        if layer.spec.kind == "dense":
            w = layer.w.data.copy()
            w[:, :2] *= 0.01
            layer.w.data = w
        n = layer.b.size
        layer.b.data = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.2, 1.0, size=n)
    model.init_thresholds(0.4)
    model.refresh_all()
    return model, rng.normal(size=(6, 1, 5, 5)), rng.integers(0, 4, size=6)


def check_ste_identity(seed: int = 0) -> CheckResult:
    """Weight-phase gradients equal those of a float twin whose weights are S * Tern(w).

    With the 1/scale correction the straight-through rule makes the
    effective weight's derivative w.r.t. the float weight exactly one, so
    every weight and bias gradient of Model.forward's weight phase should
    match the twin's float-mode gradient.
    """
    model, x, y = ternary_fixture(seed)
    layers = model.param_layers()
    effective = iter((l.qstate.scale * l.qstate.codes, l.b.data, QuantizerState(0.0)) for l in layers)
    twin = Model(model.specs, lambda spec, name, shape: next(effective), model.arch)
    for m, mode in ((model, WEIGHT_PHASE), (twin, FLOAT_MODE)):
        m.zero_grad()
        backward(ag.softmax_cross_entropy(m.forward(x, mode), y))
    err = max(max_rel_err(p.grad, q.grad) for p, q in zip(model.parameters(), twin.parameters()))
    return CheckResult("ste_identity", err, 1e-6)


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

        worst = max(worst, _fd_err(t.grad, f, original))
    return worst


def check_threshold_phase_grad(seed: int = 0) -> CheckResult:
    """Threshold and bias gradients of Model.forward against finite
    differences with the codes frozen: each threshold's gradient in the
    threshold phase, then each quantized layer's bias gradient in the
    weight phase, which flows back through the live-column forwards of the
    later layers."""
    model, x, y = ternary_fixture(seed)
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

        worst = max(worst, _fd_err(analytic, f, original))

    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, WEIGHT_PHASE), y))
    worst = max(worst, _tensor_fd_err(model, x, y, WEIGHT_PHASE, [l.b for l in layers]))
    return CheckResult("threshold_phase_grad", worst, REL_TOL)


def check_model_composite(seed: int = 0) -> CheckResult:
    """Every parameter gradient of the fixture's float forward against finite differences."""
    model, x, y = ternary_fixture(seed)
    model.zero_grad()
    backward(ag.softmax_cross_entropy(model.forward(x, FLOAT_MODE), y))
    err = _tensor_fd_err(model, x, y, FLOAT_MODE, model.parameters())
    return CheckResult("model_composite", err, REL_TOL)


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
    ]


def suite_passed(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
