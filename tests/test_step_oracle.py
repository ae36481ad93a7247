"""The alternating ternary step against a plain numpy oracle, over drawn MLPs.

The oracle derives tern_train_step from its definition. Per quantized layer
it fits the Gaussian, clips the threshold and builds the codes and the
scale. It runs the threshold phase's forward and backward, updates the
thresholds by vanilla SGD or Adam, refits the codes and scale at the new
thresholds, and runs the weight phase's forward and backward through the
straight-through rule. Then it steps every weight and bias by momentum SGD
or Adam, each with a drawn weight decay, and snaps them onto the float32
grid. Of the library it calls only the scalar Gaussian functions and
tern(). trainer, network, autograd and optim only build and step the model
under test.

The library runs four epochs of trainer.train(), one batch each, with a
drawn lr_schedule breakpoint at epoch 1, 2 or 3 that sets a drawn weight lr
and scales the threshold lr by the same factor. The oracle takes train()'s
batch order (one permutation per epoch from the state's seed) and those
rates, and computes each epoch's train row. The two agree bit for bit over
the four steps. Two ops of the oracle have to follow the library's order to
get there. A product against codes with an all-zero column multiplies only
the live columns, taken as one row-major block, as set_codes and autograd.matmul do. BLAS may sum a narrower or
differently laid-out matrix's products in another order: the full product
changed the last bit of a loss on 1 draw in 2000, and a column-major live
block on about 1 in 30. And the Adam update is optim.adam_update's: the
bias-corrected m and v, eps added to the root, lr applied before the
division. The thresholds are not snapped onto float32, so another order
shows in them. Every other formula is written plainly. For one, a
quantized layer's weight gradient under gradient correctness is a^T g here,
where the library computes (a^T (g * S)) * (1/S); the float32 snap has
absorbed that last-bit difference on every draw tried (12000).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from terntrain.gaussian import (
    TruncGaussParams,
    clip_threshold,
    clip_threshold_grad,
    d_truncated_mean_d_delta,
    truncated_upper_mean,
)
from terntrain.data import Dataset
from terntrain.network import LayerSpec, Model, glorot
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import tern
from terntrain.trainer import make_train_state, train

STEPS = 4
WEIGHT_LR, MOMENTUM = 0.1, 0.9
ADAM_LR, BETAS, EPS = 0.01, (0.9, 0.999), 1e-8


class Layer:
    """One dense layer of the oracle: weights, bias, and for a quantized
    layer its threshold and the fit derived from the weights."""

    def __init__(self, w, b, delta):
        self.w, self.b, self.delta = w.copy(), b.copy(), delta
        self.slots = {}  # per parameter name, its velocity or its Adam moments [m, v]

    def fit(self):
        """The refresh: the Gaussian fit of w, the clipped threshold, the codes and the scale."""
        if self.delta is None:
            return
        w = self.w
        self.mu = float(w.mean())
        self.sigma = float(np.sqrt(np.square(w - self.mu).sum() / w.size))
        self.dc = clip_threshold(self.delta, self.sigma)
        self.codes = tern(w, self.mu, self.dc).astype(np.float64)
        self.scale = truncated_upper_mean(TruncGaussParams(self.mu, self.sigma, self.dc))


def adam_step(p, g, moments, t, lr):
    """Adam's step t >= 1 on p: updates the moments [m, v] and returns the new p."""
    b1, b2 = BETAS
    m = b1 * moments[0] + (1 - b1) * g
    v = b2 * moments[1] + (1 - b2) * g * g
    moments[:] = m, v
    return p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + EPS)


def weight_step(layer, name, g, t, run, lr):
    """Step the parameter layer.<name> by the run's weight optimizer at lr, then snap it onto float32."""
    p = getattr(layer, name)
    if run["weight_decay"]:
        g = g + run["weight_decay"] * p
    if run["weight_opt"] == "adam":
        p = adam_step(p, g, layer.slots.setdefault(name, [0.0, 0.0]), t, lr)
    else:
        v = layer.slots[name] = g.copy() if name not in layer.slots else layer.slots[name] * MOMENTUM + g
        p = p - lr * v
    setattr(layer, name, p.astype(np.float32).astype(np.float64))


def _codes_product(a, codes):
    """a @ codes, multiplying only the live columns when a column is all zero."""
    live = np.flatnonzero(codes.any(axis=0))
    if live.size == codes.shape[1]:
        return a @ codes
    out = np.zeros((a.shape[0], codes.shape[1]))
    out[:, live] = a @ np.take(codes, live, axis=1)
    return out


def _forward(layers, x):
    """Per layer its input, its product and its pre-activation; then the logits."""
    cache, a = [], x
    for i, layer in enumerate(layers):
        if layer.delta is None:
            prod = a @ layer.w
            z = prod + layer.b
        else:
            prod = _codes_product(a, layer.codes)
            z = layer.scale * prod + layer.b
        cache.append((a, prod, z))
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return cache, a


def _loss_and_grad(logits, y):
    """Mean softmax cross-entropy and its gradient in the logits."""
    n = len(y)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float((lse - shifted[np.arange(n), y]).mean())
    p = np.exp(shifted - lse[:, None])
    p[np.arange(n), y] -= 1.0
    return loss, p / n


def _backward(layers, cache, g, gc):
    """Per layer (dL/dS or None, dL/dw, dL/db), walking back from the logits' gradient g."""
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        layer, (a, prod, _) = layers[i], cache[i]
        if layer.delta is None:
            grads[i] = (None, a.T @ g, g.sum(axis=0))
            g = g @ layer.w.T
        else:
            # The straight-through rule: d(S * codes)/dw is 1 under gradient correctness, else S.
            gw = a.T @ g if gc else layer.scale * (a.T @ g)
            grads[i] = (float(np.sum(g * prod)), gw, g.sum(axis=0))
            g = (g * layer.scale) @ layer.codes.T
        if i > 0:
            g = g * (cache[i - 1][2] > 0)
    return grads


def oracle_step(layers, x, y, t, run, weight_lr, threshold_lr):
    """Step t >= 1 of the alternating iteration on the oracle's layers, at these learning rates."""
    gc = run["gc"]
    for layer in layers:
        layer.fit()
    cache, logits = _forward(layers, x)
    g = _loss_and_grad(logits, y)[1]
    for layer, (g_s, _, _) in zip(layers, _backward(layers, cache, g, gc)):
        if layer.delta is not None:
            params = TruncGaussParams(layer.mu, layer.sigma, layer.dc)
            g_delta = (g_s * d_truncated_mean_d_delta(params)) * clip_threshold_grad(layer.delta, layer.sigma)
            if run["threshold_opt"] == "adam":
                layer.delta = adam_step(layer.delta, g_delta, layer.slots.setdefault("delta", [0.0, 0.0]), t,
                                        threshold_lr)
            else:
                layer.delta = layer.delta - threshold_lr * g_delta
    for layer in layers:
        layer.fit()
    cache, logits = _forward(layers, x)
    g = _loss_and_grad(logits, y)[1]
    for layer, (_, gw, gb) in zip(layers, _backward(layers, cache, g, gc)):
        weight_step(layer, "w", gw, t, run, weight_lr)
        weight_step(layer, "b", gb, t, run, weight_lr)


def oracle_eval(layers, x, y):
    """The loss and accuracy of train()'s end-of-epoch row: the refitted layers
    on the samples in their stored order, the loss summed back over them."""
    for layer in layers:
        layer.fit()
    logits = _forward(layers, x)[1]
    n = len(y)
    return _loss_and_grad(logits, y)[0] * n / n, int(np.sum(np.argmax(logits, axis=1) == y)) / n


@st.composite
def drawn_runs(draw):
    widths = draw(st.lists(st.integers(3, 39), min_size=2, max_size=4))
    quantized = [True] + [draw(st.booleans()) for _ in widths[2:]]
    return {
        "widths": widths,
        "quantized": quantized,
        "batch": draw(st.integers(1, 32)),
        "gc": draw(st.booleans()),
        "init_frac": draw(st.floats(0.02, 0.6)),
        "threshold_lr": draw(st.sampled_from([0.001, 0.01, 0.1])),
        "weight_opt": draw(st.sampled_from(["sgd-momentum", "adam"])),
        "threshold_opt": draw(st.sampled_from(["vanilla-sgd", "adam"])),
        "weight_decay": draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        "breakpoint": draw(st.integers(1, STEPS - 1)),
        "rate": draw(st.floats(1e-3, 0.3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _model(run):
    specs = []
    for i, (n_in, n_out, q) in enumerate(zip(run["widths"], run["widths"][1:], run["quantized"])):
        if i:
            specs.append(LayerSpec("relu"))
        specs.append(LayerSpec("dense", in_dim=n_in, out_dim=n_out, quantized=q))
    model = Model(specs, glorot(run["seed"]))
    rng = np.random.default_rng(run["seed"])
    for layer in model.param_layers():
        layer.b.data = rng.normal(scale=0.1, size=layer.b.size).astype(np.float32).astype(np.float64)
    model.init_thresholds(run["init_frac"])
    return model, rng


@given(run=drawn_runs())
@settings(max_examples=100, deadline=None)
def test_four_ternary_steps_match_the_numpy_oracle_bit_for_bit(run):
    """Four epochs of train(), one batch each, across a learning-rate breakpoint."""
    model, rng = _model(run)
    wd = run["weight_decay"]
    if run["weight_opt"] == "adam":
        weight_cfg = OptimizerConfig(kind="adam", lr=ADAM_LR, betas=BETAS, eps=EPS, weight_decay=wd)
    else:
        weight_cfg = OptimizerConfig(kind="sgd-momentum", lr=WEIGHT_LR, momentum=MOMENTUM, weight_decay=wd)
    threshold_cfg = OptimizerConfig(kind=run["threshold_opt"], lr=run["threshold_lr"], betas=BETAS, eps=EPS)
    schedule = [(run["breakpoint"], run["rate"])]
    state = make_train_state(model, weight_cfg, threshold_cfg, seed=0, schedule=schedule, grad_correctness=run["gc"])
    layers = [
        Layer(l.w.data, l.b.data, None if l.qstate is None else l.qstate.delta) for l in model.param_layers()
    ]
    order = np.random.default_rng(0)  # train()'s: one permutation per epoch from the state's seed
    for step in range(STEPS):
        x = rng.normal(size=(run["batch"], run["widths"][0]))
        y = rng.integers(0, run["widths"][-1], size=run["batch"])
        # One batch per epoch, so the breakpoint falls between two steps.
        row = train(state, Dataset(x, y), 1, batch_size=run["batch"])[-1]
        lrs = (weight_cfg.lr, threshold_cfg.lr)
        if step >= run["breakpoint"]:  # trainer._apply_schedule's rates
            lrs = (run["rate"], threshold_cfg.lr * (run["rate"] / weight_cfg.lr))
        perm = order.permutation(run["batch"])
        oracle_step(layers, x[perm], y[perm], step + 1, run, *lrs)
        assert (row["loss"], row["accuracy"]) == oracle_eval(layers, x, y), step
        for layer, oracle in zip(model.param_layers(), layers):
            assert layer.w.data.tobytes() == oracle.w.tobytes(), (step, layer.name)
            assert layer.b.data.tobytes() == oracle.b.tobytes(), (step, layer.name)
            if oracle.delta is not None:
                assert layer.qstate.delta == oracle.delta, (step, layer.name)
