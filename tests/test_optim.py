import tracemalloc

import numpy as np
import pytest

from terntrain.autograd import Tensor
from terntrain.optim import (
    SGD,
    Adam,
    OptimizerConfig,
    ThresholdOptimizer,
    adam_update,
    make_optimizer,
    sgd_update,
)


def test_vanilla_sgd_example():
    p, v = sgd_update(np.float64(1.0), np.float64(0.5), lr=0.1)
    assert p == pytest.approx(0.95)
    assert v is None


def test_weight_decay_example():
    p, _ = sgd_update(np.float64(1.0), np.float64(0.0), lr=0.1, weight_decay=0.01)
    assert p == pytest.approx(0.999)


def test_momentum_recurrence_two_steps():
    p = np.float64(1.0)
    v = None
    p, v = sgd_update(p, np.float64(1.0), lr=0.1, momentum=0.9, velocity=v)
    assert p == pytest.approx(0.9)  # v = g = 1
    p, v = sgd_update(p, np.float64(1.0), lr=0.1, momentum=0.9, velocity=v)
    assert v == pytest.approx(1.9)  # 0.9 * 1 + 1
    assert p == pytest.approx(0.9 - 0.19)


def test_adam_first_step_magnitude_is_lr():
    lr = 0.01
    for g in (1e-3, 1.0, 1e3):
        state = {"m": np.float64(0.0), "v": np.float64(0.0), "t": 0}
        p = adam_update(np.float64(0.0), np.float64(g), state, lr)
        assert abs(abs(p) - lr) < 1e-5 * lr


def test_adam_matches_hand_recurrence():
    state = {"m": np.float64(0.0), "v": np.float64(0.0), "t": 0}
    p = np.float64(1.0)
    g1, g2 = 0.5, -0.25
    p = adam_update(p, np.float64(g1), state, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
    p = adam_update(p, np.float64(g2), state, lr=0.1, betas=(0.9, 0.999), eps=1e-8)

    m = 0.0
    v = 0.0
    q = 1.0
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        q -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p == pytest.approx(q, rel=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="rmsprop")
    for lr in (0.0, float("inf")):
        with pytest.raises(ValueError, match="lr"):
            OptimizerConfig(lr=lr)
    with pytest.raises(ValueError):
        OptimizerConfig(momentum=1.0)
    for wd in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="weight_decay"):
            OptimizerConfig(weight_decay=wd)
    with pytest.raises(ValueError):
        OptimizerConfig(betas=(0.9, 1.0))
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            OptimizerConfig(eps=eps)


def test_sgd_class_steps_params():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    t.grad = np.array([0.5, 0.5])
    opt = SGD([t], OptimizerConfig(kind="vanilla-sgd", lr=0.1))
    opt.step()
    assert np.allclose(t.data, [0.95, 1.95])
    t.zero_grad()
    opt.step()  # no grads: params untouched
    assert np.allclose(t.data, [0.95, 1.95])


def test_make_optimizer_kinds():
    t = Tensor(np.zeros(2), requires_grad=True)
    assert isinstance(make_optimizer(OptimizerConfig(kind="vanilla-sgd", lr=0.1), [t]), SGD)
    assert make_optimizer(OptimizerConfig(kind="vanilla-sgd", lr=0.1), [t]).momentum == 0.0
    assert isinstance(make_optimizer(OptimizerConfig(kind="adam", lr=0.1), [t]), Adam)


def test_threshold_optimizer_vanilla():
    opt = ThresholdOptimizer(OptimizerConfig(kind="vanilla-sgd", lr=0.2))
    assert opt.update("dense0", 1.0, 0.5) == pytest.approx(0.9)


def test_threshold_optimizer_adam_tracks_per_name_state():
    opt = ThresholdOptimizer(OptimizerConfig(kind="adam", lr=0.1))
    a1 = opt.update("a", 0.0, 1.0)
    b1 = opt.update("b", 0.0, 1.0)
    assert a1 == pytest.approx(b1)  # independent states, same inputs
    a2 = opt.update("a", a1, 1.0)
    assert a2 < a1  # keeps descending


def test_threshold_optimizer_rejects_other_kinds():
    with pytest.raises(ValueError):
        ThresholdOptimizer(OptimizerConfig(kind="sgd-momentum", lr=0.1))


@pytest.mark.parametrize("kind", ["vanilla-sgd", "adam"])
def test_threshold_optimizer_rejects_weight_decay(kind):
    with pytest.raises(ValueError, match="weight decay on thresholds is forbidden"):
        ThresholdOptimizer(OptimizerConfig(kind=kind, lr=0.1, weight_decay=0.01))


# -- in-place optimizer state ------------------------------------------------

LR, MOMENTUM, BETAS, EPS = 0.05, 0.9, (0.9, 0.999), 1e-8


def _param_and_grads(seed=0, shape=(40, 30), steps=5):
    rng = np.random.default_rng(seed)
    t = Tensor(rng.normal(size=shape), requires_grad=True)
    grads = []
    for _ in range(steps):
        g = rng.normal(size=shape)
        g.flags.writeable = False  # as autograd.backward hands them out
        grads.append(g)
    return t, grads


def _stepper(cfg, t, threshold):
    """A function taking one step with a gradient and returning the new
    value, and one returning the optimizer state of that value.

    Weights: SGD or Adam steps Tensor t. A threshold: ThresholdOptimizer
    updates t's value, a 0-d scalar, with floats, as the trainer does.
    """
    if not threshold:
        opt = make_optimizer(cfg, [t])

        def step(g):
            t.grad = g
            opt.step()
            return t.data

        return step, lambda: opt._state[0] if cfg.kind == "adam" else opt._velocity[0]
    opt = ThresholdOptimizer(cfg)
    value = float(t.data)

    def step(g):
        nonlocal value
        value = opt.update("dense0", value, float(g))
        return np.float64(value)

    return step, lambda: opt._state["dense0"]


@pytest.mark.parametrize(
    "momentum,wd,threshold",
    [(0.0, 0.0, False), (0.0, 0.01, False), (MOMENTUM, 0.0, False), (MOMENTUM, 0.01, False), (0.0, 0.0, True)],
    ids=["0.0-0.0", "0.0-0.01", "0.9-0.0", "0.9-0.01", "threshold"],
)
def test_sgd_five_steps_match_the_formula_bit_for_bit(momentum, wd, threshold):
    t, grads = _param_and_grads(shape=() if threshold else (40, 30))
    kind = "sgd-momentum" if momentum else "vanilla-sgd"
    step, opt_state = _stepper(OptimizerConfig(kind=kind, lr=LR, momentum=momentum, weight_decay=wd), t, threshold)
    p, v = t.data.copy(), None
    for g in grads:
        new = step(g)
        d = g + wd * p
        if momentum == 0.0:
            p = p - LR * d
        else:
            v = d if v is None else momentum * v + d
            p = p - LR * v
        assert new.tobytes() == p.tobytes()
        if momentum:
            assert opt_state().tobytes() == v.tobytes()


@pytest.mark.parametrize("wd,threshold", [(0.0, False), (0.01, False), (0.0, True)], ids=["0.0", "0.01", "threshold"])
def test_adam_five_steps_match_the_formula_bit_for_bit(wd, threshold):
    t, grads = _param_and_grads(seed=1, shape=() if threshold else (40, 30))
    cfg = OptimizerConfig(kind="adam", lr=LR, betas=BETAS, eps=EPS, weight_decay=wd)
    take_step, opt_state = _stepper(cfg, t, threshold)
    b1, b2 = BETAS
    p, m, v = t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data)
    for step, g in enumerate(grads, start=1):
        new = take_step(g)
        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**step)
        v_hat = v / (1 - b2**step)
        p = p - LR * m_hat / (np.sqrt(v_hat) + EPS)
        assert new.tobytes() == p.tobytes()
        assert np.asarray(opt_state()["m"]).tobytes() == m.tobytes()
        assert np.asarray(opt_state()["v"]).tobytes() == v.tobytes()


@pytest.mark.parametrize("kind", ["sgd-momentum", "adam"])
@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_optimizer_state_is_private_and_updated_in_place(kind, wd):
    t, grads = _param_and_grads(seed=2)
    opt = make_optimizer(OptimizerConfig(kind=kind, lr=LR, weight_decay=wd), [t])
    state = None
    for g in grads:
        t.grad = g
        before = t.data
        opt.step()
        assert t.data is not before  # each step binds a new parameter array
        arrays = [opt._velocity[0]] if kind == "sgd-momentum" else [opt._state[0]["m"], opt._state[0]["v"]]
        for a in arrays:
            assert not np.shares_memory(a, g)
            assert not np.shares_memory(a, t.data)
        if state is not None:
            assert all(a is b for a, b in zip(arrays, state))
        state = arrays


def _second_step_peak(opt, t) -> float:
    """Peak bytes allocated by one step after the first, in parameter sizes."""
    t.grad = np.full(t.shape, 0.5)
    opt.step()  # the first step creates the optimizer state
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        opt.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / t.data.nbytes


@pytest.mark.parametrize("momentum", [0.0, MOMENTUM])
def test_sgd_step_allocates_only_the_new_parameter(momentum):
    t = Tensor(np.ones((256, 1024)), requires_grad=True)
    cfg = OptimizerConfig(kind="sgd-momentum" if momentum else "vanilla-sgd", lr=LR, momentum=momentum)
    ratio = _second_step_peak(SGD([t], cfg), t)
    assert ratio <= 1.25, f"SGD step (momentum {momentum}) peaked at {ratio:.2f}x the parameter's bytes"


def test_adam_step_peak_allocation():
    t = Tensor(np.ones((256, 1024)), requires_grad=True)
    ratio = _second_step_peak(Adam([t], OptimizerConfig(kind="adam", lr=LR)), t)
    print(f"Adam step peak: {ratio:.2f}x the parameter's bytes")
    assert ratio <= 2.25, f"Adam step peaked at {ratio:.2f}x the parameter's bytes"
