"""The benchmark's trace hooks resolve against the package.

perfbench/pipeline.py times terntrain from outside, by wrapping functions
and methods by name, so a rename in src/ would crash a traced benchmark run
(`python3 perfbench/run.py --trace 1`). Installing every hook here makes
such a rename fail the test suite first.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import numpy as np  # noqa: E402
import pipeline  # noqa: E402
from tracer import Tracer  # noqa: E402

from terntrain import data, network, optim, trainer  # noqa: E402


@pytest.mark.parametrize("arch", ["mlp-784-300-100-10", "lenet-small"])
def test_every_benchmark_trace_hook_installs(arch):
    tracer = Tracer()
    try:
        pipeline.install(tracer, arch)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"


def test_pretrain_opens_no_ternary_step_span():
    # The per-layer figures select these spans without a `within` filter, so a
    # pretrain step running through them would count as a ternary step.
    rng = np.random.default_rng(0)
    ds = data.Dataset(rng.normal(size=(48, 6)), rng.integers(0, 3, size=48))
    model = network.build_from_config("mlp-6-5-3", seed=0)
    tracer = Tracer()
    try:
        pipeline.install(tracer, "mlp-784-300-100-10")
        tracer.active = True
        trainer.pretrain(model, ds, optim.OptimizerConfig(kind="vanilla-sgd", lr=0.1), epochs=2, batch_size=16)
    finally:
        tracer.active = False
        tracer.unwrap_all()
    tr = tracer.analyse()
    for name in ("trainer.tern_train_step", "trainer.threshold_substep", "trainer.weight_substep"):
        assert tr.select(name) == []
    assert len(tr.select("trainer.pretrain")) == 1
    steps = tr.select("network.forward", "float", within="trainer.pretrain", outside="trainer.eval_loss_acc")
    assert len(steps) == 2 * 3  # two epochs of three batches


def test_one_lenet_ternary_step_makes_four_two_and_two_traced_conv_calls():
    # Each phase runs both convs forward. Only conv1 takes an input gradient
    # (conv0's input is the batch), and only the weight phase takes kernel
    # gradients. An input gradient routed through the traced conv2d_forward
    # would add to the forward count.
    rng = np.random.default_rng(0)
    model = network.build_from_config("lenet-small", seed=0)
    model.init_thresholds(0.1)
    state = trainer.make_train_state(
        model,
        optim.OptimizerConfig(kind="vanilla-sgd", lr=0.01),
        optim.OptimizerConfig(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0),
    )
    batch = (rng.normal(size=(8, 1, 28, 28)), rng.integers(0, 10, size=8))
    tracer = Tracer()
    try:
        pipeline.install(tracer, "lenet-small")
        tracer.active = True
        trainer.tern_train_step(state, batch)
    finally:
        tracer.active = False
        tracer.unwrap_all()
    tr = tracer.analyse()
    calls = {
        fn: len(tr.select(f"kernels.{fn}", within="trainer.tern_train_step"))
        for fn in ("conv2d_forward", "conv2d_backward_x", "conv2d_backward_w")
    }
    assert calls == {"conv2d_forward": 4, "conv2d_backward_x": 2, "conv2d_backward_w": 2}


@pytest.mark.parametrize("kind", ["vanilla-sgd", "adam"])
def test_one_ternary_step_opens_one_optimizer_span_per_update(kind):
    # The benchmark's optim.* per-layer figures count these spans: a
    # threshold update that ran through the traced weight step would be
    # counted as a weight step too.
    rng = np.random.default_rng(0)
    model = network.build_from_config("mlp-6-5-3", seed=0)
    model.init_thresholds(0.1)
    state = trainer.make_train_state(
        model, optim.OptimizerConfig(kind=kind, lr=0.01), optim.OptimizerConfig(kind=kind, lr=0.0005)
    )
    batch = (rng.normal(size=(16, 6)), rng.integers(0, 3, size=16))
    tracer = Tracer()
    try:
        pipeline.install(tracer, "mlp-784-300-100-10")
        tracer.active = True
        trainer.tern_train_step(state, batch)
    finally:
        tracer.active = False
        tracer.unwrap_all()
    tr = tracer.analyse()
    n_quantized = len(model.quantized_layers())
    assert n_quantized > 0
    assert len(tr.select("optim.threshold_update")) == n_quantized
    assert len(tr.select("optim.threshold_update", within="trainer.threshold_substep")) == n_quantized
    assert len(tr.select("optim.weight_step")) == 1
    assert len(tr.select("optim.weight_step", within="trainer.weight_substep")) == 1
    assert tr.select("optim.weight_step", within="optim.threshold_update") == []
