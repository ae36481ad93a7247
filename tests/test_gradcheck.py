"""The finite-difference suite passes on correct code and fails on faulty code.

The suite runs in-process over many seeds, and each fault below is injected
into one backward rule or the shared fixture: the suite must name every
check whose gradient path the fault lies on, and no other.
"""

import pytest

from terntrain import autograd as ag
from terntrain import gradcheck, kernels, network, ternarize
from terntrain.gradcheck import run_suite


def test_suite_passes_at_many_seeds():
    failures = [(seed, r.name, r.max_err) for seed in range(64) for r in run_suite(seed) if not r.ok]
    assert failures == []


def test_fixture_dense_layers_multiply_only_live_columns():
    for seed in range(64):
        model, _, _ = gradcheck.ternary_fixture(seed)
        conv, *dense = model.quantized_layers()
        assert conv.qstate.live_columns is None
        for layer in dense:
            idx, _ = layer.qstate.live_columns
            assert idx.size <= layer.w.shape[1] - 2


def _scaled_input_grad(op, index, factor=1.001):
    """op with the gradient of its input index scaled by factor."""

    def faulty(*args):
        out = op(*args)
        rule = out._backward
        if rule is not None:

            def scaled(g):
                grads = list(rule(g))
                if grads[index] is not None:
                    grads[index] = factor * grads[index]
                return tuple(grads)

            out._backward = scaled
        return out

    return faulty


def _no_grad_correctness(mp):
    real = network.ste_codes_node
    mp.setattr(network, "ste_codes_node", lambda w, st, gc=True: real(w, st, False))


def _scaled_scale_derivative(mp):
    real = ternarize.d_truncated_mean_d_delta
    mp.setattr(ternarize, "d_truncated_mean_d_delta", lambda p: 1.001 * real(p))


def _scaled_matmul_input_grad(mp):
    mp.setattr(ag, "matmul", _scaled_input_grad(ag.matmul, 0))


def _scaled_conv_weight_grad(mp):
    real = kernels.conv2d_backward_w
    mp.setattr(kernels, "conv2d_backward_w", lambda *args: 1.001 * real(*args))


def _scaled_smul_scale_grad(mp):
    mp.setattr(ag, "smul", _scaled_input_grad(ag.smul, 0))


def _negated_live_columns(mp):
    real = gradcheck.ternary_fixture

    def corrupted(seed=0):
        model, x, y = real(seed)
        for layer in model.quantized_layers()[1:]:
            idx, cols = layer.qstate.live_columns
            layer.qstate.live_columns = (idx, -cols)
        return model, x, y

    mp.setattr(gradcheck, "ternary_fixture", corrupted)


@pytest.mark.parametrize(
    "inject, failing",
    [
        (_no_grad_correctness, {"ste_identity"}),
        (_scaled_scale_derivative, {"threshold_phase_grad"}),
        (_scaled_matmul_input_grad, {"matmul", "threshold_phase_grad", "model_composite"}),
        (_scaled_conv_weight_grad, {"conv2d", "model_composite"}),
        (_scaled_smul_scale_grad, {"smul", "threshold_phase_grad"}),
        (_negated_live_columns, {"ste_identity", "threshold_phase_grad"}),
    ],
    ids=[
        "ste_without_1_over_scale",
        "scale_derivative_x1.001",
        "matmul_input_grad_x1.001",
        "conv2d_backward_w_x1.001",
        "smul_scale_grad_x1.001",
        "live_columns_negated",
    ],
)
def test_injected_fault_fails_its_checks(monkeypatch, inject, failing):
    inject(monkeypatch)
    for seed in range(4):
        results = run_suite(seed)
        assert {r.name for r in results if not r.ok} == failing, (
            seed,
            {r.name: f"{r.max_err:.1e}" for r in results},
        )
