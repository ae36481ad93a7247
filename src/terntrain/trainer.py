"""Training loops: float pretraining and the alternating ternary iteration.

Each ternary step runs, on one batch: refresh every quantizer, update only
the thresholds through the scale path, refresh again to re-synchronize the
codes, then update only the weights through the straight-through path. The
second refresh is what keeps the weight phase consistent with the threshold
it just moved.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .autograd import backward, no_grad, softmax_cross_entropy
from .network import FLOAT_MODE, Model
from .optim import OptimizerConfig, ThresholdOptimizer, make_optimizer
from .ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, sparsity


class DivergenceError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class TrainState:
    model: Model
    weight_opt: object
    threshold_opt: ThresholdOptimizer
    rng: np.random.Generator
    schedule: list[tuple[int, float]] = field(default_factory=list)
    grad_correctness: bool = True
    epoch: int = 0
    metrics: list[dict] = field(default_factory=list)
    _base_weight_lr: float = 0.0
    _base_threshold_lr: float = 0.0


def make_train_state(
    model: Model,
    weight_cfg: OptimizerConfig,
    threshold_cfg: OptimizerConfig,
    seed: int = 0,
    schedule: list[tuple[int, float]] | None = None,
    grad_correctness: bool = True,
) -> TrainState:
    if threshold_cfg.weight_decay != 0.0:
        raise ValueError("weight decay on thresholds is forbidden; set it to 0")
    t_opt = ThresholdOptimizer(
        threshold_cfg.kind, threshold_cfg.lr, threshold_cfg.betas, threshold_cfg.eps
    )
    return TrainState(
        model=model,
        weight_opt=make_optimizer(weight_cfg, model.parameters()),
        threshold_opt=t_opt,
        rng=np.random.default_rng(seed),
        schedule=sorted(schedule or []),
        grad_correctness=grad_correctness,
        _base_weight_lr=weight_cfg.lr,
        _base_threshold_lr=threshold_cfg.lr,
    )


def _apply_schedule(state: TrainState) -> None:
    """Learning-rate breakpoints: (epoch, lr) entries set the weight lr and
    scale the threshold lr by the same factor."""
    for ep, lr in state.schedule:
        if state.epoch == ep:
            state.weight_opt.lr = lr
            state.threshold_opt.lr = state._base_threshold_lr * (lr / state._base_weight_lr)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _loss_backward(model: Model, xb, yb, mode: str, context: dict, gc: bool = True) -> float:
    """Zero the gradients, forward in mode, raise on a non-finite loss, back-propagate.

    Returns the loss; a DivergenceError carries context as its dump.
    """
    model.zero_grad()
    loss = softmax_cross_entropy(model.forward(xb, mode, gc), yb)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise DivergenceError(f"non-finite loss {loss_value!r} at {context}", dump=context)
    backward(loss)
    return loss_value


def threshold_substep(state: TrainState, xb: np.ndarray, yb: np.ndarray) -> float:
    """Forward in threshold phase, back-propagate, update only the thresholds."""
    model = state.model
    context = {"phase": "threshold", "epoch": state.epoch}
    loss_value = _loss_backward(model, xb, yb, THRESHOLD_PHASE, context)
    for layer in model.quantized_layers():
        leaf = model.delta_leaves[layer.name]
        g = 0.0 if leaf.grad is None else float(leaf.grad)
        layer.qstate.delta = state.threshold_opt.update(layer.name, layer.qstate.delta, g)
    return loss_value


def weight_substep(state: TrainState, xb: np.ndarray, yb: np.ndarray) -> float:
    """Forward in weight phase, back-propagate, update only weights and biases."""
    context = {"phase": "weight", "epoch": state.epoch}
    loss_value = _loss_backward(state.model, xb, yb, WEIGHT_PHASE, context, state.grad_correctness)
    state.weight_opt.step()
    state.model.snap_params_f32()
    return loss_value


def tern_train_step(state: TrainState, batch: tuple[np.ndarray, np.ndarray]) -> dict:
    """One alternating update on one batch; both phases see the identical batch."""
    xb, yb = batch
    model = state.model
    model.refresh_all()
    t_loss = threshold_substep(state, xb, yb)
    model.refresh_all()
    w_loss = weight_substep(state, xb, yb)
    return {"threshold_loss": t_loss, "weight_loss": w_loss}


def eval_loss_acc(model: Model, dataset, mode: str, batch_size: int = 256) -> tuple[float, float]:
    """Mean loss and top-1 accuracy over a dataset in "float" or "ternary" mode; records no graph."""
    if mode not in ("float", "ternary"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    fwd_mode = WEIGHT_PHASE if mode == "ternary" else FLOAT_MODE
    if mode == "ternary":
        model.refresh_all()
    total_loss = 0.0
    correct = 0
    n = len(dataset)
    for start in range(0, n, batch_size):
        xb = dataset.images[start : start + batch_size]
        yb = dataset.labels[start : start + batch_size]
        with no_grad():
            logits = model.forward(xb, fwd_mode)
            loss = softmax_cross_entropy(logits, yb)
        total_loss += float(loss.data) * len(yb)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == yb))
    return total_loss / n, correct / n


def _quantizer_columns(model: Model) -> dict:
    cols: dict = {}
    for layer in model.quantized_layers():
        st = layer.qstate
        cols[f"{layer.name}_delta"] = st.delta
        cols[f"{layer.name}_delta_c"] = st.delta_c
        cols[f"{layer.name}_scale"] = st.scale
        cols[f"{layer.name}_sparsity"] = sparsity(st.codes)
    return cols


def _append_csv(path, rows: list[dict]) -> None:
    if path is None or not rows:
        return
    fieldnames = list(rows[0].keys())
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        if not exists:
            writer.writeheader()
        writer.writerows(rows)


def pretrain(
    model: Model,
    dataset,
    cfg: OptimizerConfig,
    epochs: int,
    batch_size: int = 64,
    seed: int = 0,
    test_dataset=None,
    csv_path=None,
) -> list[dict]:
    """Train the full-precision model in place; returns its metric rows.

    Each epoch adds a train row and, given a test set, a test row. Zero
    epochs leave the initialization unchanged. A non-finite loss aborts with
    a DivergenceError carrying a state dump. Saving the model is the
    caller's step.
    """
    opt = make_optimizer(cfg, model.parameters())
    rng = np.random.default_rng(seed)
    metrics: list[dict] = []
    for epoch in range(epochs):
        for bi, idx in enumerate(_batches(len(dataset), batch_size, rng)):
            xb, yb = dataset.images[idx], dataset.labels[idx]
            _loss_backward(model, xb, yb, FLOAT_MODE, {"phase": "pretrain", "epoch": epoch, "batch": bi})
            opt.step()
            model.snap_params_f32()
        rows = []
        tr_loss, tr_acc = eval_loss_acc(model, dataset, "float")
        rows.append({"epoch": epoch, "split": "train", "loss": tr_loss, "accuracy": tr_acc})
        if test_dataset is not None:
            te_loss, te_acc = eval_loss_acc(model, test_dataset, "float")
            rows.append({"epoch": epoch, "split": "test", "loss": te_loss, "accuracy": te_acc})
        metrics.extend(rows)
        _append_csv(csv_path, rows)
    return metrics


def train(
    state: TrainState,
    dataset,
    epochs: int,
    batch_size: int = 64,
    test_dataset=None,
    csv_path=None,
) -> list[dict]:
    """Run the alternating ternary training in place; returns state.metrics.

    Per epoch, both splits are evaluated in ternary mode and the per-layer
    threshold, clipped threshold, scale and sparsity are logged. The rows
    accumulate in state.metrics across calls. Saving the model is the
    caller's step.
    """
    model = state.model
    if not model.quantized_layers():
        raise ValueError("ternary training needs at least one quantized layer")
    model.refresh_all()
    for _ in range(epochs):
        _apply_schedule(state)
        for idx in _batches(len(dataset), batch_size, state.rng):
            tern_train_step(state, (dataset.images[idx], dataset.labels[idx]))
        model.refresh_all()
        rows = []
        tr_loss, tr_acc = eval_loss_acc(model, dataset, "ternary")
        base = {"epoch": state.epoch, "split": "train", "loss": tr_loss, "accuracy": tr_acc}
        rows.append({**base, **_quantizer_columns(model)})
        if test_dataset is not None:
            te_loss, te_acc = eval_loss_acc(model, test_dataset, "ternary")
            base = {"epoch": state.epoch, "split": "test", "loss": te_loss, "accuracy": te_acc}
            rows.append({**base, **_quantizer_columns(model)})
        state.metrics.extend(rows)
        _append_csv(csv_path, rows)
        state.epoch += 1
    return state.metrics
