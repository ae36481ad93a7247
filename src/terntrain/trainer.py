"""One training loop, train(), over a float or a ternary train state.

A state without a threshold optimizer is a float state: each step updates
the full-precision weights, and each epoch is evaluated in float mode. A
ternary state runs the alternating iteration. Each ternary step runs, on one
batch: refresh every quantizer, update only the thresholds through the scale
path, refresh again to re-synchronize the codes, then update only the
weights through the straight-through path. The second refresh is what keeps
the weight phase consistent with the threshold it just moved. Its epochs are
evaluated in ternary mode and log each layer's quantizer. The module opens
no file; the CLI writes every file of a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import backward, no_grad, softmax_cross_entropy
from .network import FLOAT_MODE, Model
from .optim import SGD, Adam, OptimizerConfig, ThresholdOptimizer, make_optimizer
from .ternarize import THRESHOLD_PHASE, WEIGHT_PHASE, sparsity


class DivergenceError(RuntimeError):
    """Raised when a training loss, threshold or weight stops being finite."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


@dataclass
class TrainState:
    """What train() advances; threshold_opt is None on a float state."""

    model: Model
    weight_opt: SGD | Adam
    threshold_opt: ThresholdOptimizer | None
    rng: np.random.Generator
    schedule: list[tuple[int, float]] = field(default_factory=list)
    grad_correctness: bool = True
    epoch: int = 0
    metrics: list[dict] = field(default_factory=list)


def make_train_state(
    model: Model,
    weight_cfg: OptimizerConfig,
    threshold_cfg: OptimizerConfig | None = None,
    seed: int = 0,
    schedule: list[tuple[int, float]] | None = None,
    grad_correctness: bool = True,
) -> TrainState:
    """A ternary train state, or a float one when threshold_cfg is None.

    A ternary state's schedule must scale its threshold lr to a positive
    finite number at every breakpoint; a ValueError names the one that does not.
    """
    if threshold_cfg is not None:
        for ep, lr in schedule or []:
            t_lr = _threshold_lr(threshold_cfg.lr, lr, weight_cfg.lr)
            if not 0 < t_lr < np.inf:
                raise ValueError(f"lr_schedule breakpoint {ep}:{lr!r} scales the threshold lr to {t_lr!r}")
    return TrainState(
        model=model,
        weight_opt=make_optimizer(weight_cfg, model.parameters()),
        threshold_opt=None if threshold_cfg is None else ThresholdOptimizer(threshold_cfg),
        rng=np.random.default_rng(seed),
        schedule=sorted(schedule or []),
        grad_correctness=grad_correctness,
    )


def _threshold_lr(base: float, lr: float, weight_base: float) -> float:
    """The threshold lr at a breakpoint that sets the weight lr to lr."""
    return base * (lr / weight_base)


def _apply_schedule(state: TrainState) -> None:
    """Learning-rate breakpoints: (epoch, lr) entries set the weight lr and
    scale the threshold lr by the same factor, from each optimizer's base lr."""
    w, t = state.weight_opt, state.threshold_opt
    for ep, lr in state.schedule:
        if state.epoch == ep:
            w.lr = lr
            if t is not None:
                t.lr = _threshold_lr(t.cfg.lr, lr, w.cfg.lr)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


Batch = tuple[np.ndarray, np.ndarray]


def _divergence(state: TrainState, phase: str, batch_index: int | None, what: str):
    """The DivergenceError "<what> at <dump>", whose dump holds the phase, epoch and batch."""
    context = {"phase": phase, "epoch": state.epoch, "batch": batch_index}
    return DivergenceError(f"{what} at {context}", dump=context)


def _loss_backward(state: TrainState, xb, yb, mode: str, phase: str, batch_index: int | None) -> float:
    """Zero the gradients, forward in mode, raise on a non-finite loss, back-propagate.

    Returns the loss; a DivergenceError's dump holds the phase, epoch and batch.
    """
    model = state.model
    model.zero_grad()
    loss = softmax_cross_entropy(model.forward(xb, mode, state.grad_correctness), yb)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise _divergence(state, phase, batch_index, f"non-finite loss {loss_value!r}")
    backward(loss)
    return loss_value


def _weight_update(state: TrainState, xb, yb, mode: str, phase: str, batch_index: int | None) -> float:
    """Back-propagate the loss in mode, step the weight optimizer and snap the parameters.

    An update that leaves any parameter non-finite on the float32 grid
    raises a DivergenceError at this phase and batch.
    """
    loss_value = _loss_backward(state, xb, yb, mode, phase, batch_index)
    state.weight_opt.step()
    if not state.model.snap_params_f32():
        raise _divergence(state, phase, batch_index, "non-finite weights")
    return loss_value


def float_train_step(state: TrainState, batch: Batch, batch_index: int | None = None) -> dict:
    """One full-precision update on one batch."""
    xb, yb = batch
    return {"loss": _weight_update(state, xb, yb, FLOAT_MODE, "pretrain", batch_index)}


def threshold_substep(state: TrainState, xb, yb, batch_index: int | None = None) -> float:
    """Forward in threshold phase, back-propagate, update only the thresholds.

    An update that leaves a threshold non-finite raises a DivergenceError
    and is not applied. Every quantized layer's scale reaches the loss, so a
    threshold that got no gradient is a broken forward: a RuntimeError.
    """
    model = state.model
    loss_value = _loss_backward(state, xb, yb, THRESHOLD_PHASE, "threshold", batch_index)
    for layer in model.quantized_layers():
        leaf = model.delta_leaves[layer.name]
        if leaf.grad is None:
            raise RuntimeError(f"the threshold of {layer.name} got no gradient: its scale did not reach the loss")
        delta = state.threshold_opt.update(layer.name, layer.qstate.delta, float(leaf.grad))
        if not np.isfinite(delta):
            raise _divergence(state, "threshold", batch_index, f"non-finite threshold {delta!r} on {layer.name}")
        layer.qstate.delta = delta
    return loss_value


def weight_substep(state: TrainState, xb, yb, batch_index: int | None = None) -> float:
    """Forward in weight phase, back-propagate, update only weights and biases."""
    return _weight_update(state, xb, yb, WEIGHT_PHASE, "weight", batch_index)


def tern_train_step(state: TrainState, batch: Batch, batch_index: int | None = None) -> dict:
    """One alternating update on one batch; both phases see the identical batch."""
    xb, yb = batch
    state.model.refresh_all()
    t_loss = threshold_substep(state, xb, yb, batch_index)
    state.model.refresh_all()
    w_loss = weight_substep(state, xb, yb, batch_index)
    return {"threshold_loss": t_loss, "weight_loss": w_loss}


def eval_loss_acc(model: Model, dataset, mode: str, batch_size: int = 256) -> tuple[float, float]:
    """Mean loss and top-1 accuracy over a dataset in "float" or "ternary" mode; records no graph.
    Ternary mode calls model.refresh_all() first, as any forward of a built or loaded model needs."""
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


def train(
    state: TrainState,
    dataset,
    epochs: int,
    batch_size: int = 64,
    test_dataset=None,
) -> list[dict]:
    """Train state.model in place for another epochs epochs; returns state.metrics.

    Each epoch draws its batch order from state.rng and adds a train row and,
    given a test set, a test row, evaluated in float mode on a float state
    and in ternary mode on a ternary one. Ternary rows also log each layer's
    threshold, clipped threshold, scale and sparsity. The rows accumulate in
    state.metrics across calls, so one call per epoch is the same run as one
    call for all of them: a caller that logs each epoch's rows as it ends
    calls it once per epoch. A non-finite loss, a threshold update that
    leaves a threshold non-finite, or a weight update that leaves a
    parameter non-finite on the float32 grid raises a DivergenceError at
    that batch, whose dump holds the phase, epoch and batch index. It opens
    no file: writing the rows and saving the model are the caller's steps.
    """
    model = state.model
    ternary = state.threshold_opt is not None
    if ternary:
        if not model.quantized_layers():
            raise ValueError("ternary training needs at least one quantized layer")
        model.refresh_all()
    # Looked up here, not kept on the state, so a wrapper set on the module is seen.
    step = tern_train_step if ternary else float_train_step
    for _ in range(epochs):
        _apply_schedule(state)
        for bi, idx in enumerate(_batches(len(dataset), batch_size, state.rng)):
            step(state, (dataset.images[idx], dataset.labels[idx]), bi)
        for split, ds in (("train", dataset), ("test", test_dataset)):
            if ds is not None:
                loss, acc = eval_loss_acc(model, ds, "ternary" if ternary else "float")
                row = {"epoch": state.epoch, "split": split, "loss": loss, "accuracy": acc}
                state.metrics.append({**row, **_quantizer_columns(model)} if ternary else row)
        state.epoch += 1
    return state.metrics


def pretrain(
    model: Model,
    dataset,
    cfg: OptimizerConfig,
    epochs: int,
    batch_size: int = 64,
    seed: int = 0,
    test_dataset=None,
) -> list[dict]:
    """Train the full-precision model in place; returns its metric rows.

    train() on a fresh float state: zero epochs leave the initialization
    unchanged. Like train(), it writes no file.
    """
    state = make_train_state(model, cfg, seed=seed)
    return train(state, dataset, epochs, batch_size=batch_size, test_dataset=test_dataset)
