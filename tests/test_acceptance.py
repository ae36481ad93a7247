"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-8 share one cache of desk-scale runs. Criteria 5 and 6 use
three pretrained baselines (one per seed in SEEDS) and the ternary
trainings derived from them. Criterion 7 trains one seed, C7_SEED, at each
of the three INIT_FRACS; criterion 8 exports that seed's default-init run.
The dataset is the package's seeded synthetic MNIST-shaped fixture at its
default difficulty; every hyperparameter is pinned below.
"""

import functools
import math

import numpy as np
import pytest

from terntrain.data import Dataset, make_synth_mnist
from terntrain.gaussian import TruncGaussParams, truncated_upper_mean
from terntrain.gradcheck import check_scale_derivative, check_ste_identity
from terntrain.modelio import (
    ModelIOError,
    checkpoint_to_bytes,
    export_packed,
    packed_from_bytes,
    pack_codes,
    unpack_codes,
    checkpoint_from_bytes,
)
from terntrain.network import build_from_config
from terntrain.optim import OptimizerConfig
from terntrain.ternarize import sparsity, tern
from terntrain.trainer import (
    make_train_state,
    pretrain,
    threshold_substep,
    train,
    weight_substep,
)

# ---- pinned desk-scale configuration ----------------------------------------

SEEDS = (11, 12, 13)
ARCH = "mlp-784-300-100-10"
TRAIN_N, TEST_N = 5000, 1000
NORM_MEAN, NORM_STD = 0.2647, 0.2075  # pixel stats of the synthetic fixture
PRETRAIN_EPOCHS = 10
PRETRAIN_CFG = dict(kind="vanilla-sgd", lr=0.1)
TERN_EPOCHS = 15
BATCH = 64
WEIGHT_CFG = dict(kind="sgd-momentum", lr=0.02, momentum=0.9)
THRESHOLD_CFG = dict(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0)
SCHEDULE = [(8, 0.004), (12, 0.0008)]
INIT_FRACS = (0.05, 0.1, 0.15)
INIT_FRAC_DEFAULT = 0.1
# Criterion 7 trains this one seed at every INIT_FRACS entry. It is the seed
# criteria 5 and 8 already train, so only two extra runs are needed.
C7_SEED = SEEDS[0]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL: {desc}")
                raise
            print(f"\nACCEPTANCE {num:02d} PASS: {desc}")

        return wrapper

    return deco


def _dataset(n, seed):
    images, labels = make_synth_mnist(n, seed=seed)
    x = (images.astype(np.float64) / 255.0 - NORM_MEAN) / NORM_STD
    return Dataset(x.reshape(n, 1, 28, 28), labels, NORM_MEAN, NORM_STD)


def _final_test_accuracy(metrics):
    return [m for m in metrics if m["split"] == "test"][-1]["accuracy"]


class DeskRuns:
    """Lazily built, cached desk-scale training results shared by criteria 5-8."""

    def __init__(self):
        self.data = {}
        self.pretrained = {}
        self.tern = {}
        self.models = {}

    def splits(self, seed):
        if seed not in self.data:
            self.data[seed] = (_dataset(TRAIN_N, 100 + seed), _dataset(TEST_N, 200 + seed))
        return self.data[seed]

    def baseline(self, seed):
        if seed not in self.pretrained:
            train_ds, test_ds = self.splits(seed)
            model = build_from_config(ARCH, seed=seed)
            metrics = pretrain(
                model,
                train_ds,
                OptimizerConfig(**PRETRAIN_CFG),
                epochs=PRETRAIN_EPOCHS,
                batch_size=BATCH,
                seed=seed,
                test_dataset=test_ds,
            )
            train_acc = [m for m in metrics if m["split"] == "train"][-1]["accuracy"]
            self.pretrained[seed] = (checkpoint_to_bytes(model), train_acc, _final_test_accuracy(metrics))
        return self.pretrained[seed]

    def ternary(self, seed, grad_correctness=True, frac=INIT_FRAC_DEFAULT):
        key = (seed, grad_correctness, frac)
        if key not in self.tern:
            ckpt, _, _ = self.baseline(seed)
            train_ds, test_ds = self.splits(seed)
            model = checkpoint_from_bytes(ckpt)
            model.init_thresholds(frac)
            state = make_train_state(
                model,
                OptimizerConfig(**WEIGHT_CFG),
                OptimizerConfig(**THRESHOLD_CFG),
                seed=seed,
                schedule=SCHEDULE,
                grad_correctness=grad_correctness,
            )
            metrics = train(
                state, train_ds, TERN_EPOCHS, batch_size=BATCH, test_dataset=test_ds
            )
            self.tern[key] = _final_test_accuracy(metrics)
            self.models[key] = model
        return self.tern[key]


@pytest.fixture(scope="module")
def desk():
    return DeskRuns()


# ---- criteria ----------------------------------------------------------------


@criterion(1, "scaling factor matches the Monte-Carlo conditional mean")
def test_criterion_01_scaling_factor_oracle():
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(10_000_000)
    for delta_c in (0.0, 0.5, 1.0, 2.0, 3.0):
        kept = samples[samples > delta_c]
        mc_mean = kept.mean()
        se = kept.std() / math.sqrt(kept.size)
        analytic = truncated_upper_mean(TruncGaussParams(0.0, 1.0, delta_c))
        assert abs(analytic - mc_mean) <= 3 * se, (
            f"delta_c={delta_c}: analytic {analytic:.6f} vs MC {mc_mean:.6f} (3se={3 * se:.6f})"
        )


@criterion(2, "threshold gradient matches finite differences at 1000 points")
def test_criterion_02_threshold_gradient():
    result = check_scale_derivative(n_points=1000, seed=2024, margin=1e-3)
    assert result.ok, f"max rel err {result.max_err:.3e} > {result.tol:.0e}"


@criterion(3, "weight-phase STE end-to-end gradient equals the identity surrogate")
def test_criterion_03_ste_identity():
    for seed in range(5):
        result = check_ste_identity(seed=seed)
        assert result.ok, f"seed {seed}: max rel err {result.max_err:.3e} > {result.tol:.0e}"


@criterion(4, "scale-after-accumulate commutes with scale-before to 1e-6")
def test_criterion_04_commutation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 33)))
        w = rng.normal(size=(x.shape[1], rng.integers(2, 17)))
        mu, sigma = float(w.mean()), float(w.std())
        codes = tern(w, mu, rng.uniform(0, 1.5) * sigma)
        s = rng.uniform(0.02, 4.0)
        a = s * (x @ codes)
        b = x @ (s * codes)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
        assert np.max(np.abs(a - b) / denom) < 1e-6


@criterion(5, "desk-scale ternary accuracy within 5 points of the float baseline (3 seeds)")
def test_criterion_05_accuracy_gap(desk):
    float_accs, tern_accs = [], []
    for seed in SEEDS:
        _, train_acc, test_acc = desk.baseline(seed)
        assert train_acc >= 0.95, f"seed {seed}: pretrain train accuracy {train_acc:.3f} < 0.95"
        float_accs.append(test_acc)
        tern_accs.append(desk.ternary(seed, grad_correctness=True))
    gap = 100.0 * (np.mean(float_accs) - np.mean(tern_accs))
    print(
        f"\n  float mean {np.mean(float_accs):.4f}, ternary mean {np.mean(tern_accs):.4f}, "
        f"gap {gap:.2f} points"
    )
    assert gap <= 5.0, f"accuracy gap {gap:.2f} points exceeds 5.0"


@criterion(6, "gradient correctness beats the unit-gradient STE by >= 1 point (3 seeds)")
def test_criterion_06_grad_correctness_direction(desk):
    with_gc = [desk.ternary(seed, grad_correctness=True) for seed in SEEDS]
    without_gc = [desk.ternary(seed, grad_correctness=False) for seed in SEEDS]
    delta = 100.0 * (np.mean(with_gc) - np.mean(without_gc))
    print(
        f"\n  with correctness {np.mean(with_gc):.4f}, without {np.mean(without_gc):.4f}, "
        f"delta {delta:.2f} points"
    )
    assert delta >= 1.0, f"gradient-correctness advantage {delta:.2f} points below 1.0"


@criterion(7, "final accuracy spread across threshold inits <= 1.5 points")
def test_criterion_07_threshold_init_insensitivity(desk):
    accs = [desk.ternary(C7_SEED, grad_correctness=True, frac=f) for f in INIT_FRACS]
    spread = 100.0 * (max(accs) - min(accs))
    print(f"\n  init fractions {INIT_FRACS} -> accuracies {[round(a, 4) for a in accs]}")
    for f in INIT_FRACS:
        model = desk.models[(C7_SEED, True, f)]
        layers = ", ".join(
            f"{l.name} delta_c/sigma {l.qstate.delta_c / l.qstate.sigma:.3f} "
            f"sparsity {sparsity(l.qstate.codes):.3f}"
            for l in model.quantized_layers()
        )
        print(f"  init {f}: {layers}")
    assert spread <= 1.5, f"spread {spread:.2f} points exceeds 1.5"


@criterion(8, "2-bit export compresses >= 15x on large layers and round-trips")
def test_criterion_08_compression(desk, tmp_path):
    desk.ternary(SEEDS[0], grad_correctness=True)
    model = desk.models[(SEEDS[0], True, INIT_FRAC_DEFAULT)]
    model.refresh_all()
    path = tmp_path / "trained.tern"
    report = export_packed(model, path)

    large = [e for e in report["layers"] if e["params"] >= 100_000]
    assert large, "expected at least one layer with >= 1e5 parameters"
    for entry in large:
        packed_total = entry["bytes_packed"] + 4
        assert packed_total <= entry["bytes_float32"] / 15.0, (
            f"{entry['name']}: {packed_total} bytes packed vs {entry['bytes_float32']} float"
        )

    # unpack(pack(codes)) is the identity on every layer, both in memory and
    # through the written file.
    loaded = packed_from_bytes(path.read_bytes())
    for layer, packed in zip(model.param_layers(), loaded.param_layers()):
        codes = layer.qstate.codes
        assert np.array_equal(unpack_codes(pack_codes(codes), codes.size), codes.reshape(-1))
        assert np.array_equal(packed.w.data, codes)


@criterion(9, "10,000 randomized steps never leak updates across phases")
def test_criterion_09_phase_isolation():
    rng = np.random.default_rng(99)
    model = build_from_config("mlp-5-4-3", seed=0)
    model.init_thresholds(INIT_FRAC_DEFAULT)
    state = make_train_state(
        model,
        OptimizerConfig(kind="sgd-momentum", lr=0.05, momentum=0.9),
        OptimizerConfig(kind="vanilla-sgd", lr=0.005, weight_decay=0.0),
        seed=0,
    )
    targets = rng.integers(0, 3, size=(10_000, 4))
    inputs = rng.normal(size=(10_000, 4, 5))
    for i in range(10_000):
        xb, yb = inputs[i], targets[i]
        model.refresh_all()
        w_before = [l.w.data.copy() for l in model.param_layers()]
        b_before = [l.b.data.copy() for l in model.param_layers()]
        threshold_substep(state, xb, yb)
        for layer, bw, bb in zip(model.param_layers(), w_before, b_before):
            assert np.array_equal(layer.w.data, bw), f"step {i}: weights moved in step-3"
            assert np.array_equal(layer.b.data, bb), f"step {i}: biases moved in step-3"
        model.refresh_all()
        for layer in model.quantized_layers():
            st = layer.qstate
            assert 0.0 <= st.delta_c <= 3.0 * st.sigma, f"step {i}: delta_c outside [0, 3 sigma]"
        d_before = [l.qstate.delta for l in model.quantized_layers()]
        weight_substep(state, xb, yb)
        for layer, bd in zip(model.quantized_layers(), d_before):
            assert layer.qstate.delta == bd, f"step {i}: delta moved in step-4"


@criterion(10, "1000 corrupted files all rejected with a format error, never loaded")
def test_criterion_10_format_robustness():
    model = build_from_config("mlp-16-8-4", seed=1)
    for layer in model.quantized_layers():
        layer.qstate.delta = 0.15
    model.refresh_all()
    ckpt_blob = checkpoint_to_bytes(model)
    from terntrain.modelio import packed_to_bytes

    packed_blob = packed_to_bytes(model)

    rng = np.random.default_rng(10)
    parsers = {
        "ckpt": lambda b: checkpoint_from_bytes(b),
        "tern": lambda b: packed_from_bytes(b),
    }
    blobs = {"ckpt": ckpt_blob, "tern": packed_blob}
    rejected = 0
    for i in range(1000):
        kind = "ckpt" if i % 2 == 0 else "tern"
        blob = bytearray(blobs[kind])
        if rng.random() < 0.5:
            cut = int(rng.integers(0, len(blob)))
            blob = blob[:cut]
        else:
            pos = int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
        with pytest.raises(ModelIOError):
            parsers[kind](bytes(blob))
        rejected += 1
    assert rejected == 1000
