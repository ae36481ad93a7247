"""The benchmark's workloads: terntrain's whole product path, one arch each.

A run repeats identical rounds until its time is up. A round builds a fresh
model from the seed, pretrains it, trains it ternary with train(), evaluates
it in ternary mode, exports the 2-bit TERN file and serves that file to one
closed-loop client sending batch-1 requests. Round 0 warms the process up
(first-touch page faults, allocator growth); its outputs are checked and
its operations counted, but only later rounds are timed into the metrics.
Every output is checked against reference computations in checks.py.
"""

from __future__ import annotations

import copy
import math
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from terntrain import autograd, data, kernels, modelio, network, optim, ternarize, trainer

import checks
from tracer import Tracer

BATCH = 64
EVAL_BATCH = 256  # eval_loss_acc's default batch
NORM_MEAN, NORM_STD = 0.2647, 0.2075  # pixel statistics of the synthetic fixture
# The optimizers and schedule that the acceptance suite pins for criterion 5.
PRETRAIN_CFG = dict(kind="vanilla-sgd", lr=0.1)
WEIGHT_CFG = dict(kind="sgd-momentum", lr=0.02, momentum=0.9)
THRESHOLD_CFG = dict(kind="vanilla-sgd", lr=0.0005, weight_decay=0.0)
SCHEDULE = [(8, 0.004), (12, 0.0008)]
INIT_FRAC = 0.1
TEST_SEED_OFFSET = 10_000  # the test split is drawn from seed + this
SETUP_REPEATS = 5
MIN_ROUNDS = 3  # the warm-up round plus at least two timed rounds
PRETRAIN_EPOCHS = 3
TERN_EPOCHS = 3  # timed epochs, after one warm-up epoch
SERVE_BURST = 40  # requests per burst; a burst follows every stage


@dataclass(frozen=True)
class Workload:
    arch: str
    n_train: int
    n_test: int
    eval_repeats: int  # timed evals at the end of each round


WORKLOADS = {
    "mlp-quantize": Workload(arch="mlp-784-300-100-10", n_train=2048, n_test=4096, eval_repeats=3),
    "lenet-quantize": Workload(arch="lenet-small", n_train=768, n_test=2048, eval_repeats=2),
}


# --- environment ----------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "kernels_backend": kernels.backend(),
    }


# --- host speed -----------------------------------------------------------------


class HostSpeed:
    """A fixed numpy and Python loop, timed right before and after each measured unit.

    The host this benchmark was built on is a two-vCPU VM whose speed drifts
    by up to 40% over minutes, every stage slowing together (the README shows
    the runs). Each measured duration is multiplied by REF_S / (the mean of
    this loop's times just before and just after it), so the metrics read as
    on a host where the loop takes REF_S; the unscaled figures go to the
    run's details file. The loop mixes what the workloads run: float64 GEMMs
    of the MLP's shapes, the masks and float32 round trips of quantizer
    bookkeeping, strided-window einsums of the LeNet conv shape, and
    interpreter work. It uses no terntrain code, so a change to terntrain
    cannot move it.
    """

    REF_S = 0.020

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.x = rng.normal(size=(64, 784))
        self.w = rng.normal(size=(784, 300))
        self.c = np.pad(rng.normal(size=(64, 8, 14, 14)), ((0, 0), (0, 0), (1, 1), (1, 1)))
        self.k = rng.normal(size=(16, 8))
        self.times: list[float] = []
        for _ in range(3):  # first touches and einsum path caches
            self._loop()

    def _loop(self) -> int:
        for _ in range(2):
            z = np.maximum(self.x @ self.w, 0.0)
            self.x.T @ z
            w32 = self.w.astype(np.float32).astype(np.float64)
            codes = np.zeros(self.w.shape)
            codes[w32 > 0.1] = 1.0
            codes[w32 < -0.1] = -1.0
            for p in range(4):
                for q in range(4):
                    np.einsum("nchw,fc->nfhw", self.c[:, :, p : p + 14 : 2, q : q + 14 : 2], self.k, optimize=True)
        acc = 0
        for i in range(3000):
            acc += i * i
        return acc

    def factor(self) -> float:
        """REF_S over the loop's time now: multiply a duration by it."""
        t0 = time.perf_counter()
        self._loop()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return self.REF_S / dt


class ServeSpeed:
    """Host speed for serving, from the benchmark's own forward of the served model.

    A batch-1 request is small numpy calls and interpreter work, and on the
    host this benchmark was built on it slows more than HostSpeed's loop
    when the host slows: in one 40 s process, bursts of LeNet requests
    spread 49% (interquartile range over median), 27% after scaling by the
    loop and 12% after scaling by this reference. So before each burst the
    reference forward of checks.py (no terntrain code) runs REF_CALLS
    batch-1 requests on the burst's verified model, and the burst's request
    times are multiplied by REF_S over the reference's time per call. On
    this host the reference takes about REF_S per call, on either
    workload, when HostSpeed's loop takes its REF_S.
    """

    REF_CALLS = 16
    REF_S = 0.00031

    def __init__(self):
        self.times: list[float] = []

    def factor(self, model: checks.RefModel, images: np.ndarray) -> float:
        t0 = time.perf_counter()
        for j in range(self.REF_CALLS):
            checks.forward_reference(model, images[j : j + 1])
        dt = (time.perf_counter() - t0) / self.REF_CALLS
        self.times.append(dt)
        return self.REF_S / dt


# --- one run --------------------------------------------------------------------


def _dataset(n: int, seed: int) -> data.Dataset:
    images, labels = data.make_synth_mnist(n, seed=seed)
    x = (images.astype(np.float64) / 255.0 - NORM_MEAN) / NORM_STD
    return data.Dataset(x.reshape(n, 1, 28, 28), labels, NORM_MEAN, NORM_STD)


@dataclass
class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, n: int, error: str | None = None) -> None:
        self.attempted += n
        if error is not None:
            self.failed += n
            self.failures.append(error)


def _reference_model(model: network.Model) -> checks.RefModel:
    """Reference codes and truncnorm scales from the model's own weights."""
    layers = []
    for layer in model.param_layers():
        ref = checks.quantizer_reference(layer.w.data, layer.qstate.delta)
        layers.append(checks.RefLayer(layer.name, layer.w.shape, True, ref["scale"], ref["codes"], None,
                                      layer.b.data))
    return checks.RefModel(model.arch, layers)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, out_dir: str):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.out_dir = out_dir
        self.ops = Ops()
        self.rounds: list[dict] = []
        self.epoch_rows: list[dict] = []
        self.first_acc: float | None = None
        self.verified: Verified | None = None
        self.timing = False  # samples are kept from round 1 on
        # Seconds per timed unit; "serve_s" holds one list of request times per burst.
        self.samples: dict[str, list] = {"pretrain_s": [], "quantize_s": [], "eval_s": [], "serve_s": []}
        self.raw_samples: dict[str, list] = {k: [] for k in self.samples}
        self.speed = HostSpeed()
        self.serve_speed = ServeSpeed()
        self.next_request = 0
        self.file_path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.tern")
        self.steps_per_epoch = math.ceil(self.wl.n_train / BATCH)
        self.batches_per_eval = math.ceil(self.wl.n_test / EVAL_BATCH)

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> tuple[list[float], list[float]]:
        """Data generation and model build, repeated; each repeat's seconds, scaled and raw."""
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            f = self.speed.factor()
            t0 = time.perf_counter()
            with self.span("bench.setup"):
                self.train_ds = _dataset(self.wl.n_train, self.seed)
                self.test_ds = _dataset(self.wl.n_test, self.seed + TEST_SEED_OFFSET)
                network.build_from_config(self.wl.arch, seed=self.seed)
            raw.append(time.perf_counter() - t0)
            scaled.append(raw[-1] * f)
        return scaled, raw

    # -- one round -------------------------------------------------------------

    def speed_factor(self) -> float | None:
        return self.speed.factor() if self.timing else None

    def record(self, key: str, seconds: float, before: float | None) -> None:
        """Keep a timed unit, scaled by the host speed measured right before and right after it.

        The host can change speed during a unit; in a 40 s run the
        before-and-after mean left the scaled units of a kind spread less
        than the factor from before alone in five of six unit kinds.
        """
        if before is not None:
            after = self.speed.factor()
            self.samples[key].append(seconds * 2 / (1 / before + 1 / after))
            self.raw_samples[key].append(seconds)

    def round(self, index: int) -> dict:
        wl, seed = self.wl, self.seed
        tr, te = self.train_ds, self.test_ds
        res: dict = {"round": index}
        ops = self.ops
        n_pre = PRETRAIN_EPOCHS * self.steps_per_epoch
        n_tern = (1 + TERN_EPOCHS) * self.steps_per_epoch
        n_eval = wl.eval_repeats * self.batches_per_eval
        try:
            model = network.build_from_config(wl.arch, seed=seed)
            # One pretrain() call per epoch, each with its own batch-order seed.
            for e in range(PRETRAIN_EPOCHS):
                f = self.speed_factor()
                t0 = time.perf_counter()
                trainer.pretrain(model, tr, optim.OptimizerConfig(**PRETRAIN_CFG), epochs=1,
                                 batch_size=BATCH, seed=seed + e)
                self.record("pretrain_s", time.perf_counter() - t0, f)
                self.burst(index)

            model.init_thresholds(INIT_FRAC)
            model.refresh_all()
            # A threshold-init eval that disagrees with the reference fails the round.
            init_loss, init_acc = trainer.eval_loss_acc(model, te, "ternary")
            ref_init = _reference_model(model)
            ref_init_loss = checks.check_eval(init_loss, init_acc, checks.forward_reference(ref_init, te.images),
                                              te.labels)

            state = trainer.make_train_state(
                model, optim.OptimizerConfig(**WEIGHT_CFG), optim.OptimizerConfig(**THRESHOLD_CFG),
                seed=seed, schedule=SCHEDULE,
            )
            # train() one epoch per call is the same arithmetic as one call for
            # all epochs: the schedule, rng and metrics live in the state.
            trainer.train(state, tr, 1, batch_size=BATCH)  # warm-up epoch, untimed
            self.burst(index)
            minflt = 0
            for _ in range(TERN_EPOCHS):
                f = self.speed_factor()
                flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                trainer.train(state, tr, 1, batch_size=BATCH)
                self.record("quantize_s", time.perf_counter() - t0, f)
                minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
                self.burst(index)
            res["minflt_per_step"] = minflt / (TERN_EPOCHS * self.steps_per_epoch)
            if index == 0:
                self.epoch_rows = [dict(r) for r in state.metrics]
            self.last_state = state

            with self.span("bench.eval"):
                for _ in range(wl.eval_repeats):
                    f = self.speed_factor()
                    t0 = time.perf_counter()
                    loss, acc = trainer.eval_loss_acc(model, te, "ternary")
                    self.record("eval_s", time.perf_counter() - t0, f)
            res.update(loss=loss, acc=acc)

            report = modelio.export_packed(model, self.file_path)
            with open(self.file_path, "rb") as fh:
                blob = fh.read()
            res["file_bytes"] = len(blob)
        except Exception:  # any program failure fails the round's own operations
            err = traceback.format_exc()
            print(err, file=sys.stderr)
            ops.add(n_pre + n_tern + n_eval + 1, f"round {index}: {err.splitlines()[-1]}")
            res["error"] = err
            return res
        ops.add(n_pre)

        # Export: the file against codes and scales recomputed from the weights.
        try:
            if report["file_bytes"] != len(blob):
                raise checks.CheckError(f"export report says {report['file_bytes']} bytes, file has {len(blob)}")
            decoded = checks.decode_tern(blob)
            if decoded.arch != wl.arch or len(decoded.layers) != len(model.param_layers()):
                raise checks.CheckError("decoded arch or layer count differs from the model")
            for layer, rec in zip(model.param_layers(), decoded.layers):
                ref = checks.quantizer_reference(layer.w.data, layer.qstate.delta)
                st = layer.qstate
                checks.check_quantizer_state(layer.name, ref, st.mu, st.sigma, st.delta_c, st.scale)
                checks.check_file_layer(rec, ref)
            ops.add(1)
        except checks.CheckError as e:
            ops.add(1, f"round {index} export: {e}")
            decoded = None

        # Eval: the program's loss and accuracy against the decoded file's forward.
        final_loss = float("inf")
        ref_logits = None
        try:
            if decoded is None:
                raise checks.CheckError("no verified file to build the reference forward from")
            ref_logits = checks.forward_reference(decoded, te.images)
            final_loss = checks.check_eval(loss, acc, ref_logits, te.labels)
            if self.first_acc is not None and acc != self.first_acc:
                raise checks.CheckError(f"accuracy {acc} differs from round 0's {self.first_acc} on the same seed")
            self.first_acc = acc if self.first_acc is None else self.first_acc
            ops.add(n_eval)
        except checks.CheckError as e:
            ops.add(n_eval, f"round {index} eval: {e}")

        # Training: ternary training lowered the test loss and beat chance by far.
        try:
            checks.check_training(ref_init_loss, final_loss, acc)
            ops.add(n_tern)
        except checks.CheckError as e:
            ops.add(n_tern, f"round {index} training: {e}")

        if ref_logits is not None:
            self.verified = Verified(copy.deepcopy(model), loss, acc, decoded, ref_logits, self.file_path)
        self.burst(index)
        return res

    def burst(self, index: int) -> None:
        """Eval and serve the last verified model, so that eval and serve
        samples are spread over the whole run rather than bunched at round ends."""
        v = self.verified
        if v is None:
            return
        f = self.speed_factor()
        try:
            with self.span("bench.eval"):
                t0 = time.perf_counter()
                got = trainer.eval_loss_acc(v.model, self.test_ds, "ternary")
                self.record("eval_s", time.perf_counter() - t0, f)
            if got != (v.loss, v.acc):
                raise checks.CheckError(f"eval of the verified model gave {got}, not {(v.loss, v.acc)}")
            self.ops.add(self.batches_per_eval)
        except Exception as e:  # a failed check or a raising eval fails the eval's batches
            self.ops.add(self.batches_per_eval, f"round {index} eval burst: {e!r}")
        self.serve(index, v)

    def serve(self, index: int, v: "Verified") -> None:
        """Closed loop, one client: each batch-1 request waits for the previous one."""
        images = self.test_ds.images
        f = self.serve_speed.factor(v.ref_model, images) if self.timing else None
        times = []
        with self.span("bench.serve"):
            for _ in range(SERVE_BURST):
                j = self.next_request % len(images)
                self.next_request += 1
                t0 = time.perf_counter()
                try:
                    out = modelio.load_packed_and_infer(v.path, images[j : j + 1])
                    times.append(time.perf_counter() - t0)
                    checks.check_logits(out, v.ref_logits[j : j + 1])
                    self.ops.add(1)
                except Exception as e:  # a request that raises or answers wrong has failed
                    self.ops.add(1, f"round {index} request {j}: {e!r}")
        # Serve figures are taken per burst: a burst shares one factor, and
        # when the host changes speed between the reference and the end of a
        # burst, the median over bursts keeps that burst out of the figures.
        if f is not None and times:
            self.samples["serve_s"].append([t * f for t in times])
            self.raw_samples["serve_s"].append(times)

    # -- the whole run ---------------------------------------------------------

    def execute(self, import_s: float) -> dict:
        os.makedirs(self.out_dir, exist_ok=True)
        if self.tracer is not None:
            install(self.tracer, self.wl.arch)
            self.tracer.active = True
        # The peak so far is the imports' (numpy, terntrain and the
        # benchmark's own: scipy.stats alone is about 70 MB) and the
        # host-speed loop's. The metric is what set-up and the rounds add.
        base_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_scaled, setup_raw = self.setup()
        start = time.perf_counter()
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            self.timing = index > 0
            if self.tracer is not None:
                self.tracer.active = self.timing
            self.rounds.append(self.round(index))
            index += 1
        wall = time.perf_counter() - start
        process_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_rss_mb = process_peak_mb - base_rss_mb
        result = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "measured_wall_s": wall,
            "setup_s": {"import_s": import_s, "repeats_s": setup_raw, "repeats_scaled_s": setup_scaled},
            "samples": {k: len(v) for k, v in self.samples.items()},
            "host_speed_loop_s": self.speed.times,
            "serve_ref_call_s": self.serve_speed.times,
            "rss_mb": {"before_setup_peak": base_rss_mb, "process_peak": process_peak_mb},
            "rounds": self.rounds,
            "epoch_rows": self.epoch_rows,
            "failures": self.ops.failures,
        }
        if self.tracer is not None:
            self.tracer.active = False
            result["trace"] = trace_metrics(self)
            self.tracer.unwrap_all()
        else:
            # Import ran before any loop timing; scale it by the first one.
            first = self.speed.REF_S / self.speed.times[0]
            result["metrics"] = end_to_end(self, self.samples, import_s * first, setup_scaled, peak_rss_mb)
            result["unscaled_metrics"] = end_to_end(self, self.raw_samples, import_s, setup_raw, peak_rss_mb)
        return result


@dataclass
class Verified:
    """A round's checked model and file, exercised again between later stages."""

    model: network.Model
    loss: float
    acc: float
    ref_model: checks.RefModel  # decoded from the verified file
    ref_logits: np.ndarray
    path: str


# --- metrics ----------------------------------------------------------------------


def end_to_end(run: Run, smp: dict, import_s: float, setup_times: list[float], peak_rss_mb: float) -> dict:
    """Medians over the timed rounds' samples; serve figures are medians over bursts."""
    wl = run.wl
    if run.first_acc is None or not all(smp.values()):
        return {}
    bursts = [1e3 * np.asarray(b) for b in smp["serve_s"]]
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "pretrain_sps": (wl.n_train / statistics.median(smp["pretrain_s"]), "samples/s"),
        "quantize_sps": (wl.n_train / statistics.median(smp["quantize_s"]), "samples/s"),
        "eval_sps": (wl.n_test / statistics.median(smp["eval_s"]), "samples/s"),
        "tern_test_acc": (run.first_acc, "fraction"),
        "serve_rps": (statistics.median([1e3 * len(b) / b.sum() for b in bursts]), "requests/s"),
        "serve_ms_p50": (statistics.median([float(np.percentile(b, 50)) for b in bursts]), "ms"),
        "serve_ms_p90": (statistics.median([float(np.percentile(b, 90)) for b in bursts]), "ms"),
        "tern_file_bytes": (os.path.getsize(run.file_path), "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _shape_names(arch: str) -> dict:
    model = network.build_from_config(arch, seed=0)
    return {tuple(l.w.shape): l.name for l in model.param_layers()}


def install(tracer: Tracer, arch: str) -> None:
    """Wrap each measured function wherever terntrain looks it up."""
    names = _shape_names(arch)

    def shape_of(obj) -> tuple:
        if isinstance(obj, tuple):
            return obj
        return np.shape(obj.data if isinstance(obj, autograd.Tensor) else obj)

    def by_shape(pos):
        return lambda args, kwargs: names.get(shape_of(args[pos]), str(shape_of(args[pos])))

    w = tracer.wrap
    for fn in ("pretrain", "train", "tern_train_step", "threshold_substep", "weight_substep", "eval_loss_acc"):
        w(trainer, fn, f"trainer.{fn}")
    w(trainer, "backward", "autograd.backward")
    w(network.Model, "refresh_all", "network.refresh_all")
    w(network.Model, "forward", "network.forward",
      label=lambda a, k: {"float": "float", ternarize.THRESHOLD_PHASE: "threshold", ternarize.WEIGHT_PHASE: "weight"}[
          a[2] if len(a) > 2 else k.get("mode", network.FLOAT_MODE)])
    w(network.Model, "snap_params_f32", "network.snap_params_f32")
    w(network, "tern", "ternarize.tern", label=by_shape(0))
    w(network, "refresh", "ternarize.refresh", label=by_shape(1))
    w(ternarize, "tern", "ternarize.tern", label=by_shape(0))
    w(ternarize, "layer_stats", "ternarize.layer_stats", label=by_shape(0))
    w(autograd, "_node", "autograd.op", counter_only=True)
    w(kernels, "conv2d_forward", "kernels.conv2d_forward", label=by_shape(1))
    w(kernels, "conv2d_backward_x", "kernels.conv2d_backward_x", label=by_shape(2))
    w(kernels, "conv2d_backward_w", "kernels.conv2d_backward_w", label=by_shape(2))
    w(optim.SGD, "step", "optim.weight_step")
    w(optim.Adam, "step", "optim.weight_step")
    w(optim.ThresholdOptimizer, "update", "optim.threshold_update")
    for fn in ("load_packed_and_infer", "packed_from_bytes", "unpack_codes", "export_packed"):
        w(modelio, fn, f"modelio.{fn}")
    w(data, "make_synth_mnist", "data.make_synth_mnist")

    # matmul: time its forward and, through the node's rule, its backward.
    matmul = autograd.matmul
    mm_label = by_shape(1)

    def traced_matmul(a, b):
        label = mm_label((a, b), {}) if tracer.active else ""
        idx = tracer._open("autograd.matmul", label)
        try:
            out = matmul(a, b)
        finally:
            tracer._close(idx)
        rule = out._backward
        if rule is not None:
            def timed_rule(g):
                j = tracer._open("autograd.matmul_backward", label)
                try:
                    return rule(g)
                finally:
                    tracer._close(j)

            out._backward = timed_rule
        return out

    tracer._patches.append((autograd, "matmul", matmul))
    autograd.matmul = traced_matmul


STEP = "trainer.tern_train_step"


def trace_metrics(run: Run) -> dict:
    """Per-layer figures from the spans of the timed rounds, then the tracing overhead."""
    tr = run.tracer.analyse()
    steps = tr.select(STEP)
    n = max(len(steps), 1)
    timed = [r for r in run.rounds[1:] if "error" not in r]
    requests = max(len(tr.select("modelio.load_packed_and_infer", within="bench.serve")), 1)

    def per_step(name, label=None, self_time=False):
        return tr.total_ms(tr.select(name, label, within=STEP), self_time) / n

    def calls(name, label=None):
        return len(tr.select(name, label, within=STEP)) / n

    m = {
        "trainer.tern_train_step_ms": (tr.mean_ms(steps), "ms"),
        "trainer.threshold_substep_ms": (tr.mean_ms(tr.select("trainer.threshold_substep")), "ms"),
        "trainer.weight_substep_ms": (tr.mean_ms(tr.select("trainer.weight_substep")), "ms"),
        "trainer.eval_loss_acc_ms": (tr.mean_ms(tr.select("trainer.eval_loss_acc", within="bench.eval")), "ms"),
        "trainer.minflt_per_step": (statistics.median(r["minflt_per_step"] for r in timed), "count"),
        "network.refresh_all_ms": (tr.mean_ms(tr.select("network.refresh_all", within=STEP)), "ms"),
        "network.refresh_all_calls": (calls("network.refresh_all"), "count"),
        "network.forward_float_ms": (tr.mean_ms(tr.select("network.forward", "float", within="trainer.pretrain",
                                                          outside="trainer.eval_loss_acc")), "ms"),
        "network.forward_threshold_ms": (tr.mean_ms(tr.select("network.forward", "threshold", within=STEP)), "ms"),
        "network.forward_weight_ms": (tr.mean_ms(tr.select("network.forward", "weight", within=STEP)), "ms"),
        "network.snap_params_f32_ms": (tr.mean_ms(tr.select("network.snap_params_f32", within=STEP)), "ms"),
        "ternarize.tern_ms": (per_step("ternarize.tern"), "ms"),
        "ternarize.tern_calls": (calls("ternarize.tern"), "count"),
        "ternarize.layer_stats_ms": (per_step("ternarize.layer_stats"), "ms"),
        "ternarize.layer_stats_calls": (calls("ternarize.layer_stats"), "count"),
        "autograd.backward_ms": (per_step("autograd.backward", self_time=True), "ms"),
        "autograd.op_calls": (tr.count_within("autograd.op", STEP) / n, "count"),
        "kernels.conv2d_forward_calls": (calls("kernels.conv2d_forward"), "count"),
        "kernels.conv2d_backward_x_calls": (calls("kernels.conv2d_backward_x"), "count"),
        "kernels.conv2d_backward_w_calls": (calls("kernels.conv2d_backward_w"), "count"),
        "optim.weight_step_ms": (per_step("optim.weight_step"), "ms"),
        "optim.threshold_update_ms": (per_step("optim.threshold_update"), "ms"),
        "modelio.load_packed_and_infer_ms": (tr.mean_ms(tr.select("modelio.load_packed_and_infer", within="bench.serve")), "ms"),
        "modelio.packed_from_bytes_ms": (tr.total_ms(tr.select("modelio.packed_from_bytes", within="bench.serve")) / requests, "ms"),
        "modelio.unpack_codes_ms": (tr.total_ms(tr.select("modelio.unpack_codes", within="bench.serve")) / requests, "ms"),
        "modelio.export_packed_ms": (tr.mean_ms(tr.select("modelio.export_packed")), "ms"),
        "data.make_synth_mnist_ms": (tr.mean_ms(tr.select("data.make_synth_mnist")), "ms"),
    }
    # Each parametric layer's linear op, by position: matmul for a dense
    # layer, the conv kernels for a conv layer; forward and backward per step.
    breakdown = {}
    for pos, layer in enumerate(network.build_from_config(run.wl.arch, seed=0).param_layers()):
        if layer.spec.kind == "dense":
            fwd = per_step("autograd.matmul", layer.name)
            bwd = per_step("autograd.matmul_backward", layer.name)
            breakdown[f"autograd.matmul_ms.{layer.name}"] = fwd + bwd
        else:
            fwd = per_step("kernels.conv2d_forward", layer.name)
            bx = per_step("kernels.conv2d_backward_x", layer.name)
            bw = per_step("kernels.conv2d_backward_w", layer.name)
            bwd = bx + bw
            breakdown[f"kernels.conv2d_forward_ms.{layer.name}"] = fwd
            breakdown[f"kernels.conv2d_backward_x_ms.{layer.name}"] = bx
            breakdown[f"kernels.conv2d_backward_w_ms.{layer.name}"] = bw
            for phase in ("threshold", "weight"):
                for kern in ("backward_x", "backward_w"):
                    idx = tr.select(f"kernels.conv2d_{kern}", layer.name, within=f"trainer.{phase}_substep")
                    breakdown[f"kernels.conv2d_{kern}_ms.{layer.name}.{phase}"] = tr.total_ms(idx) / n
        m[f"linop.forward_ms.p{pos}"] = (fwd, "ms")
        m[f"linop.backward_ms.p{pos}"] = (bwd, "ms")
    serve_fwd = tr.select("kernels.conv2d_forward", within="bench.serve")
    breakdown["kernels.conv2d_forward_ms.serve"] = tr.total_ms(serve_fwd) / requests
    profile = tr.self_times_by_name()

    m["trainer.step_alloc_mb"] = (step_alloc_mb(run), "MB")
    step_pct, serve_pct = tracing_overhead(run)
    m["trace.step_overhead_pct"] = (step_pct, "%")
    m["trace.serve_overhead_pct"] = (serve_pct, "%")
    return {"metrics": m, "breakdown": breakdown, "self_time_profile": profile, "steps": len(steps),
            "requests": requests}


def _batches(run: Run, k: int) -> list:
    rng = np.random.default_rng(run.seed)
    idx = [rng.permutation(run.wl.n_train)[:BATCH] for _ in range(k)]
    return [(run.train_ds.images[i], run.train_ds.labels[i]) for i in idx]


def step_alloc_mb(run: Run, k: int = 3) -> float:
    """Peak bytes allocated by one ternary step, via tracemalloc, on a copy of the state."""
    state = copy.deepcopy(run.last_state)
    batches = _batches(run, k + 1)
    trainer.tern_train_step(state, batches[0])
    peaks = []
    tracemalloc.start()
    try:
        for b in batches[1:]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            trainer.tern_train_step(state, b)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 2**20


def tracing_overhead(run: Run, pairs: int = 30) -> tuple[float, float]:
    """Median of traced over untraced time, in percent, from adjacent pairs.

    Steps and requests alternate between untraced and traced one by one, so
    both sides of a pair see the same host speed; the order within a pair
    alternates too, so that neither side always runs on warmer caches.
    """
    tracer = run.tracer
    state = copy.deepcopy(run.last_state)
    batch = _batches(run, 1)[0]
    images = run.test_ds.images

    def ratio(i: int, fn) -> float:
        t = {}
        for on in (i % 2 == 1, i % 2 == 0):
            tracer.active = on
            t0 = time.perf_counter()
            fn()
            t[on] = time.perf_counter() - t0
        return t[True] / t[False]

    # Steps and requests in separate loops: a request right after a step
    # runs on caches the step evicted.
    step_ratio = [ratio(i, lambda: trainer.tern_train_step(state, batch)) for i in range(pairs)]
    req_ratio = [ratio(i, lambda: modelio.load_packed_and_infer(run.file_path, images[i % len(images)][None]))
                 for i in range(4 * pairs)]
    tracer.active = False
    return 100.0 * (statistics.median(step_ratio) - 1.0), 100.0 * (statistics.median(req_ratio) - 1.0)
