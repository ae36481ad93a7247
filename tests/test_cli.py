import json
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import terntrain
from terntrain.cli import blas_threads, build_id, build_parser, main
from terntrain.config import config_from_pairs, parse_kv_text
from terntrain.data import make_synth_mnist, save_idx_images, save_idx_labels
from terntrain.modelio import load_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small IDX dataset plus a config file for fast end-to-end runs."""
    root = tmp_path_factory.mktemp("cli")
    imgs, lbls = make_synth_mnist(192, seed=1, noise=20.0, max_shift=2, gain_lo=0.8)
    save_idx_images(root / "train_img.idx", imgs)
    save_idx_labels(root / "train_lbl.idx", lbls)
    imgs, lbls = make_synth_mnist(64, seed=2, noise=20.0, max_shift=2, gain_lo=0.8)
    save_idx_images(root / "test_img.idx", imgs)
    save_idx_labels(root / "test_lbl.idx", lbls)
    cfg = root / "run.cfg"
    cfg.write_text(
        f"""
arch = mlp-784-16-10
dataset = idx
train_images = {root / 'train_img.idx'}
train_labels = {root / 'train_lbl.idx'}
test_images = {root / 'test_img.idx'}
test_labels = {root / 'test_lbl.idx'}
batch_size = 32
epochs = 4
seed = 3
weight_opt = vanilla-sgd
weight_lr = 0.1
threshold_lr = 0.002
out_dir = {root / 'out'}
"""
    )
    return root, cfg


@pytest.fixture(scope="module")
def pretrained(workspace):
    root, cfg = workspace
    assert main(["pretrain", "--config", str(cfg)]) == 0
    return root, cfg, root / "out" / "pretrain.ckpt"


def test_pretrain_outputs(pretrained):
    root, cfg, ckpt = pretrained
    out = root / "out"
    assert ckpt.exists()
    assert (out / "pretrain_metrics.csv").exists()
    info = json.loads((out / "pretrain_run_info.json").read_text())
    assert info["seed"] == 3
    assert info["build_id"].startswith("terntrain-")
    assert info["config"]["arch"] == "mlp-784-16-10"


def test_build_id_falls_back_to_the_version_when_git_times_out(monkeypatch):
    def timeout(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(terntrain.cli.subprocess, "run", timeout)
    assert build_id() == f"terntrain-{terntrain.__version__}"


def test_run_info_records_the_blas_thread_count(pretrained):
    count = json.loads((pretrained[0] / "out" / "pretrain_run_info.json").read_text())["blas_threads"]
    assert count == blas_threads()
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert isinstance(count, int) and count >= 1
    else:  # null when the BLAS does not report its count
        assert count is None or count >= 1


def _last_logged_accuracy(csv_path, split):
    import csv

    with open(csv_path) as fh:
        return float([r for r in csv.DictReader(fh) if r["split"] == split][-1]["accuracy"])


def test_checkpoints_carry_the_run_metadata(pretrained, tmp_path):
    root, cfg, ckpt = pretrained
    log = root / "out" / "pretrain_metrics.csv"
    assert load_checkpoint(ckpt).meta == {
        "kind": "pretrain",
        "epochs": 4,
        "seed": 3,
        "final_train_accuracy": _last_logged_accuracy(log, "train"),
        "final_test_accuracy": _last_logged_accuracy(log, "test"),
    }
    out_dir = tmp_path / "q"
    argv = ["quantize", "--config", str(cfg), "--checkpoint", str(ckpt), "--epochs", "1", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    assert load_checkpoint(out_dir / "ternary.ckpt").meta == {
        "kind": "ternary",
        "epochs": 1,
        "seed": 3,
        "grad_correctness": True,
        "final_test_accuracy": _last_logged_accuracy(out_dir / "metrics.csv", "test"),
    }
    # run_info.json records the checkpoint the run read.
    assert json.loads((out_dir / "run_info.json").read_text())["config"]["pretrain_checkpoint"] == str(ckpt)


def test_pretrain_and_quantize_keep_their_own_run_records_in_one_directory(pretrained, tmp_path):
    root, cfg, _ = pretrained
    out_dir = tmp_path / "both"
    assert main(["pretrain", "--config", str(cfg), "--epochs", "0", "--out-dir", str(out_dir)]) == 0
    argv = ["quantize", "--config", str(cfg), "--checkpoint", str(out_dir / "pretrain.ckpt")]
    assert main(argv + ["--epochs", "0", "--out-dir", str(out_dir)]) == 0
    pretrain_info = json.loads((out_dir / "pretrain_run_info.json").read_text())
    quantize_info = json.loads((out_dir / "run_info.json").read_text())
    assert pretrain_info["command"] == "pretrain"
    assert pretrain_info["config"]["pretrain_checkpoint"] == ""
    assert quantize_info["command"] == "quantize"
    assert quantize_info["config"]["pretrain_checkpoint"] == str(out_dir / "pretrain.ckpt")


def test_eval_float_matches_final_pretrain_log(pretrained, capsys):
    root, cfg, ckpt = pretrained
    import csv

    with open(root / "out" / "pretrain_metrics.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["split"] == "test"]
    recorded = float(rows[-1]["accuracy"])
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--mode", "float"]) == 0
    out = capsys.readouterr().out
    printed = float(out.strip().rsplit("=", 1)[1])
    assert printed == pytest.approx(recorded, abs=1e-9)


def test_quantize_export_inspect_roundtrip(pretrained, tmp_path, capsys):
    root, cfg, ckpt = pretrained
    out_dir = tmp_path / "q"
    rc = main(
        [
            "quantize",
            "--config",
            str(cfg),
            "--checkpoint",
            str(ckpt),
            "--epochs",
            "2",
            "--init-frac",
            "0.1",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert rc == 0
    tern_ckpt = out_dir / "ternary.ckpt"
    assert tern_ckpt.exists()
    assert (out_dir / "metrics.csv").exists()
    capsys.readouterr()

    packed = tmp_path / "model.tern"
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "export",
            "--checkpoint",
            str(tern_ckpt),
            "--out",
            str(packed),
            "--report",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["totals"]["compression_ratio"] > 10
    assert all(type(e["dead_outputs"]) is int and e["dead_outputs"] >= 0 for e in report["layers"] if e["quantized"])
    stdout_report = json.loads(capsys.readouterr().out)
    assert stdout_report["totals"] == report["totals"]
    assert packed.exists()

    rc = main(["inspect", "--checkpoint", str(tern_ckpt)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "delta_c=" in text and "scale=" in text and "skewness=" in text
    assert text.count("[") > 32  # histogram lines present


@pytest.mark.parametrize(
    "flag, line",
    [("nan", ""), ("inf", ""), ("-1", ""), (None, "init_frac = nan")],
    ids=["flag-nan", "flag-inf", "flag-negative", "config-nan"],
)
def test_quantize_rejects_a_bad_init_frac_as_a_config_error(pretrained, tmp_path, capsys, flag, line):
    root, cfg, ckpt = pretrained
    bad_cfg = tmp_path / "run.cfg"
    bad_cfg.write_text(cfg.read_text() + line + "\n")
    argv = ["quantize", "--config", str(bad_cfg), "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "q")]
    if flag is not None:
        argv += ["--init-frac", flag]
    assert main(argv) == 1
    assert "config error: init_frac" in capsys.readouterr().err
    assert not (tmp_path / "q" / "ternary.ckpt").exists()


def test_quantize_rerun_reproduces_metrics(pretrained, tmp_path):
    root, cfg, ckpt = pretrained

    def run(d):
        rc = main(
            [
                "quantize",
                "--config",
                str(cfg),
                "--checkpoint",
                str(ckpt),
                "--epochs",
                "1",
                "--out-dir",
                str(d),
            ]
        )
        assert rc == 0
        return (d / "metrics.csv").read_bytes()

    assert run(tmp_path / "a") == run(tmp_path / "b")


def test_no_grad_correctness_flag_changes_training(pretrained, tmp_path):
    root, cfg, ckpt = pretrained
    base = ["quantize", "--config", str(cfg), "--checkpoint", str(ckpt), "--epochs", "1"]
    assert main(base + ["--out-dir", str(tmp_path / "gc")]) == 0
    assert main(base + ["--no-grad-correctness", "--out-dir", str(tmp_path / "nogc")]) == 0
    a = load_checkpoint(tmp_path / "gc" / "ternary.ckpt")
    b = load_checkpoint(tmp_path / "nogc" / "ternary.ckpt")
    diffs = [
        float(np.abs(x.w.data - y.w.data).max())
        for x, y in zip(a.param_layers(), b.param_layers())
    ]
    assert max(diffs) > 0  # the STE backward actually changed the updates
    info = json.loads((tmp_path / "nogc" / "run_info.json").read_text())
    assert info["config"]["grad_correctness"] is False


def test_env_seed_override(pretrained, tmp_path, monkeypatch, capsys):
    root, cfg, ckpt = pretrained
    monkeypatch.setenv("TERNTRAIN_SEED", "99")
    out_dir = tmp_path / "env"
    rc = main(["pretrain", "--config", str(cfg), "--epochs", "0", "--out-dir", str(out_dir)])
    assert rc == 0
    assert json.loads((out_dir / "pretrain_run_info.json").read_text())["seed"] == 99
    # explicit flag beats the environment
    out_dir2 = tmp_path / "flag"
    rc = main(
        ["pretrain", "--config", str(cfg), "--epochs", "0", "--seed", "5", "--out-dir", str(out_dir2)]
    )
    assert rc == 0
    assert json.loads((out_dir2 / "pretrain_run_info.json").read_text())["seed"] == 5
    monkeypatch.setenv("TERNTRAIN_SEED", "not-a-number")
    assert main(["pretrain", "--config", str(cfg), "--epochs", "0"]) == 1
    # A negative seed from the config, the flag or the environment is a
    # config error, raised before the run directory is written.
    neg_cfg = tmp_path / "neg.cfg"
    neg_cfg.write_text(cfg.read_text().replace("seed = 3", "seed = -2"))
    monkeypatch.delenv("TERNTRAIN_SEED")
    for env, config, flags in (
        (None, neg_cfg, []),
        (None, cfg, ["--seed", "-1"]),
        ("-5", cfg, []),
    ):
        if env is not None:
            monkeypatch.setenv("TERNTRAIN_SEED", env)
        for command, extra in (("pretrain", []), ("quantize", ["--checkpoint", str(ckpt)])):
            out_dir = tmp_path / "neg" / command
            argv = [command, "--config", str(config), "--epochs", "0", "--out-dir", str(out_dir)]
            capsys.readouterr()
            assert main(argv + extra + flags) == 1
            assert "config error: seed" in capsys.readouterr().err
            assert not out_dir.exists()


def test_usage_and_config_errors_exit_1(pretrained, tmp_path, capsys):
    root, cfg, ckpt = pretrained
    assert main(["pretrain"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("arch = mlp-784-16-10\nbogus_key = 1\n")
    assert main(["pretrain", "--config", str(bad)]) == 1
    assert main(["quantize", "--config", str(cfg), "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1
    assert main(["gradcheck", "--seed", "-1"]) == 1
    capsys.readouterr()
    # gradcheck's seed goes through the seed key's parser.
    assert main(["gradcheck", "--seed", "x"]) == 1
    assert "config error: seed" in capsys.readouterr().err
    # eval trains nothing and draws nothing, so it takes no seed.
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--seed", "5"]) == 1
    assert "usage error" in capsys.readouterr().err
    # An --epochs override gets the range check of the epochs config key.
    for command, extra in (("pretrain", []), ("quantize", ["--checkpoint", str(ckpt)])):
        out_dir = tmp_path / command
        argv = [command, "--config", str(cfg), "--epochs", "-3", "--out-dir", str(out_dir)]
        assert main(argv + extra) == 1
        assert "config error: epochs" in capsys.readouterr().err
        assert not out_dir.exists()


def _bad_input(command, case, root, cfg, ckpt, tmp_path):
    """A config text and a quantize checkpoint holding one bad input, and its exit code."""
    text = cfg.read_text()
    if case == "features-misfit":
        # pretrain builds the config's mlp-2-4-2; quantize reads the
        # mlp-784-16-10 checkpoint, which 2 features do not fit either.
        rows = "0,0.1,0.2,0.3\n1,0.4,0.5,0.6\n" if command == "pretrain" else "0,0.1,0.2\n1,0.4,0.5\n"
        (tmp_path / "train.csv").write_text(rows)
        text = text.replace("arch = mlp-784-16-10", "arch = mlp-2-4-2").replace("dataset = idx", "dataset = csv")
        return text + f"train_csv = {tmp_path / 'train.csv'}\n", ckpt, 1
    if case == "missing-data":
        return text.replace(str(root / "train_img.idx"), str(tmp_path / "nope.idx")), ckpt, 1
    if case == "label-out-of-range":
        save_idx_labels(tmp_path / "lbl.idx", np.arange(192) % 11)
        return text.replace(str(root / "train_lbl.idx"), str(tmp_path / "lbl.idx")), ckpt, 1
    if case == "bad-arch":
        return text.replace("arch = mlp-784-16-10", "arch = mlp-784-x-10"), ckpt, 1
    if case == "non-finite-feature":
        (tmp_path / "train.csv").write_text("0,0.1,0.2\n1,nan,0.5\n0,0.2,inf\n")
        text = text.replace("arch = mlp-784-16-10", "arch = mlp-2-4-2").replace("dataset = idx", "dataset = csv")
        return text + f"train_csv = {tmp_path / 'train.csv'}\n", ckpt, 1
    if case == "non-utf8-config":
        return text.encode() + b"# caf\xe9\n", ckpt, 1
    if case == "non-utf8-csv":
        (tmp_path / "train.csv").write_bytes(b"label,caf\xe9,x\n0,0.1,0.2\n")
        text = text.replace("arch = mlp-784-16-10", "arch = mlp-2-4-2").replace("dataset = idx", "dataset = csv")
        return text + f"train_csv = {tmp_path / 'train.csv'}\n", ckpt, 1
    if case == "oversized-idx-header":
        (tmp_path / "img.idx").write_bytes(struct.pack(">IIII", 0x00000803, 2**20, 2**12, 2**12) + bytes(64))
        return text.replace(str(root / "train_img.idx"), str(tmp_path / "img.idx")), ckpt, 1
    if case == "idx-trailing-bytes":
        (tmp_path / "img.idx").write_bytes((root / "train_img.idx").read_bytes() + bytes(100))
        return text.replace(str(root / "train_img.idx"), str(tmp_path / "img.idx")), ckpt, 1
    if case == "half-named-test-split":
        return text.replace(f"test_labels = {root / 'test_lbl.idx'}\n", ""), ckpt, 1
    if case == "tiny-normalize-std":
        return text + "normalize_std = 1e-320\n", ckpt, 1
    if case == "schedule-overflows-threshold-lr":
        # The breakpoint scales the threshold lr by 0.1 / 1e-320, which overflows.
        return text.replace("weight_lr = 0.1", "weight_lr = 1e-320") + "lr_schedule = 0:0.1\n", ckpt, 1
    blob = bytearray(ckpt.read_bytes())
    blob[50] ^= 0xFF
    (tmp_path / "corrupt.ckpt").write_bytes(bytes(blob))
    return text, tmp_path / "corrupt.ckpt", 2


@pytest.mark.parametrize(
    "command, case",
    [
        ("pretrain", "missing-data"),
        ("pretrain", "label-out-of-range"),
        ("pretrain", "bad-arch"),
        ("pretrain", "non-finite-feature"),
        ("pretrain", "non-utf8-config"),
        ("pretrain", "non-utf8-csv"),
        ("pretrain", "oversized-idx-header"),
        ("pretrain", "idx-trailing-bytes"),
        ("pretrain", "features-misfit"),
        ("pretrain", "half-named-test-split"),
        ("pretrain", "tiny-normalize-std"),
        ("quantize", "missing-data"),
        ("quantize", "label-out-of-range"),
        ("quantize", "bad-arch"),
        ("quantize", "corrupt-checkpoint"),
        ("quantize", "non-utf8-config"),
        ("quantize", "oversized-idx-header"),
        ("quantize", "features-misfit"),
        ("quantize", "half-named-test-split"),
        ("quantize", "tiny-normalize-std"),
        ("quantize", "schedule-overflows-threshold-lr"),
    ],
)
def test_bad_input_fails_before_the_run_directory_is_written(
    pretrained, tmp_path, capsys, command, case
):
    root, cfg, ckpt = pretrained
    text, checkpoint, code = _bad_input(command, case, root, cfg, ckpt, tmp_path)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(bad_cfg), "--out-dir", str(out_dir)]
    if command == "quantize":
        argv += ["--checkpoint", str(checkpoint)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if case == "label-out-of-range":
        assert "config error: train split: label 10" in err
    if case == "bad-arch":
        assert "config error: arch" in err
    if case == "half-named-test-split":
        assert "config error: config must name test_images and test_labels; test_labels is not set" in err
    if case == "non-finite-feature":
        assert "line 2: feature 'nan' is not a finite number" in err
    if case == "non-utf8-config":
        assert f"config error: cannot read config {bad_cfg}: " in err
    if case == "non-utf8-csv":
        assert "train.csv: line 1: not UTF-8 text" in err
    if case == "oversized-idx-header":
        assert f"config error: {tmp_path / 'img.idx'}: header dims" in err
    if case == "idx-trailing-bytes":
        assert f"config error: {tmp_path / 'img.idx'}: header dims (192, 28, 28) claim 150528 pixel bytes" in err
    if case == "tiny-normalize-std":
        assert f"config error: {root / 'train_img.idx'}: mean 0.0 and std 1e-320 normalize pixels to non-finite" in err
    if case == "schedule-overflows-threshold-lr":
        assert "config error: lr_schedule breakpoint 0:0.1 scales the threshold lr to inf" in err
    if case == "features-misfit":
        width = 3 if command == "pretrain" else 2
        arch = "mlp-2-4-2" if command == "pretrain" else "mlp-784-16-10"
        assert f"config error: train split: samples of shape ({width},) do not fit arch {arch!r}" in err
        # eval checks the split it reads against its checkpoint the same way.
        assert main(["eval", "--config", str(bad_cfg), "--checkpoint", str(ckpt), "--split", "train"]) == 1
        assert "config error: train split: samples of shape" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("label", ["9223372036854775808", "18446744073709551616", "1e30", "-1e30"])
def test_a_csv_label_int64_cannot_hold_is_a_config_error(pretrained, tmp_path, capsys, label):
    root, cfg, _ = pretrained
    (tmp_path / "train.csv").write_text(f"0,0.1,0.2\n{label},0.4,0.5\n")
    text = cfg.read_text().replace("arch = mlp-784-16-10", "arch = mlp-2-4-2").replace("dataset = idx", "dataset = csv")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(text + f"train_csv = {tmp_path / 'train.csv'}\n")
    out_dir = tmp_path / "out"
    assert main(["pretrain", "--config", str(bad_cfg), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {tmp_path / 'train.csv'}: line 2: label {label!r} does not fit a 64-bit integer" in err
    assert not out_dir.exists()


def test_a_failed_model_allocation_is_a_runtime_error(pretrained, tmp_path, monkeypatch, capsys):
    root, cfg, _ = pretrained

    def no_memory(arch, seed=0):
        raise MemoryError(f"cannot allocate arch {arch}")

    monkeypatch.setattr(terntrain.cli, "build_from_config", no_memory)
    out_dir = tmp_path / "out"
    assert main(["pretrain", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == "runtime error: cannot allocate arch mlp-784-16-10\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["pretrain", "quantize"])
def test_empty_out_dir_is_a_config_error(pretrained, tmp_path, monkeypatch, capsys, command):
    root, cfg, ckpt = pretrained
    monkeypatch.chdir(tmp_path)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(cfg.read_text().replace(f"out_dir = {root / 'out'}", "out_dir ="))
    extra = ["--checkpoint", str(ckpt)] if command == "quantize" else []
    for argv in (["--config", str(cfg), "--out-dir", ""], ["--config", str(bad_cfg)]):
        assert main([command] + argv + extra) == 1
        assert capsys.readouterr().err.startswith("config error: out_dir: ")
    assert os.listdir(tmp_path) == ["bad.cfg"]


@pytest.mark.parametrize("command", ["pretrain", "quantize"])
def test_divergence_exits_2_and_dumps_its_context(pretrained, tmp_path, capsys, command):
    root, cfg, ckpt = pretrained
    bad_cfg = tmp_path / "diverge.cfg"
    bad_cfg.write_text(cfg.read_text().replace("weight_lr = 0.1", "weight_lr = 1e30"))
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(bad_cfg), "--out-dir", str(out_dir)]
    if command == "quantize":
        argv += ["--checkpoint", str(ckpt)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv) == 2
    assert capsys.readouterr().err.startswith("runtime error: non-finite ")
    dump = json.loads((out_dir / "divergence_dump.json").read_text())
    context = dump["context"]
    assert list(context) == ["phase", "epoch", "batch"]
    # Overflowed weights fail the snap onto the float32 grid in the update that made them.
    assert context["phase"] in (("pretrain",) if command == "pretrain" else ("threshold", "weight"))
    assert context["epoch"] == 0 and context["batch"] >= 1
    assert str(context) in dump["error"]


def test_a_float_run_that_overflows_on_its_last_step_saves_no_checkpoint(pretrained, tmp_path, capsys):
    root, cfg, _ = pretrained
    bad_cfg = tmp_path / "overflow.cfg"
    text = cfg.read_text().replace("weight_lr = 0.1", "weight_lr = 1e308").replace("batch_size = 32", "batch_size = 256")
    bad_cfg.write_text(text.replace("arch = mlp-784-16-10", "arch = mlp-784-4-10"))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["pretrain", "--config", str(bad_cfg), "--epochs", "1", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: non-finite weights ")
    dump = json.loads((out_dir / "divergence_dump.json").read_text())
    assert dump["context"] == {"phase": "pretrain", "epoch": 0, "batch": 0}
    assert not (out_dir / "pretrain.ckpt").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_threshold_exits_2_and_dumps_its_context(pretrained, tmp_path, monkeypatch, capsys, bad):
    root, cfg, ckpt = pretrained
    monkeypatch.setattr(terntrain.optim.ThresholdOptimizer, "update", lambda self, name, delta, g: bad)
    out_dir = tmp_path / "out"
    assert main(["quantize", "--config", str(cfg), "--out-dir", str(out_dir), "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: non-finite threshold ")
    dump = json.loads((out_dir / "divergence_dump.json").read_text())
    assert dump["context"] == {"phase": "threshold", "epoch": 0, "batch": 0}
    assert not (out_dir / "ternary.ckpt").exists()


def test_eval_rejects_a_label_the_model_has_no_class_for(pretrained, tmp_path, capsys):
    root, cfg, ckpt = pretrained
    save_idx_labels(tmp_path / "lbl.idx", np.arange(64) % 12)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(cfg.read_text().replace(str(root / "test_lbl.idx"), str(tmp_path / "lbl.idx")))
    assert main(["eval", "--config", str(bad_cfg), "--checkpoint", str(ckpt)]) == 1
    assert "config error: test split: label 11" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, override, key, value",
    [
        ("pretrain", "--epochs", "epochs", "-3"),
        ("pretrain", "--epochs", "epochs", "2.5"),
        ("pretrain", "--seed", "seed", "-1"),
        ("pretrain", "TERNTRAIN_SEED", "seed", "x"),
        ("quantize", "--seed", "seed", "seven"),
        ("quantize", "TERNTRAIN_SEED", "seed", "-5"),
        ("quantize", "--init-frac", "init_frac", "nan"),
        ("quantize", "--init-frac", "init_frac", "0"),
        ("quantize", "--init-frac", "init_frac", "tenth"),
    ],
)
def test_bad_override_fails_like_the_same_value_in_the_config(
    pretrained, tmp_path, monkeypatch, capsys, command, override, key, value
):
    root, cfg, ckpt = pretrained
    rest = "".join(line for line in cfg.read_text().splitlines(True) if not line.startswith(f"{key} ="))
    run_cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(run_cfg), "--out-dir", str(out_dir)]
    if command == "quantize":
        argv += ["--checkpoint", str(ckpt)]

    run_cfg.write_text(rest)
    if override.startswith("--"):
        assert main(argv + [override, value]) == 1
    else:
        monkeypatch.setenv(override, value)
        assert main(argv) == 1
        monkeypatch.delenv(override)
    from_override = capsys.readouterr().err

    run_cfg.write_text(rest + f"{key} = {value}\n")
    assert main(argv) == 1
    from_file = capsys.readouterr().err
    assert from_override == from_file
    assert from_file.startswith(f"config error: {key}: ")
    assert not out_dir.exists()


def _readme_cli_section() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_section_matches_the_parsers():
    blocks = re.findall(r"(?:^ {4}.*\n)+", _readme_cli_section(), flags=re.M)
    config_block, commands_block = blocks[0], blocks[1]
    cfg = config_from_pairs(parse_kv_text(config_block, "README.md"), "README.md")
    assert cfg.arch == "mlp-784-300-100-10"
    lines = commands_block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip().startswith("terntrain ")]
    assert {argv[1] for argv in commands} == {"pretrain", "quantize", "eval", "export", "inspect", "gradcheck"}
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_corrupt_checkpoint_exits_2(pretrained, tmp_path):
    root, cfg, ckpt = pretrained
    blob = bytearray(ckpt.read_bytes())
    blob[50] ^= 0xFF
    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(bytes(blob))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 2


def test_gradcheck_passes(capsys):
    for seed in range(4):
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "PASS smul:" in out and "FAIL" not in out


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    from terntrain.gradcheck import CheckResult

    monkeypatch.setattr(
        "terntrain.cli.run_suite", lambda seed=0: [CheckResult("forced", 1.0, 1e-5)]
    )
    assert main(["gradcheck"]) == 3


def test_console_entrypoint_subprocess():
    # The child imports the terntrain under test, installed or not.
    src = os.path.dirname(os.path.dirname(terntrain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-m", "terntrain", "--version"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0
    assert "terntrain" in out.stdout


def test_build_id_format():
    assert build_id().startswith("terntrain-0.")
