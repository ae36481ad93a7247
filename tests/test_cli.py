import json
import os
import subprocess
import sys

import numpy as np
import pytest

from terntrain.cli import build_id, main
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
    info = json.loads((out / "run_info.json").read_text())
    assert info["seed"] == 3
    assert info["build_id"].startswith("terntrain-")
    assert info["config"]["arch"] == "mlp-784-16-10"


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


def test_env_seed_override(pretrained, tmp_path, monkeypatch):
    root, cfg, ckpt = pretrained
    monkeypatch.setenv("TERNTRAIN_SEED", "99")
    out_dir = tmp_path / "env"
    rc = main(["pretrain", "--config", str(cfg), "--epochs", "0", "--out-dir", str(out_dir)])
    assert rc == 0
    assert json.loads((out_dir / "run_info.json").read_text())["seed"] == 99
    # explicit flag beats the environment
    out_dir2 = tmp_path / "flag"
    rc = main(
        ["pretrain", "--config", str(cfg), "--epochs", "0", "--seed", "5", "--out-dir", str(out_dir2)]
    )
    assert rc == 0
    assert json.loads((out_dir2 / "run_info.json").read_text())["seed"] == 5
    monkeypatch.setenv("TERNTRAIN_SEED", "not-a-number")
    assert main(["pretrain", "--config", str(cfg), "--epochs", "0"]) == 1


def test_usage_and_config_errors_exit_1(workspace, tmp_path):
    root, cfg = workspace
    assert main(["pretrain"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("arch = mlp-784-16-10\nbogus_key = 1\n")
    assert main(["pretrain", "--config", str(bad)]) == 1
    assert main(["quantize", "--config", str(cfg), "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "nope.ckpt")]) == 1


def test_corrupt_checkpoint_exits_2(pretrained, tmp_path):
    root, cfg, ckpt = pretrained
    blob = bytearray(ckpt.read_bytes())
    blob[50] ^= 0xFF
    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(bytes(blob))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 2


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_gradcheck_failure_exits_3(monkeypatch, capsys):
    from terntrain.gradcheck import CheckResult

    monkeypatch.setattr(
        "terntrain.cli.run_suite", lambda seed=0: [CheckResult("forced", 1.0, 1e-5)]
    )
    assert main(["gradcheck"]) == 3


def test_console_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "terntrain", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "terntrain" in out.stdout


def test_build_id_format():
    assert build_id().startswith("terntrain-0.")
