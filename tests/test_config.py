import pytest

from terntrain.config import ConfigError, config_from_pairs, parse_config, parse_kv_text

MINIMAL = "arch = mlp-784-300-100-10\n"


def _parse(text):
    return config_from_pairs(parse_kv_text(text))


def test_defaults(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL)
    cfg = parse_config(p)
    assert cfg.arch == "mlp-784-300-100-10"
    assert cfg.batch_size == 64
    assert cfg.grad_correctness is True
    assert cfg.threshold_lr is None
    assert cfg.threshold_optimizer().lr == cfg.weight_lr  # defaults to the weight lr


def test_comments_and_blank_lines():
    cfg = _parse("# experiment\n\narch = mlp-4-2\nseed = 7\n")
    assert cfg.seed == 7


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        _parse(MINIMAL + "learning_rate = 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("arch = a\narch = b\n")


def test_missing_arch_rejected():
    with pytest.raises(ConfigError, match="arch"):
        _parse("seed = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv_text("arch = a\nnot a pair\n")


def test_numeric_ranges():
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "batch_size = 0\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "epochs = -1\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "weight_lr = 0\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "weight_momentum = 1.0\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "weight_decay = -0.5\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "normalize_std = 0\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "init_frac = 0\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "batch_size = sixty-four\n")


FLOAT_KEYS = ("normalize_mean", "normalize_std", "weight_lr", "weight_momentum", "weight_decay",
              "adam_beta1", "adam_beta2", "adam_eps", "threshold_lr", "init_frac")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        _parse(MINIMAL + f"{key} = {value}\n")


def test_enum_values():
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "dataset = parquet\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "weight_opt = adagrad\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "threshold_opt = sgd-momentum\n")
    cfg = _parse(MINIMAL + "threshold_opt = adam\n")
    assert cfg.threshold_opt == "adam"


def test_bool_parsing():
    assert _parse(MINIMAL + "grad_correctness = false\n").grad_correctness is False
    assert _parse(MINIMAL + "grad_correctness = 1\n").grad_correctness is True
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "grad_correctness = maybe\n")


def test_schedule_parsing():
    cfg = _parse(MINIMAL + "lr_schedule = 10:0.01,20:0.001\n")
    assert cfg.lr_schedule == [(10, 0.01), (20, 0.001)]
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "lr_schedule = 20:0.01,10:0.001\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "lr_schedule = 10=0.01\n")
    for rate in ("0", "nan", "inf"):
        with pytest.raises(ConfigError, match="lr_schedule"):
            _parse(MINIMAL + f"lr_schedule = 10:{rate}\n")


def test_to_dict_roundtrips_schedule():
    cfg = _parse(MINIMAL + "lr_schedule = 5:0.5\n")
    assert cfg.to_dict()["lr_schedule"] == "5:0.5"


def test_optimizer_config_construction():
    cfg = _parse(
        MINIMAL
        + "weight_opt = adam\nweight_lr = 0.003\nadam_beta1 = 0.8\n"
        + "threshold_lr = 0.5\n"
    )
    w = cfg.weight_optimizer()
    assert w.kind == "adam" and w.lr == 0.003 and w.betas[0] == 0.8
    t = cfg.threshold_optimizer()
    assert t.lr == 0.5 and t.weight_decay == 0.0


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.cfg")
