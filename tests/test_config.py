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


@pytest.mark.parametrize(
    "key, value",
    [("dataset", "idx"), ("dataset", "csv"), ("train_csv", "train.csv"), ("test_csv", "test.csv")],
    ids=["idx", "csv", "train_csv", "test_csv"],
)
def test_the_removed_dataset_key_is_unknown(key, value):
    """Each split is an IDX pair, so no key names a format or a CSV file."""
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        _parse(MINIMAL + f"{key} = {value}\n")


@pytest.mark.parametrize("value", ["-1e308", "-0.01", "1.01", "1e308"])
def test_a_normalize_mean_outside_the_pixel_range_rejected(value):
    """Pixels are scaled to [0, 1] before normalization, so their mean lies there too."""
    with pytest.raises(ConfigError, match="^normalize_mean: value .* (below|above) allowed range"):
        _parse(MINIMAL + f"normalize_mean = {value}\n")


@pytest.mark.parametrize("value", ["0", "0.1307", "1"])
def test_a_normalize_mean_in_the_pixel_range_accepted(value):
    assert _parse(MINIMAL + f"normalize_mean = {value}\n").normalize_mean == float(value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("arch = a\narch = b\n")


def test_missing_arch_rejected():
    with pytest.raises(ConfigError, match="arch"):
        _parse("seed = 1\n")


@pytest.mark.parametrize("arch", ["resnet18", "mlp-4-x-3", "mlp-4", "mlp-4-0-2", ""])
def test_unbuildable_arch_rejected(arch):
    with pytest.raises(ConfigError, match="^arch: "):
        _parse(f"arch = {arch}\n")


def test_overrides_replace_file_values_and_none_keeps_them(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(MINIMAL + "seed = 7\nepochs = 3\n")
    cfg = parse_config(p, {"seed": "11", "epochs": None, "init_frac": "0.2", "grad_correctness": "false"})
    assert (cfg.seed, cfg.epochs, cfg.init_frac, cfg.grad_correctness) == (11, 3, 0.2, False)
    assert parse_config(p, {}).seed == parse_config(p).seed == 7


@pytest.mark.parametrize(
    "key, value", [("seed", "-1"), ("epochs", "x"), ("init_frac", "nan"), ("arch", "mlp-4"), ("out_dir", "")]
)
def test_bad_override_fails_like_the_same_value_in_the_file(tmp_path, key, value):
    rest = "" if key == "arch" else MINIMAL
    p = tmp_path / "c.cfg"
    p.write_text(rest)
    with pytest.raises(ConfigError) as from_override:
        parse_config(p, {key: value})
    p.write_text(rest + f"{key} = {value}\n")
    with pytest.raises(ConfigError) as from_file:
        parse_config(p)
    assert str(from_override.value) == str(from_file.value)
    assert str(from_file.value).startswith(f"{key}: ")


def test_empty_out_dir_rejected():
    with pytest.raises(ConfigError, match="^out_dir: "):
        config_from_pairs({"arch": "mlp-4-2", "out_dir": ""})
    assert config_from_pairs({"arch": "mlp-4-2", "out_dir": "runs/x"}).out_dir == "runs/x"


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
    with pytest.raises(ConfigError, match="seed"):
        _parse(MINIMAL + "seed = -2\n")


FLOAT_KEYS = ("normalize_mean", "normalize_std", "weight_lr", "weight_momentum", "weight_decay",
              "adam_beta1", "adam_beta2", "adam_eps", "threshold_lr", "init_frac")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        _parse(MINIMAL + f"{key} = {value}\n")


def test_enum_values():
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
    # A repeated epoch would leave which rate applies to the sort order.
    with pytest.raises(ConfigError, match="strictly ascending"):
        _parse(MINIMAL + "lr_schedule = 0:0.1,0:0.001\n")
    with pytest.raises(ConfigError):
        _parse(MINIMAL + "lr_schedule = 10=0.01\n")
    for rate in ("0", "nan", "inf"):
        with pytest.raises(ConfigError, match="lr_schedule"):
            _parse(MINIMAL + f"lr_schedule = 10:{rate}\n")


def test_to_dict_roundtrips_schedule():
    cfg = _parse(MINIMAL + "lr_schedule = 5:0.5\n")
    assert cfg.to_dict()["lr_schedule"] == "5:0.5"
    cfg = _parse(MINIMAL + "lr_schedule = 0:0.00123456789,7:1e-05\n")
    echoed = cfg.to_dict()["lr_schedule"]
    assert echoed == "0:0.00123456789,7:1e-05"
    assert _parse(MINIMAL + f"lr_schedule = {echoed}\n").lr_schedule == cfg.lr_schedule


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
