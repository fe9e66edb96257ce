"""Config parsing, validation rules, digests, seed derivation."""

import math
from dataclasses import fields, replace

import pytest

from metasched.config import (
    KEY_MAP,
    RunConfig,
    apply_overrides,
    build_config,
    config_from_overrides,
    config_lines,
    load_config,
    parse_config_text,
    save_config,
    validate_config,
    with_seeds,
)
from metasched.errors import ConfigError

# every key whose field is a float, plus optimizer hyperparameters
FLOAT_KEYS = [
    key for key, (name, _) in KEY_MAP.items() if isinstance(getattr(RunConfig(), name), float)
] + ["optim.beta", "optim.eps"]

SAMPLE = """
# reference noisy-label run
train.lr = 0.1          # trailing comment
train.epochs = 12
meta.mode = instance
noise.p = 0.4
model.hidden = 32,16

seed.data = 7
"""


def test_parse_key_value_lines():
    raw = parse_config_text(SAMPLE)
    assert raw == {
        "train.lr": "0.1",
        "train.epochs": "12",
        "meta.mode": "instance",
        "noise.p": "0.4",
        "model.hidden": "32,16",
        "seed.data": "7",
    }


def test_build_config_maps_dotted_keys():
    cfg = build_config(parse_config_text(SAMPLE))
    assert cfg.lr == 0.1
    assert cfg.epochs == 12
    assert cfg.mode == "instance"
    assert cfg.noise_p == 0.4
    assert cfg.hidden == (32, 16)
    assert cfg.seed_data == 7
    # untouched fields keep their defaults
    assert cfg.batch_size == 32
    assert cfg.optimizer == "sgd"


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("train.lr = 0.1\nnot a setting\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"train.learning_rate": "0.1"})


def test_bad_value_types():
    with pytest.raises(ConfigError, match="integer"):
        build_config({"train.epochs": "twelve"})
    with pytest.raises(ConfigError, match="number"):
        build_config({"train.lr": "fast"})
    with pytest.raises(ConfigError, match="boolean"):
        build_config({"meta.wd_learnable": "maybe"})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN "])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_rejected(key, value):
    with pytest.raises(ConfigError) as err:
        build_config({key: value})
    assert str(err.value) == f"{key}: expected a finite number, got {value!r}"


def test_float_keys_are_found():
    assert {"train.lr", "temperature.lr", "meta.wd_init", "lr_drop.factor"} <= set(FLOAT_KEYS)


def test_non_finite_value_from_a_file_names_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.lr = 0.1\nlr_drop.factor = inf\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: lr_drop.factor: expected a finite number, got 'inf'"
    # an override's value is named without the file it replaces
    with pytest.raises(ConfigError) as err:
        load_config(path, ["lr_drop.factor=nan"])
    assert str(err.value) == "lr_drop.factor: expected a finite number, got 'nan'"
    assert load_config(path, ["lr_drop.factor=4"]).lr_drop_factor == 4.0


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"lr": math.nan}, "train.lr"),
        ({"temperature_lr": math.inf}, "temperature.lr"),
        ({"spread": -math.inf}, "data.spread"),
        ({"optim_hyper": (("beta", math.nan),)}, "optim.beta"),
    ],
)
def test_validate_rejects_non_finite_fields(fields, key):
    with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
        validate_config(RunConfig(**fields))


def test_lr_drop_factor_that_overflows_the_dropped_rate_is_rejected():
    with pytest.raises(ConfigError) as err:
        RunConfig(lr=0.1, lr_drop_epoch=1, lr_drop_factor=1e-320)
    assert str(err.value) == (
        "lr_drop.factor 1e-320 is too small: the dropped rate "
        "train.lr / lr_drop.factor is not finite"
    )
    # a rate near the float maximum, or no drop at all, is valid
    cfg = RunConfig(lr=0.1, lr_drop_epoch=1, lr_drop_factor=1.2e-309)
    validate_config(cfg)
    validate_config(replace(cfg, lr_drop_epoch=None))


def test_a_run_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="learning rates must be positive"):
        RunConfig(lr=-1.0)
    with pytest.raises(ConfigError, match="^split.kind: unknown value 'bogus'"):
        replace(RunConfig(), split_kind="bogus")


@pytest.mark.parametrize(
    "override, message",
    [
        ("model.hidden=64,0", "model.hidden: widths must be positive, got 64,0"),
        ("train.lr=0", "train.lr: learning rates must be positive, got 0.0"),
        ("meta.data_lr=-1", "meta.data_lr: learning rates must be positive, got -1.0"),
        ("meta.wd_lr=0", "meta.wd_lr: learning rates must be positive, got 0.0"),
        ("temperature.lr=0", "temperature.lr: learning rates must be positive, got 0.0"),
        ("meta.wd_init=-0.5", "meta.wd_init: must be >= 0, got -0.5"),
        ("train.epochs=0", "train.epochs: must be >= 1, got 0"),
        ("train.batch_size=0", "train.batch_size: must be >= 1, got 0"),
        ("data.classes=1", "data.classes: must be >= 2, got 1"),
        ("data.per_class=0", "data.per_class: must be >= 1, got 0"),
        ("data.dim=1", "data.dim: must be >= 2, got 1"),
        ("data.dim=5", "data.dim: must be >= data.classes - 1, got 5"),
    ],
)
def test_a_single_key_error_starts_with_its_key(override, message):
    with pytest.raises(ConfigError) as err:
        config_from_overrides([override])
    assert str(err.value) == message


def test_the_dim_rule_holds_for_synthetic_data_only():
    # ten blob means need nine dimensions; a dataset file brings its own
    validate_config(config_from_overrides(["data.dim=9"]))
    validate_config(config_from_overrides(["data.dim=5", "data.path=data.csv"]))


# key -> declared values, for every field with a fixed set of values
VALUE_SETS = {
    f.metadata["key"]: f.metadata["values"] for f in fields(RunConfig) if f.metadata.get("values")
}


def test_value_sets_are_declared():
    assert VALUE_SETS == {
        "model.activation": ("identity", "relu", "tanh"),
        "train.optimizer": ("sgd", "momentum", "adam", "adamw", "polyak_sgd", "lookahead_sgd"),
        "formulation": ("meta", "temperature"),
        "meta.mode": ("instance", "class", "none"),
        "temperature.mode": ("class", "instance", "joint"),
        "split.kind": ("holdout", "kfold"),
        "personalization.train_subset": ("full", "biased"),
    }


@pytest.mark.parametrize("formulation", ["meta", "temperature"])
@pytest.mark.parametrize("key", sorted(VALUE_SETS))
def test_value_outside_its_set_is_rejected(key, formulation):
    with pytest.raises(ConfigError) as err:
        config_from_overrides([f"formulation={formulation}", f"{key}=bogus"])
    have = ", ".join(VALUE_SETS[key])
    assert str(err.value) == f"{key}: unknown value 'bogus' (have {have})"


@pytest.mark.parametrize(
    "overrides",
    [[], ["data.n_superclasses=2", "personalization.target=0"], ["split.kind=kfold"]],
    ids=["holdout", "personalization", "kfold"],
)
def test_negative_meta_split_is_rejected(overrides):
    with pytest.raises(ConfigError, match=r"^split.meta_per_class must be >= 0, got -3$"):
        config_from_overrides([*overrides, "split.meta_per_class=-3"])


# config_lines(RunConfig()): the field order fixes the bytes of config.cfg,
# the digest in run_info.json and the METASCHED_OUT directory names
DEFAULT_LINES = [
    "model.hidden = 64,64",
    "model.activation = relu",
    "train.lr = 0.3",
    "train.epochs = 40",
    "train.batch_size = 32",
    "train.optimizer = sgd",
    "formulation = meta",
    "meta.mode = none",
    "meta.data_lr = 5.0",
    "meta.wd_lr = 0.001",
    "meta.wd_init = 0.0005",
    "meta.wd_learnable = false",
    "meta.history_reset = false",
    "temperature.mode = class",
    "temperature.lr = 0.1",
    "data.classes = 10",
    "data.per_class = 320",
    "data.dim = 16",
    "data.spread = 0.8",
    "data.path = ",
    "data.manifest = ",
    "data.superclass_file = ",
    "data.n_superclasses = 0",
    "noise.p = 0.0",
    "noise.seed = ",
    "split.kind = holdout",
    "split.meta_per_class = 20",
    "split.test_per_class = 100",
    "split.k = 5",
    "split.seed = ",
    "personalization.target = ",
    "personalization.train_subset = full",
    "lr_drop.epoch = ",
    "lr_drop.factor = 10.0",
    "seed.data = 0",
    "seed.init = 1",
    "seed.shuffle = 2",
]


def test_key_order_and_default_digest_are_pinned():
    assert config_lines(RunConfig()) == DEFAULT_LINES
    assert list(KEY_MAP) == [line.split(" = ")[0] for line in DEFAULT_LINES]
    assert RunConfig().digest() == "b3c0762198451e26"
    # optimizer hyperparameters follow every keyed field
    tuned = RunConfig(optimizer="adam", optim_hyper=(("beta1", 0.8),))
    assert config_lines(tuned)[-1] == "optim.beta1 = 0.8"


SEED_KEYS = ["seed.data", "seed.init", "seed.shuffle", "noise.seed", "split.seed"]


@pytest.mark.parametrize("key", SEED_KEYS)
def test_negative_seed_is_rejected(key):
    with pytest.raises(ConfigError, match=f"^{key}: expected a non-negative seed, got -1$"):
        build_config({key: "-1"})
    validate_config(build_config({key: "0"}))


def test_optim_hyper_passthrough():
    cfg = build_config({"train.optimizer": "adam", "optim.beta1": "0.8"})
    assert cfg.optim_hyper == (("beta1", 0.8),)


def test_overrides_win_over_file_values():
    raw = apply_overrides({"train.lr": "0.1"}, ["train.lr=0.5", "meta.mode=class"])
    cfg = build_config(raw)
    assert cfg.lr == 0.5
    assert cfg.mode == "class"
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["train.lr"])


def test_temperature_excludes_other_curricula():
    with pytest.raises(ConfigError, match="exactly one curriculum"):
        config_from_overrides(["formulation=temperature", "meta.mode=instance"])
    with pytest.raises(ConfigError, match="weight decay"):
        config_from_overrides(["formulation=temperature", "meta.wd_learnable=true"])
    cfg = config_from_overrides(["formulation=temperature", "temperature.mode=joint"])
    assert cfg.temperature_mode == "joint"


def test_meta_modes_require_sgd():
    with pytest.raises(ConfigError, match="sgd"):
        config_from_overrides(["meta.mode=instance", "train.optimizer=adam"])
    # plain runs may use any optimizer
    cfg = config_from_overrides(["train.optimizer=adam"])
    assert cfg.optimizer == "adam"


def test_meta_driven_needs_meta_examples():
    with pytest.raises(ConfigError, match="meta_per_class"):
        config_from_overrides(["meta.mode=instance", "split.meta_per_class=0"])
    # a plain run can give the meta set away
    cfg = config_from_overrides(["split.meta_per_class=0"])
    assert cfg.meta_per_class == 0


def test_rate_positivity():
    for key in ("train.lr", "meta.data_lr", "meta.wd_lr", "temperature.lr"):
        with pytest.raises(ConfigError, match="positive"):
            config_from_overrides([f"{key}=0"])


def test_misc_validation():
    with pytest.raises(ConfigError, match="activation"):
        config_from_overrides(["model.activation=swish"])
    with pytest.raises(ConfigError, match="noise.p"):
        config_from_overrides(["noise.p=1.5"])
    with pytest.raises(ConfigError, match="split.k"):
        config_from_overrides(["split.kind=kfold", "split.k=1"])
    with pytest.raises(ConfigError, match="n_superclasses"):
        config_from_overrides(["personalization.target=0"])
    with pytest.raises(ConfigError, match="^data.n_superclasses must be >= 0, got -1$"):
        config_from_overrides(["data.n_superclasses=-1"])


def test_personalization_target_is_rejected_under_kfold():
    # a k-fold split never reads the target: the run would ignore it
    with pytest.raises(ConfigError, match="^personalization.target .*k-fold"):
        config_from_overrides(
            ["data.n_superclasses=2", "personalization.target=0", "split.kind=kfold"]
        )
    config_from_overrides(["data.n_superclasses=2", "personalization.target=0"])


def test_biased_train_subset_needs_a_target():
    # without a target there is no biased split to train on
    with pytest.raises(ConfigError, match="^personalization.train_subset = biased needs"):
        config_from_overrides(["personalization.train_subset=biased"])
    config_from_overrides(
        ["data.n_superclasses=2", "personalization.target=0", "personalization.train_subset=biased"]
    )


def test_manifest_key_needs_a_dataset_file():
    with pytest.raises(ConfigError, match="data.path"):
        config_from_overrides(["data.manifest=m.csv"])
    with pytest.raises(ConfigError, match="one corruption source"):
        config_from_overrides(
            ["data.path=d.csv", "data.manifest=m.csv", "noise.p=0.2"]
        )


def test_digest_stable_and_sensitive():
    a = config_from_overrides(["train.lr=0.2"])
    b = config_from_overrides(["train.lr=0.2"])
    c = config_from_overrides(["train.lr=0.25"])
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 16


def test_save_load_round_trip(tmp_path):
    cfg = config_from_overrides(
        [
            "formulation=temperature",
            "temperature.mode=class",
            "meta.history_reset=true",
            "noise.p=0.4",
            "model.hidden=48",
            "lr_drop.epoch=20",
            "train.optimizer=momentum",
            "optim.beta=0.9",
        ]
    )
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert back.digest() == cfg.digest()


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.cfg")


def test_with_seeds_derivation():
    cfg = with_seeds(RunConfig(), 40)
    assert (cfg.seed_data, cfg.seed_init, cfg.seed_shuffle) == (40, 41, 42)


def test_derived_seeds_default_and_override():
    cfg = config_from_overrides(["seed.data=10"])
    assert cfg.noise_seed_effective == 11
    assert cfg.split_seed_effective == 12
    cfg = config_from_overrides(["seed.data=10", "noise.seed=99", "split.seed=98"])
    assert cfg.noise_seed_effective == 99
    assert cfg.split_seed_effective == 98
