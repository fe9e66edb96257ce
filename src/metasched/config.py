"""Run configuration: flat `key = value` text with dotted keys.

Lines are `key = value`; `#` starts a comment (full-line or trailing);
unknown keys are rejected. The same dotted keys are accepted by the CLI
`--override` flag. A config digest (over every field, in canonical form)
identifies the run in its outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .losses import TEMPERATURE_MODES
from .meta import META_MODES
from .nn import ACTIVATIONS
from .optim import OPTIMIZER_KINDS

FORMULATIONS = ("meta", "temperature")


@dataclass(frozen=True)
class RunConfig:
    # model
    hidden: tuple = (64, 64)
    activation: str = "relu"
    # training loop
    lr: float = 0.3
    epochs: int = 40
    batch_size: int = 32
    optimizer: str = "sgd"
    optim_hyper: tuple = ()  # ((name, value), ...)
    # curriculum
    formulation: str = "meta"
    mode: str = "none"
    data_lr: float = 5.0
    wd_lr: float = 1e-3
    wd_init: float = 5e-4
    wd_learnable: bool = False
    history_reset: bool = False
    temperature_mode: str = "class"
    temperature_lr: float = 0.1
    # data generation / loading
    n_classes: int = 10
    per_class: int = 320
    dim: int = 16
    spread: float = 0.8
    noise_p: float = 0.0
    n_superclasses: int = 0
    data_path: str | None = None
    manifest_path: str | None = None
    superclass_path: str | None = None
    # split
    split_kind: str = "holdout"
    meta_per_class: int = 20
    test_per_class: int = 100
    k: int = 5
    personalization_target: int | None = None
    train_subset: str = "full"
    # learning-rate drop mid-run
    lr_drop_epoch: int | None = None
    lr_drop_factor: float = 10.0
    # seeds
    seed_data: int = 0
    seed_init: int = 1
    seed_shuffle: int = 2
    noise_seed: int | None = None
    split_seed: int | None = None

    @property
    def noise_seed_effective(self):
        return self.seed_data + 1 if self.noise_seed is None else self.noise_seed

    @property
    def split_seed_effective(self):
        return self.seed_data + 2 if self.split_seed is None else self.split_seed

    @property
    def meta_driven(self):
        """True when the run consumes a meta set through the lookahead."""
        return self.formulation == "meta" and (self.mode != "none" or self.wd_learnable)

    def digest(self):
        h = hashlib.sha256()
        for line in config_lines(self):
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()[:16]


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "on", "yes", "1"):
        return True
    if low in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text):
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text):
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_opt_int(text):
    text = text.strip()
    return None if text == "" else _parse_int(text)


def _parse_opt_str(text):
    text = text.strip()
    return None if text == "" else text


def _parse_widths(text):
    text = text.strip()
    if text == "":
        return ()
    return tuple(_parse_int(part) for part in text.split(","))


def _parse_str(text):
    return text.strip()


# dotted config key -> (RunConfig field, parser)
KEY_MAP = {
    "model.hidden": ("hidden", _parse_widths),
    "model.activation": ("activation", _parse_str),
    "train.lr": ("lr", _parse_float),
    "train.epochs": ("epochs", _parse_int),
    "train.batch_size": ("batch_size", _parse_int),
    "train.optimizer": ("optimizer", _parse_str),
    "formulation": ("formulation", _parse_str),
    "meta.mode": ("mode", _parse_str),
    "meta.data_lr": ("data_lr", _parse_float),
    "meta.wd_lr": ("wd_lr", _parse_float),
    "meta.wd_init": ("wd_init", _parse_float),
    "meta.wd_learnable": ("wd_learnable", _parse_bool),
    "meta.history_reset": ("history_reset", _parse_bool),
    "temperature.mode": ("temperature_mode", _parse_str),
    "temperature.lr": ("temperature_lr", _parse_float),
    "data.classes": ("n_classes", _parse_int),
    "data.per_class": ("per_class", _parse_int),
    "data.dim": ("dim", _parse_int),
    "data.spread": ("spread", _parse_float),
    "data.path": ("data_path", _parse_opt_str),
    "data.manifest": ("manifest_path", _parse_opt_str),
    "data.superclass_file": ("superclass_path", _parse_opt_str),
    "data.n_superclasses": ("n_superclasses", _parse_int),
    "noise.p": ("noise_p", _parse_float),
    "noise.seed": ("noise_seed", _parse_opt_int),
    "split.kind": ("split_kind", _parse_str),
    "split.meta_per_class": ("meta_per_class", _parse_int),
    "split.test_per_class": ("test_per_class", _parse_int),
    "split.k": ("k", _parse_int),
    "split.seed": ("split_seed", _parse_opt_int),
    "personalization.target": ("personalization_target", _parse_opt_int),
    "personalization.train_subset": ("train_subset", _parse_str),
    "lr_drop.epoch": ("lr_drop_epoch", _parse_opt_int),
    "lr_drop.factor": ("lr_drop_factor", _parse_float),
    "seed.data": ("seed_data", _parse_int),
    "seed.init": ("seed_init", _parse_int),
    "seed.shuffle": ("seed_shuffle", _parse_int),
}

_FIELD_TO_KEY = {field_name: key for key, (field_name, _) in KEY_MAP.items()}


def parse_config_text(text):
    """Raw key -> value-string pairs from config text."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def apply_overrides(raw, overrides):
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_config(raw):
    """RunConfig from raw key/value strings; unknown keys are errors."""
    values = {}
    hyper = {}
    for key, text in raw.items():
        if key.startswith("optim."):
            hyper[key[len("optim.") :]] = _parse_float(text)
            continue
        if key not in KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parser = KEY_MAP[key]
        values[field_name] = parser(text)
    if hyper:
        values["optim_hyper"] = tuple(sorted(hyper.items()))
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    if cfg.activation not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {cfg.activation!r}")
    if any(w < 1 for w in cfg.hidden):
        raise ConfigError("hidden widths must be positive")
    if cfg.lr <= 0 or cfg.data_lr <= 0 or cfg.wd_lr <= 0 or cfg.temperature_lr <= 0:
        raise ConfigError("all learning rates must be positive")
    if cfg.wd_init < 0:
        raise ConfigError("weight-decay init must be non-negative")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    if cfg.optimizer not in OPTIMIZER_KINDS:
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
    if cfg.formulation not in FORMULATIONS:
        raise ConfigError(f"unknown formulation {cfg.formulation!r}")
    if cfg.mode not in META_MODES:
        raise ConfigError(f"unknown meta mode {cfg.mode!r}")
    if cfg.formulation == "temperature":
        if cfg.mode != "none":
            raise ConfigError(
                "exactly one curriculum may be active: temperature formulation "
                "requires meta.mode = none"
            )
        if cfg.wd_learnable:
            raise ConfigError(
                "learnable weight decay needs the lookahead; not available "
                "under the temperature formulation"
            )
        if cfg.temperature_mode not in TEMPERATURE_MODES:
            raise ConfigError(f"unknown temperature mode {cfg.temperature_mode!r}")
    if cfg.meta_driven and cfg.optimizer != "sgd":
        raise ConfigError(
            "the one-step lookahead is an SGD step; meta modes require "
            "train.optimizer = sgd"
        )
    if cfg.split_kind not in ("holdout", "kfold"):
        raise ConfigError(f"unknown split kind {cfg.split_kind!r}")
    if cfg.split_kind == "kfold" and cfg.k < 2:
        raise ConfigError("k-fold splitting needs split.k >= 2")
    if cfg.test_per_class < 1:
        raise ConfigError("split.test_per_class must be >= 1: no test split, no accuracy")
    if cfg.meta_driven and cfg.split_kind == "holdout" and cfg.meta_per_class < 1:
        raise ConfigError("meta-driven runs need split.meta_per_class >= 1")
    if not 0.0 <= cfg.noise_p <= 1.0:
        raise ConfigError("noise.p must lie in [0, 1]")
    if cfg.manifest_path is not None:
        if cfg.data_path is None:
            raise ConfigError("data.manifest describes a dataset file; set data.path too")
        if cfg.noise_p > 0:
            raise ConfigError(
                "choose one corruption source: data.manifest (pre-corrupted file) "
                "or noise.p (inject at load)"
            )
    if cfg.data_path is None:
        if cfg.n_classes < 2 or cfg.per_class < 1 or cfg.dim < 2:
            raise ConfigError("invalid synthetic data sizes")
        if cfg.spread <= 0:
            raise ConfigError("data.spread must be positive")
    if cfg.train_subset not in ("full", "biased"):
        raise ConfigError(f"unknown train subset {cfg.train_subset!r}")
    if cfg.personalization_target is not None:
        if cfg.superclass_path is None and cfg.n_superclasses < 1:
            raise ConfigError(
                "personalization needs data.n_superclasses or a superclass file"
            )
    if cfg.lr_drop_epoch is not None and cfg.lr_drop_epoch < 0:
        raise ConfigError("lr_drop.epoch must be >= 0")
    if cfg.lr_drop_factor <= 0:
        raise ConfigError("lr_drop.factor must be positive")


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_lines(cfg):
    """Canonical `key = value` lines covering every field."""
    lines = []
    for key, (field_name, _) in KEY_MAP.items():
        lines.append(f"{key} = {_format_value(getattr(cfg, field_name))}")
    for name, value in cfg.optim_hyper:
        lines.append(f"optim.{name} = {_format_value(value)}")
    return lines


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(config_lines(cfg)) + "\n")


def load_config(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw = apply_overrides(parse_config_text(text), overrides)
    return build_config(raw)


def config_from_overrides(overrides):
    """RunConfig from defaults plus override strings (no file)."""
    return build_config(apply_overrides({}, overrides))


def with_seeds(cfg, base_seed):
    """Derive the three run seeds from one base seed."""
    return replace(
        cfg,
        seed_data=base_seed,
        seed_init=base_seed + 1,
        seed_shuffle=base_seed + 2,
    )


assert set(_FIELD_TO_KEY) <= {f.name for f in fields(RunConfig)}
