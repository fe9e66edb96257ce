"""Run configuration: flat `key = value` text with dotted keys.

Lines are `key = value`; `#` starts a comment (full-line or trailing);
unknown keys are rejected. The same dotted keys are accepted by the CLI
`--override` flag. A config digest (over every field, in canonical form)
identifies the run in its outputs.

Each key is declared once, in its ``RunConfig`` field's metadata, with
its set of values where that is fixed. The annotation picks the parser;
the field order is the key order, so it fixes ``config.cfg`` and the
digest. ``RunConfig`` runs ``validate_config`` whenever it is built, by
``replace`` too, so a RunConfig that exists is valid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .meta import META_MODES, TEMPERATURE_MODES
from .nn import ACTIVATIONS
from .optim import DEFAULT_HYPER, OPTIMIZER_KINDS


def _key(default, key, values=None):
    """A field read from the dotted ``key``, one of ``values`` if given."""
    return field(default=default, metadata={"key": key, "values": values})


@dataclass(frozen=True)
class RunConfig:
    # model
    hidden: tuple = _key((64, 64), "model.hidden")
    activation: str = _key("relu", "model.activation", ACTIVATIONS)
    # training loop
    lr: float = _key(0.3, "train.lr")
    epochs: int = _key(40, "train.epochs")
    batch_size: int = _key(32, "train.batch_size")
    optimizer: str = _key("sgd", "train.optimizer", OPTIMIZER_KINDS)
    # curriculum
    formulation: str = _key("meta", "formulation", ("meta", "temperature"))
    mode: str = _key("none", "meta.mode", META_MODES)
    data_lr: float = _key(5.0, "meta.data_lr")
    wd_lr: float = _key(1e-3, "meta.wd_lr")
    wd_init: float = _key(5e-4, "meta.wd_init")
    wd_learnable: bool = _key(False, "meta.wd_learnable")
    history_reset: bool = _key(False, "meta.history_reset")
    temperature_mode: str = _key("class", "temperature.mode", TEMPERATURE_MODES)
    temperature_lr: float = _key(0.1, "temperature.lr")
    # data generation / loading
    n_classes: int = _key(10, "data.classes")
    per_class: int = _key(320, "data.per_class")
    dim: int = _key(16, "data.dim")
    spread: float = _key(0.8, "data.spread")
    data_path: str | None = _key(None, "data.path")
    manifest_path: str | None = _key(None, "data.manifest")
    superclass_path: str | None = _key(None, "data.superclass_file")
    n_superclasses: int = _key(0, "data.n_superclasses")
    noise_p: float = _key(0.0, "noise.p")
    noise_seed: int | None = _key(None, "noise.seed")
    # split
    split_kind: str = _key("holdout", "split.kind", ("holdout", "kfold"))
    meta_per_class: int = _key(20, "split.meta_per_class")
    test_per_class: int = _key(100, "split.test_per_class")
    k: int = _key(5, "split.k")
    split_seed: int | None = _key(None, "split.seed")
    personalization_target: int | None = _key(None, "personalization.target")
    train_subset: str = _key("full", "personalization.train_subset", ("full", "biased"))
    # learning-rate drop mid-run
    lr_drop_epoch: int | None = _key(None, "lr_drop.epoch")
    lr_drop_factor: float = _key(10.0, "lr_drop.factor")
    # seeds
    seed_data: int = _key(0, "seed.data")
    seed_init: int = _key(1, "seed.init")
    seed_shuffle: int = _key(2, "seed.shuffle")
    # optimizer hyperparameters, keyed optim.<name>: ((name, value), ...)
    optim_hyper: tuple = ()

    def __post_init__(self):
        validate_config(self)

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
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


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


# field annotation -> parser of its key's value
_PARSERS = {
    "tuple": _parse_widths,
    "str": _parse_str,
    "float": _parse_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "str | None": _parse_opt_str,
    "int | None": _parse_opt_int,
}

# dotted config key -> (RunConfig field, parser), in field order
KEY_MAP = {
    f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(RunConfig) if f.metadata
}


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


def _parse_value(key, parser, text, origins):
    """``parser(text)``; a bad value's error names its key, and the file
    it came from when ``origins`` maps the key to one."""
    try:
        return parser(text)
    except ConfigError as exc:
        where = f"{origins[key]}: " if key in origins else ""
        raise ConfigError(f"{where}{key}: {exc}") from None


def build_config(raw, origins=None):
    """RunConfig from raw key/value strings; unknown keys are errors.

    ``origins`` maps a key to the config file its value was read from.
    """
    origins = origins or {}
    values = {}
    hyper = {}
    for key, text in raw.items():
        if key.startswith("optim."):
            hyper[key[len("optim.") :]] = _parse_value(key, _parse_float, text, origins)
            continue
        if key not in KEY_MAP:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parser = KEY_MAP[key]
        values[field_name] = _parse_value(key, parser, text, origins)
    if hyper:
        values["optim_hyper"] = tuple(sorted(hyper.items()))
    return RunConfig(**values)


def _check_at_least(cfg, bounds):
    """Raise ConfigError for the first ``(key, least)`` below its least."""
    for key, least in bounds:
        value = getattr(cfg, KEY_MAP[key][0])
        if value < least:
            raise ConfigError(f"{key}: must be >= {least}, got {value!r}")


def validate_config(cfg):
    """Raise ConfigError unless ``cfg`` is a valid run; ``RunConfig``
    calls it on every instance it builds."""
    floats = [(k, getattr(cfg, f)) for k, (f, parse) in KEY_MAP.items() if parse is _parse_float]
    floats += [(f"optim.{name}", value) for name, value in cfg.optim_hyper]
    for key, value in floats:
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    for key in ("seed.data", "seed.init", "seed.shuffle", "noise.seed", "split.seed"):
        seed = getattr(cfg, KEY_MAP[key][0])
        if seed is not None and seed < 0:
            raise ConfigError(f"{key}: expected a non-negative seed, got {seed}")
    for f in fields(cfg):
        allowed, value = f.metadata.get("values"), getattr(cfg, f.name)
        if allowed is not None and value not in allowed:
            raise ConfigError(
                f"{f.metadata['key']}: unknown value {value!r} (have {', '.join(allowed)})"
            )
    if any(w < 1 for w in cfg.hidden):
        raise ConfigError(f"model.hidden: widths must be positive, got {_format_value(cfg.hidden)}")
    for key in ("train.lr", "meta.data_lr", "meta.wd_lr", "temperature.lr"):
        rate = getattr(cfg, KEY_MAP[key][0])
        if rate <= 0:
            raise ConfigError(f"{key}: learning rates must be positive, got {rate!r}")
    _check_at_least(cfg, (("meta.wd_init", 0), ("train.epochs", 1), ("train.batch_size", 1)))
    for name, _ in cfg.optim_hyper:
        if name not in DEFAULT_HYPER[cfg.optimizer]:
            raise ConfigError(
                f"optim.{name}: train.optimizer = {cfg.optimizer} takes no such "
                "hyperparameter"
            )
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
    if cfg.meta_driven and cfg.optimizer != "sgd":
        raise ConfigError(
            "the one-step lookahead is an SGD step; meta modes require "
            "train.optimizer = sgd"
        )
    if cfg.split_kind == "kfold" and cfg.k < 2:
        raise ConfigError("k-fold splitting needs split.k >= 2")
    if cfg.test_per_class < 1:
        raise ConfigError("split.test_per_class must be >= 1: no test split, no accuracy")
    if cfg.meta_per_class < 0:
        raise ConfigError(f"split.meta_per_class must be >= 0, got {cfg.meta_per_class}")
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
    if cfg.superclass_path is not None:
        if cfg.data_path is None:
            raise ConfigError(
                "data.superclass_file maps the classes of a dataset file; set data.path too"
            )
        if cfg.n_superclasses >= 1:
            raise ConfigError(
                "data.superclass_file: choose one superclass source, the file or "
                "data.n_superclasses"
            )
    if cfg.data_path is None:
        _check_at_least(cfg, (("data.classes", 2), ("data.per_class", 1), ("data.dim", 2)))
        if cfg.dim < cfg.n_classes - 1:
            # the blob means sit on a simplex of data.classes vertices
            raise ConfigError(f"data.dim: must be >= data.classes - 1, got {cfg.dim}")
        if cfg.spread <= 0:
            raise ConfigError("data.spread must be positive")
    if cfg.n_superclasses < 0:
        raise ConfigError(f"data.n_superclasses must be >= 0, got {cfg.n_superclasses}")
    if cfg.personalization_target is not None:
        if cfg.superclass_path is None and cfg.n_superclasses < 1:
            raise ConfigError(
                "personalization needs data.n_superclasses or a superclass file"
            )
        if cfg.split_kind == "kfold":
            raise ConfigError(
                "personalization.target reroutes a holdout split; k-fold splitting "
                "does not read it"
            )
    elif cfg.train_subset == "biased":
        raise ConfigError(
            "personalization.train_subset = biased needs personalization.target"
        )
    if cfg.data_path is None and cfg.n_superclasses >= 1 and cfg.n_classes % cfg.n_superclasses:
        raise ConfigError(
            f"data.n_superclasses: {cfg.n_classes} classes do not divide into "
            f"{cfg.n_superclasses} superclasses"
        )
    if cfg.lr_drop_epoch is not None and cfg.lr_drop_epoch < 0:
        raise ConfigError("lr_drop.epoch must be >= 0")
    if cfg.lr_drop_factor <= 0:
        raise ConfigError("lr_drop.factor must be positive")
    if cfg.lr_drop_epoch is not None and not math.isfinite(cfg.lr / cfg.lr_drop_factor):
        raise ConfigError(
            f"lr_drop.factor {cfg.lr_drop_factor!r} is too small: the dropped rate "
            "train.lr / lr_drop.factor is not finite"
        )


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
    lines = [f"{key} = {_format_value(getattr(cfg, name))}" for key, (name, _) in KEY_MAP.items()]
    return lines + [f"optim.{name} = {_format_value(value)}" for name, value in cfg.optim_hyper]


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(config_lines(cfg)) + "\n")


def load_config(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    from_file = parse_config_text(text)
    overridden = apply_overrides({}, overrides)
    origins = {key: path for key in from_file if key not in overridden}
    return build_config({**from_file, **overridden}, origins)


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
