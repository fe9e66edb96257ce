"""Experiment orchestration: data preparation, the training loop shared by
training and replay retraining, k-fold trajectory collection, and metrics
logging.

Every run is fully determined by (config digest, seed.data, seed.init,
seed.shuffle); wall-clock fields are the only nondeterministic outputs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as config_mod
from . import datagen
from . import losses as losses_mod
from . import meta
from . import nn
from . import optim
from .errors import ConfigError, NumericError, ShapeError
from .trajectory import TrajectoryLog, average_trajectories

PACKAGE_VERSION = "0.1.0"


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    train_acc: float
    meta_loss: float | None
    meta_acc: float | None
    test_acc: float
    w_clean_mean: float | None
    w_clean_std: float | None
    w_corrupt_mean: float | None
    w_corrupt_std: float | None
    lam_wd: float
    wall_ms: float


@dataclass
class DataBundle:
    train: datagen.LabeledDataset
    meta: datagen.LabeledDataset | None
    test: datagen.LabeledDataset
    manifest: datagen.CorruptionManifest | None
    n_instances: int
    n_classes: int
    dataset_digest: str

    @classmethod
    def over(cls, ds, train, meta, test, manifest):
        """A bundle of splits of ``ds``; the learned tables span all of it."""
        return cls(train, meta, test, manifest, ds.n, ds.n_classes, ds.digest)


@dataclass
class RunResult:
    config: config_mod.RunConfig
    model: nn.ParamVector
    raw_model: nn.ParamVector
    trajectory: TrajectoryLog
    metrics: list
    counters: dict
    bundle: DataBundle
    class_meta_acc: list = field(default_factory=list)

    @property
    def final_test_acc(self):
        return self.metrics[-1].test_acc


def _load_base_dataset(cfg):
    if cfg.data_path is not None:
        ds = datagen.load_dataset(cfg.data_path)
        if cfg.superclass_path is not None:
            mapping = datagen.load_superclass_map(cfg.superclass_path, ds.n_classes)
            ds = replace(ds, superclass_map=mapping)
    else:
        ds = datagen.make_blobs(
            cfg.n_classes, cfg.per_class, cfg.dim, cfg.spread, cfg.seed_data
        )
    if cfg.superclass_path is None and cfg.n_superclasses >= 1:
        ds = datagen.assign_superclasses(ds, cfg.n_superclasses)
    return ds


def _corrupt(cfg, ds, train):
    """(train, manifest): label noise injected at load into ``train``, a
    split of ``ds``, or the manifest of corruption already baked into the
    dataset file ``ds`` was read from (None for neither)."""
    if cfg.noise_p > 0:
        return datagen.corrupt_labels(train, cfg.noise_p, cfg.noise_seed_effective)
    if cfg.manifest_path is None:
        return train, None
    return train, datagen.load_manifest(cfg.manifest_path, ds)


def prepare_data(cfg):
    """Holdout bundle: stratified train/meta/test with corruption applied
    to the train split only. Personalization targets reroute the split."""
    if cfg.split_kind == "kfold":
        raise ConfigError(
            "config asks for k-fold splitting; use kfold_collect (or replay_train "
            "for the full-pool retraining)"
        )
    ds = _load_base_dataset(cfg)
    if cfg.personalization_target is not None:
        splits = datagen.personalization_split(
            ds,
            cfg.personalization_target,
            cfg.meta_per_class,
            cfg.test_per_class,
            cfg.split_seed_effective,
        )
        train = splits.full_train if cfg.train_subset == "full" else splits.biased_train
    else:
        spec = datagen.SplitSpec(
            kind="holdout",
            meta_per_class=cfg.meta_per_class,
            test_per_class=cfg.test_per_class,
            seed=cfg.split_seed_effective,
        )
        splits = datagen.split(ds, spec)
        train = splits.train
    train, manifest = _corrupt(cfg, ds, train)
    meta_ds = splits.meta if cfg.meta_per_class > 0 else None
    return DataBundle.over(ds, train, meta_ds, splits.test, manifest)


def prepare_kfold(cfg):
    """(corrupted pool, test, fold positions, manifest, base dataset)."""
    ds = _load_base_dataset(cfg)
    spec = datagen.SplitSpec(
        kind="kfold",
        test_per_class=cfg.test_per_class,
        k=cfg.k,
        seed=cfg.split_seed_effective,
    )
    splits = datagen.split(ds, spec)
    pool, manifest = _corrupt(cfg, ds, splits.pool)
    return pool, splits.test, splits.folds, manifest, ds


def _make_batch(ds, positions):
    return nn.Batch(
        features=ds.features[positions],
        labels=ds.labels[positions],
        indices=ds.indices[positions],
    )


def _evaluate(model, ds, buffers):
    """(mean loss, accuracy, predicted classes) of ``ds``.

    The forward pass runs through the training pass buffers in blocks of
    one batch, so evaluation makes no matrix product larger than a
    training step's and allocates no layer array. A full-split product
    was the only one large enough to wake the BLAS thread pool, whose
    threads then spun through the single-threaded steps after it, and its
    fresh layer outputs set the run's peak memory.
    """
    logits = nn.forward(model, ds.features, buffers)
    losses_vec, _ = losses_mod.cross_entropy_batch(logits, ds.labels)
    preds = np.argmax(logits, axis=1)
    return float(losses_vec.mean()), float((preds == ds.labels).mean()), preds


def _per_class_accuracy(preds, ds):
    out = np.full(ds.n_classes, np.nan)
    for c in range(ds.n_classes):
        members = ds.labels == c
        if members.any():
            out[c] = float((preds[members] == c).mean())
    return out


def _effective_instance_weights(cfg, dps, train):
    if cfg.formulation == "temperature":
        # report the per-instance effective temperature as the "weight"
        sigma, _ = losses_mod.resolve_sigma_batch(
            cfg.temperature_mode, train.labels, train.indices, dps
        )
        return sigma
    if cfg.mode == "class":
        return dps.w_class[train.labels]
    return dps.w_inst[train.indices]


def _corrupt_mask(bundle):
    """Which train rows the manifest lists as corrupt; None without a
    manifest or with no corrupt instance."""
    if bundle.manifest is None or len(bundle.manifest.corrupt_indices) == 0:
        return None
    return np.isin(bundle.train.indices, bundle.manifest.corrupt_indices)


def _mean_std(values):
    """(mean, std) as floats, or (None, None) for an empty population."""
    if values.size == 0:
        return None, None
    return float(values.mean()), float(values.std())


def _weight_stats(cfg, dps, train, is_corrupt):
    """(clean mean, clean std, corrupt mean, corrupt std) of the effective
    train weights; ``is_corrupt`` is ``_corrupt_mask``. Every row counts as
    clean without a mask, and a population with no row reads None."""
    w_eff = _effective_instance_weights(cfg, dps, train)
    if is_corrupt is None:
        return (*_mean_std(w_eff), None, None)
    return (*_mean_std(w_eff[~is_corrupt]), *_mean_std(w_eff[is_corrupt]))


def _epoch_lr(cfg, epoch):
    if cfg.lr_drop_epoch is not None and epoch >= cfg.lr_drop_epoch:
        return cfg.lr / cfg.lr_drop_factor
    return cfg.lr


def run_training(cfg, bundle=None, out_dir=None):
    """Execute the configured training run and return a RunResult.

    With out_dir set, writes metrics.jsonl, trajectory.csv, model.json,
    config.cfg, run_info.json, and (when applicable) manifest.csv and
    class_meta_acc.csv into it.
    """
    config_mod.validate_config(cfg)
    if bundle is None:
        bundle = prepare_data(cfg)
    if cfg.meta_driven and (bundle.meta is None or bundle.meta.n == 0):
        raise ConfigError("meta-driven run requires a non-empty meta set")
    return _train(cfg, bundle, out_dir)


def replay_train(cfg, schedule, bundle=None, out_dir=None):
    """Retrain on the full train split with frozen per-epoch weight
    tables; no meta set is consumed."""
    config_mod.validate_config(cfg)
    if cfg.formulation == "temperature":
        raise ConfigError(
            "replay needs formulation = meta: a temperature run records no "
            "rate multipliers to freeze"
        )
    if bundle is None:
        bundle = prepare_replay_bundle(cfg)
    if schedule.epochs < cfg.epochs:
        raise ConfigError(
            f"trajectory covers {schedule.epochs} epochs, config needs {cfg.epochs}"
        )
    if schedule.n_instances != bundle.n_instances:
        raise ConfigError(
            f"trajectory is over {schedule.n_instances} instances, "
            f"dataset has {bundle.n_instances}"
        )
    return _train(cfg, replace(bundle, meta=None), out_dir, schedule)


def _train(cfg, bundle, out_dir, schedule=None):
    """The epoch loop behind run_training and replay_train.

    Without a schedule each step is the configured one: the lookahead meta
    step, or an optimizer step, which under the temperature formulation
    also reads and updates the temperature tables. With a schedule
    (a replay) each epoch's data parameters are that epoch's recorded
    tables, and each step is the lookahead rollout under them with no
    meta update.
    """
    manifest = nn.build_manifest(
        bundle.train.dim, list(cfg.hidden), bundle.n_classes, cfg.activation
    )
    theta = nn.init_params(manifest, cfg.seed_init)
    temperature_mode = (
        cfg.temperature_mode if cfg.formulation == "temperature" else None
    )
    dps = meta.DataParamState.initial(
        bundle.n_instances,
        bundle.n_classes,
        mode=cfg.mode,
        wd_init=cfg.wd_init,
        wd_learnable=cfg.wd_learnable,
        history_reset=cfg.history_reset,
        temperature_mode=temperature_mode,
    )
    opt_state = None
    if schedule is None and not cfg.meta_driven:
        opt_state = optim.make_optimizer(
            cfg.optimizer,
            cfg.lr,
            nn.param_count(manifest),
            **dict(cfg.optim_hyper),
        )

    rng_shuffle = np.random.default_rng(cfg.seed_shuffle)
    rng_meta = np.random.default_rng([cfg.seed_shuffle, 1])
    trajectory = TrajectoryLog(bundle.n_instances, bundle.n_classes)
    counters = {
        "steps": 0,
        "train_grad_evals": 0,
        "meta_grad_evals": 0,
        "meta_samples_consumed": 0,
        "clamp_events": 0,
    }
    metrics = []
    class_meta_acc = []
    train = bundle.train
    n_train = train.n
    is_corrupt = _corrupt_mask(bundle)
    # pass buffers made once per run: every step's train pass and epoch
    # evaluation use one set, a meta step's meta pass a second, since the
    # step reads the train pass's factors after the meta pass; no set is
    # larger than the largest split
    splits = [ds for ds in (train, bundle.meta, bundle.test) if ds is not None]
    rows = max(1, min(cfg.batch_size, max(ds.n for ds in splits)))
    train_buffers = nn.PassBuffers(manifest, rows)
    meta_step_buffers = None
    if schedule is None and cfg.meta_driven:
        meta_step_buffers = (train_buffers, nn.PassBuffers(manifest, rows))
    # each epoch's shuffled train split, gathered into arrays made once; a
    # batch is a slice of them
    train_arrays = (train.features, train.labels, train.indices)
    shuffled = tuple(np.empty_like(a) for a in train_arrays)

    def eval_model():
        if opt_state is not None and opt_state.kind == "polyak_sgd" and opt_state.step_count:
            return theta.with_values(optim.polyak_average(opt_state))
        return theta

    epoch = 0
    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            lr = _epoch_lr(cfg, epoch)
            if opt_state is not None:
                opt_state.lr = lr
            if schedule is not None:
                dps = meta.DataParamState(
                    **schedule.snapshot(epoch).as_tables(), mode=cfg.mode
                )
            perm = rng_shuffle.permutation(n_train)
            # a permutation needs no bounds check, and without one
            # np.take writes straight into out instead of a temporary
            for source, out in zip(train_arrays, shuffled):
                np.take(source, perm, axis=0, out=out, mode="clip")
            features, labels, indices = shuffled
            for start in range(0, n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                batch = nn.Batch(features[start:stop], labels[start:stop], indices[start:stop])
                if schedule is not None:
                    backward = nn.batch_backward(theta, batch, buffers=train_buffers)
                    theta = meta.rollout_one_step(theta, backward, batch, dps, lr)
                elif cfg.meta_driven:
                    meta_positions = rng_meta.integers(
                        0, bundle.meta.n, size=batch.size
                    )
                    meta_batch = _make_batch(bundle.meta, meta_positions)
                    theta, dps, report = meta.meta_train_step(
                        theta, dps, batch, meta_batch, lr, cfg.data_lr, cfg.wd_lr,
                        buffers=meta_step_buffers,
                    )
                    counters["meta_grad_evals"] += batch.size
                    counters["meta_samples_consumed"] += batch.size
                    counters["clamp_events"] += report.clamp_count
                else:
                    sigma = None
                    if temperature_mode is not None:
                        sigma, clamped = losses_mod.resolve_sigma_batch(
                            temperature_mode, batch.labels, batch.indices, dps
                        )
                        counters["clamp_events"] += int(clamped.sum())
                    backward = nn.batch_backward(theta, batch, sigma, train_buffers)
                    grad = backward.grad_sum() / batch.size + dps.lam_wd * theta.values
                    theta = theta.with_values(optim.step(opt_state, theta.values, grad))
                    if sigma is not None:
                        counters["clamp_events"] += meta._update_sigma_tables(
                            cfg, dps, batch, backward.dsigma, cfg.temperature_lr
                        )
                counters["train_grad_evals"] += batch.size
                counters["steps"] += 1
            trajectory.record(dps)
            model = eval_model()
            train_loss, train_acc, _ = _evaluate(model, train, train_buffers)
            meta_loss = meta_acc = None
            if bundle.meta is not None and bundle.meta.n:
                meta_loss, meta_acc, meta_preds = _evaluate(model, bundle.meta, train_buffers)
                class_meta_acc.append(_per_class_accuracy(meta_preds, bundle.meta))
            _, test_acc, _ = _evaluate(model, bundle.test, train_buffers)
            wc_mean, wc_std, wx_mean, wx_std = _weight_stats(cfg, dps, train, is_corrupt)
            metrics.append(
                MetricsRecord(
                    epoch=epoch,
                    train_loss=train_loss,
                    train_acc=train_acc,
                    meta_loss=meta_loss,
                    meta_acc=meta_acc,
                    test_acc=test_acc,
                    w_clean_mean=wc_mean,
                    w_clean_std=wc_std,
                    w_corrupt_mean=wx_mean,
                    w_corrupt_std=wx_std,
                    lam_wd=float(dps.lam_wd),
                    wall_ms=(time.perf_counter() - t0) * 1000.0,
                )
            )
    except NumericError as exc:
        last_good = epoch - 1
        if out_dir is not None:
            result = RunResult(
                cfg, theta, theta, trajectory, metrics, counters, bundle, class_meta_acc
            )
            write_run_outputs(out_dir, result, last_good_epoch=last_good)
        raise NumericError(
            f"{exc} (aborted in epoch {epoch}; last complete epoch {last_good})",
            epoch=epoch,
            **exc.context,
        ) from exc

    result = RunResult(
        config=cfg,
        model=eval_model(),
        raw_model=theta,
        trajectory=trajectory,
        metrics=metrics,
        counters=counters,
        bundle=bundle,
        class_meta_acc=class_meta_acc,
    )
    if out_dir is not None:
        write_run_outputs(out_dir, result)
    return result


def prepare_replay_bundle(cfg):
    """Full-train bundle for replay: the k-fold pool (corrupted labels
    kept) or the holdout train split, with no meta set."""
    if cfg.split_kind == "kfold":
        pool, test, _, manifest, ds = prepare_kfold(cfg)
        return DataBundle.over(ds, pool, None, test, manifest)
    bundle = prepare_data(cfg)
    return replace(bundle, meta=None)


def candidate_configs(cfg, grid):
    """Configs built by applying each override list to the base config."""
    base_raw = config_mod.parse_config_text("\n".join(config_mod.config_lines(cfg)))
    out = []
    for overrides in grid:
        raw = config_mod.apply_overrides(base_raw, overrides)
        out.append(config_mod.build_config(raw))
    return out


@dataclass
class KFoldReport:
    config: config_mod.RunConfig
    averaged: TrajectoryLog
    fold_results: list
    heldout_acc: float
    candidate_scores: list


def kfold_collect(cfg, grid=None, out_dir=None):
    """Run k trainings per candidate config, average each candidate's
    data-parameter trajectories, and keep the candidate with the best
    mean held-out (meta-fold) accuracy."""
    if cfg.split_kind != "kfold":
        raise ConfigError("kfold_collect requires split.kind = kfold")
    candidates = [cfg] if grid is None else candidate_configs(cfg, grid)
    best = None
    scores = []
    for candidate in candidates:
        pool, test, folds, manifest, ds = prepare_kfold(candidate)
        fold_results = []
        memberships = []
        for f in range(len(folds)):
            train, meta_ds = datagen.fold_view(pool, folds, f)
            bundle = DataBundle.over(ds, train, meta_ds, test, manifest)
            try:
                fold_results.append(run_training(candidate, bundle))
            except NumericError as exc:
                raise NumericError(f"fold {f}: {exc}", fold=f, **exc.context) from exc
            memberships.append(train.indices)
        averaged = average_trajectories(
            [r.trajectory for r in fold_results], memberships
        )
        heldout = float(np.mean([r.metrics[-1].meta_acc for r in fold_results]))
        scores.append(heldout)
        report = KFoldReport(
            config=candidate,
            averaged=averaged,
            fold_results=fold_results,
            heldout_acc=heldout,
            candidate_scores=[],
        )
        if best is None or heldout > best.heldout_acc:
            best = report
    best.candidate_scores = scores
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        best.averaged.to_csv(os.path.join(out_dir, "trajectory.csv"))
        config_mod.save_config(best.config, os.path.join(out_dir, "config.cfg"))
        info = {
            "heldout_acc": best.heldout_acc,
            "candidate_scores": scores,
            "k": best.config.k,
        }
        with open(os.path.join(out_dir, "kfold_info.json"), "w", encoding="utf-8") as fh:
            json.dump(info, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return best


def write_run_outputs(out_dir, result, last_good_epoch=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        for record in result.metrics:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    result.trajectory.to_csv(os.path.join(out_dir, "trajectory.csv"))
    save_model(result.model, os.path.join(out_dir, "model.json"))
    config_mod.save_config(result.config, os.path.join(out_dir, "config.cfg"))
    if result.bundle.manifest is not None:
        datagen.save_manifest(
            result.bundle.manifest, os.path.join(out_dir, "manifest.csv")
        )
    if result.class_meta_acc:
        lines = ["epoch,class,acc"]
        for epoch, accs in enumerate(result.class_meta_acc):
            for c, acc in enumerate(accs):
                lines.append(f"{epoch},{c},{float(acc)!r}")
        with open(os.path.join(out_dir, "class_meta_acc.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    info = {
        "config_digest": result.config.digest(),
        "dataset_digest": result.bundle.dataset_digest,
        "n_instances": result.bundle.n_instances,
        "n_classes": result.bundle.n_classes,
        "train_indices": [int(i) for i in result.bundle.train.indices],
        "counters": result.counters,
        "package_version": PACKAGE_VERSION,
        "noise_p": result.config.noise_p,
        "effective_flip_fraction": (
            None
            if result.bundle.manifest is None
            else result.bundle.manifest.effective_flip_fraction
        ),
    }
    if last_good_epoch is not None:
        info["last_good_epoch"] = last_good_epoch
    with open(os.path.join(out_dir, "run_info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model, path):
    payload = {
        "manifest": [
            [spec.in_dim, spec.out_dim, spec.activation] for spec in model.manifest
        ],
        "values": [float(v) for v in model.values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path):
    """The model ``save_model`` wrote to ``path``. A missing or unreadable
    file, malformed JSON, or values that do not fit the manifest raise
    ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None
    try:
        specs = payload["manifest"]
        if not all(type(i) is int and type(o) is int for i, o, _ in specs):
            raise ValueError(f"layer dims must be integers, got {specs!r}")
        manifest = tuple(nn.LayerSpec(in_dim=i, out_dim=o, activation=a) for i, o, a in specs)
        return nn.ParamVector(np.array(payload["values"], dtype=np.float64), manifest)
    except (KeyError, TypeError, ValueError, ShapeError, NumericError) as exc:
        raise ConfigError(f"{path}: not a saved model: {exc}") from None
