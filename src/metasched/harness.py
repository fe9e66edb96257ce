"""Experiment orchestration: data preparation, the training loop shared by
training and replay retraining, k-fold trajectory collection, and metrics
logging.

Every run is fully determined by (config digest, seed.data, seed.init,
seed.shuffle); the wall clock, kept apart in timings.jsonl, is the only
nondeterministic output.
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
    trajectory: TrajectoryLog
    metrics: list
    counters: dict
    bundle: DataBundle
    class_meta_acc: list = field(default_factory=list)
    # wall-clock milliseconds per epoch
    timings: list = field(default_factory=list)

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
    losses_vec, _, _ = losses_mod.cross_entropy_batch(logits, ds.labels)
    preds = np.argmax(logits, axis=1)
    return float(losses_vec.mean()), float((preds == ds.labels).mean()), preds


def _per_class_accuracy(preds, ds):
    out = np.full(ds.n_classes, np.nan)
    for c in range(ds.n_classes):
        members = ds.labels == c
        if members.any():
            out[c] = float((preds[members] == c).mean())
    return out


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
    """(clean mean, clean std, corrupt mean, corrupt std) of the train
    rows' weights as a step applies them, or their temperatures in a
    temperature run; ``is_corrupt`` is ``_corrupt_mask``. Every row counts
    as clean without a mask, and a population with no row reads None."""
    if cfg.formulation == "temperature":
        w_eff, _ = meta.effective_temperatures(dps, train.labels, train.indices)
    else:
        w_eff = meta.effective_weights(dps, train.labels, train.indices)
    if is_corrupt is None:
        return (*_mean_std(w_eff), None, None)
    return (*_mean_std(w_eff[~is_corrupt]), *_mean_std(w_eff[is_corrupt]))


def _epoch_lr(cfg, epoch):
    if cfg.lr_drop_epoch is not None and epoch >= cfg.lr_drop_epoch:
        return cfg.lr / cfg.lr_drop_factor
    return cfg.lr


def run_training(cfg, bundle=None, out_dir=None):
    """Execute the configured training run and return a RunResult.

    With out_dir set, writes metrics.jsonl, timings.jsonl, trajectory.csv,
    model.json, config.cfg, run_info.json, and (when applicable)
    manifest.csv and class_meta_acc.csv into it.
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
    if any(s.sigma_class is not None or s.sigma_inst is not None for s in schedule.snapshots):
        raise ConfigError(
            "trajectory holds temperature tables: replay needs the rate "
            "multipliers of a formulation = meta run"
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


def _optimizer_step(opt_state, workspace, theta, dps, batch, temperature_lr):
    """One optimizer step of ``theta`` on ``batch``: (theta', clamp events).

    The pass runs in the workspace's held set, the mean gradient plus the
    decay term is summed into its ``grad`` buffer, and theta' is written
    into the slot that does not hold ``theta``, so a step allocates no
    parameter-sized array. With temperature tables in ``dps`` the loss is
    tempered by them and the step then updates them.
    """
    tempered = dps.sigma_class is not None or dps.sigma_inst is not None
    sigma, clamps = None, 0
    if tempered:
        sigma, clamped = meta.effective_temperatures(dps, batch.labels, batch.indices)
        clamps = int(np.count_nonzero(clamped))
    backward = nn.batch_backward(theta, batch, sigma, workspace.held_set)
    # grad_sum / B + lam theta, in that order
    grad = backward.grad_sum(out=workspace.grad)
    grad /= batch.size
    grad += np.multiply(theta.values, dps.lam_wd, out=workspace.decay)
    slot = workspace.slot_after(theta)
    optim.step(opt_state, theta.values, grad, out=slot.values)
    if tempered:
        clamps += meta.update_sigma_tables(dps, batch, backward.dsigma, temperature_lr)
    return slot, clamps


def _train(cfg, bundle, out_dir, schedule=None):
    """The epoch loop behind run_training and replay_train.

    ``out_dir`` is made before the first step, so a path that cannot be a
    directory fails before any training. The step is chosen once, before
    the loop, and each batch runs
    ``step(theta, dps, batch, lr, next_batch) -> (theta, clamp events)``,
    with ``next_batch`` the epoch's next batch or None. A replay
    steps by the lookahead rollout under each epoch's recorded tables,
    swapped in per epoch, with no meta update. A meta-driven run takes the
    lookahead meta step on a meta batch drawn from its own stream, whose
    one pass also serves the next batch's train pass. Any
    other run takes an optimizer step (``_optimizer_step``), which under
    the temperature formulation also reads and updates the temperature
    tables. Every step kind writes into one ``meta.Workspace`` bound for
    the run, and evaluation runs through its held set.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    manifest = nn.build_manifest(
        bundle.train.dim, list(cfg.hidden), bundle.n_classes, cfg.activation
    )
    theta = nn.init_params(manifest, cfg.seed_init)
    temperature_mode = cfg.temperature_mode if cfg.formulation == "temperature" else None
    dps = meta.DataParamState.initial(
        bundle.n_instances,
        bundle.n_classes,
        mode=cfg.mode,
        wd_init=cfg.wd_init,
        wd_learnable=cfg.wd_learnable,
        history_reset=cfg.history_reset,
        temperature_mode=temperature_mode,
    )
    train = bundle.train
    n_train = train.n
    # arrays made once per run; no pass set is larger than the largest split
    splits = [ds for ds in (train, bundle.meta, bundle.test) if ds is not None]
    rows = max(1, min(cfg.batch_size, max(ds.n for ds in splits)))
    workspace = meta.Workspace(manifest, rows)
    consumes_meta = schedule is None and cfg.meta_driven

    opt_state = None
    if schedule is not None:

        def step(theta, dps, batch, lr, next_batch):
            backward = nn.batch_backward(theta, batch, buffers=workspace.held_set)
            return meta.rollout_one_step(theta, backward, batch, dps, lr, workspace), 0

    elif consumes_meta:
        rng_meta = np.random.default_rng([cfg.seed_shuffle, 1])

        def step(theta, dps, batch, lr, next_batch):
            positions = rng_meta.integers(0, bundle.meta.n, size=batch.size)
            theta, _, report = meta.meta_train_step(
                theta, dps, batch, workspace.gather(bundle.meta, positions), lr,
                cfg.data_lr, cfg.wd_lr, workspace, next_batch,
            )
            return theta, report.clamp_count

    else:
        opt_state = optim.make_optimizer(
            cfg.optimizer, cfg.lr, nn.param_count(manifest), **dict(cfg.optim_hyper)
        )

        def step(theta, dps, batch, lr, next_batch):
            opt_state.lr = lr
            return _optimizer_step(opt_state, workspace, theta, dps, batch, cfg.temperature_lr)

    rng_shuffle = np.random.default_rng(cfg.seed_shuffle)
    trajectory = TrajectoryLog(bundle.n_instances, bundle.n_classes)
    steps = samples = clamp_events = 0
    metrics = []
    timings = []
    class_meta_acc = []
    is_corrupt = _corrupt_mask(bundle)
    # each epoch's shuffled train split, gathered into arrays made once; a
    # batch is a slice of them
    train_arrays = (train.features, train.labels, train.indices)
    shuffled = tuple(np.empty_like(a) for a in train_arrays)

    def eval_model():
        if opt_state is not None and opt_state.kind == "polyak_sgd" and opt_state.step_count:
            return theta.with_values(optim.polyak_average(opt_state))
        return theta

    def result(model):
        # a workspace slot is overwritten by later steps: keep a copy
        model = model.with_values(model.values.copy())
        meta_samples = samples if consumes_meta else 0
        counters = {
            "steps": steps,
            "train_grad_evals": samples,
            "meta_grad_evals": meta_samples,
            "meta_samples_consumed": meta_samples,
            "clamp_events": clamp_events,
        }
        return RunResult(
            cfg, model, trajectory, metrics, counters, bundle, class_meta_acc, timings
        )

    epoch = 0
    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            lr = _epoch_lr(cfg, epoch)
            if schedule is not None:
                # the rollout only reads the tables: no copy
                dps = replace(schedule.snapshot(epoch), mode=cfg.mode)
            perm = rng_shuffle.permutation(n_train)
            # a permutation needs no bounds check, and without one
            # np.take writes straight into out instead of a temporary
            for source, out in zip(train_arrays, shuffled):
                np.take(source, perm, axis=0, out=out, mode="clip")
            features, labels, indices = shuffled
            size = cfg.batch_size
            batches = [
                nn.Batch(features[i : i + size], labels[i : i + size], indices[i : i + size])
                for i in range(0, n_train, size)
            ]
            # each step also sees the epoch's next batch (None at its last)
            for batch, next_batch in zip(batches, [*batches[1:], None]):
                theta, clamps = step(theta, dps, batch, lr, next_batch)
                steps += 1
                samples += batch.size
                clamp_events += clamps
            trajectory.record(dps)
            model = eval_model()
            train_loss, train_acc, _ = _evaluate(model, train, workspace.held_set)
            meta_loss = meta_acc = None
            if bundle.meta is not None and bundle.meta.n:
                meta_loss, meta_acc, meta_preds = _evaluate(model, bundle.meta, workspace.held_set)
                class_meta_acc.append(_per_class_accuracy(meta_preds, bundle.meta))
            _, test_acc, _ = _evaluate(model, bundle.test, workspace.held_set)
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
                )
            )
            timings.append((time.perf_counter() - t0) * 1000.0)
    except NumericError as exc:
        last_good = epoch - 1
        if out_dir is not None:
            write_run_outputs(out_dir, result(theta), last_good_epoch=last_good)
        raise NumericError(
            f"{exc} (aborted in epoch {epoch}; last complete epoch {last_good})",
            epoch=epoch,
            **exc.context,
        ) from exc

    done = result(eval_model())
    if out_dir is not None:
        write_run_outputs(out_dir, done)
    return done


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
        if out_dir is not None and not scores:
            # once, before the first training; a later candidate whose
            # data fails validation leaves it behind
            os.makedirs(out_dir, exist_ok=True)
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
    with open(os.path.join(out_dir, "timings.jsonl"), "w", encoding="utf-8") as fh:
        for epoch, wall_ms in enumerate(result.timings):
            fh.write(json.dumps({"epoch": epoch, "wall_ms": wall_ms}) + "\n")
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
