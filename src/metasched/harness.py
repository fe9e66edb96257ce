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
from itertools import chain, pairwise

import numpy as np

from . import config as config_mod
from . import datagen
from . import losses as losses_mod
from . import meta
from . import nn
from . import optim
from .csvrows import WRITE_LINES
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
    # under k-fold: the fold position arrays into ``train``, the pool
    folds: tuple | None = None


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
    if cfg.data_path is None:
        ds = datagen.make_blobs(
            cfg.n_classes, cfg.per_class, cfg.dim, cfg.spread, cfg.seed_data
        )
    else:
        ds = datagen.load_dataset(cfg.data_path)
    if cfg.superclass_path is not None:
        mapping = datagen.load_superclass_map(cfg.superclass_path, ds.n_classes)
        ds = replace(ds, superclass_map=mapping)
    if cfg.n_superclasses >= 1:
        # a dataset file's class count is known only once it is read
        try:
            ds = datagen.assign_superclasses(ds, cfg.n_superclasses)
        except ConfigError as exc:
            raise ConfigError(f"data.n_superclasses: {exc}") from None
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
    """The run's bundle: stratified splits, with corruption applied to
    the train split only.

    A holdout split carves meta and test from every class, or from the
    personalization target's classes only; ``personalization.train_subset
    = biased`` then trains on those classes alone. A k-fold split returns
    its pool as ``train``, no meta set, and the fold positions into the
    pool as ``folds``; ``kfold_collect`` makes each fold's bundle.
    """
    ds = _load_base_dataset(cfg)
    seed, meta_ds, folds = cfg.split_seed_effective, None, None
    if cfg.split_kind == "kfold":
        train, test, folds = datagen.kfold_split(ds, cfg.test_per_class, cfg.k, seed)
    else:
        classes = None
        if cfg.personalization_target is not None:
            try:
                classes = datagen.superclass_members(ds, cfg.personalization_target)
            except ConfigError as exc:
                raise ConfigError(f"personalization.target: {exc}") from None
        train, meta_ds, test = datagen.holdout_split(
            ds, cfg.meta_per_class, cfg.test_per_class, seed, classes
        )
        if cfg.train_subset == "biased":
            train = train.subset(np.flatnonzero(np.isin(train.true_labels, classes)))
        if cfg.meta_per_class == 0:
            meta_ds = None
    train, manifest = _corrupt(cfg, ds, train)
    return DataBundle(train, meta_ds, test, manifest, ds.n, ds.n_classes, ds.digest, folds)


# rows per evaluation chunk, rounded down to whole pass blocks
EVAL_ROWS = 1024
# train rows gathered at once, rounded down to whole batches: a gather per
# batch cost about 4% of a temperature-joint step, one per 512 rows under 1%
GATHER_ROWS = 512


def _evaluate(model, ds, buffers, rows=None):
    """(mean loss, accuracy, predicted classes) of ``ds``.

    The split is walked in chunks of a whole number of ``rows``-row blocks
    (by default ``buffers.rows``), each block through the pass buffers, so
    evaluation makes no matrix product larger than a training step's and
    allocates no layer array. A full-split product was the only one large
    enough to wake the BLAS thread pool, whose threads then spun through
    the single-threaded steps after it. Each chunk's logits and loss
    temporaries are dropped once its per-row losses and predictions are
    written into arrays of the split's length, so evaluation holds 16
    bytes per row plus one chunk's arrays; the mean is taken over the
    whole loss vector.
    """
    losses = np.empty(ds.n)
    preds = np.empty(ds.n, dtype=np.intp)
    block = buffers.rows if rows is None else rows
    size = block * max(1, EVAL_ROWS // block)
    for lo in range(0, ds.n, size):
        hi = min(lo + size, ds.n)
        logits = nn.forward(model, ds.features[lo:hi], buffers, block)
        losses[lo:hi] = losses_mod.cross_entropy_batch(logits, ds.labels[lo:hi])[0]
        np.argmax(logits, axis=1, out=preds[lo:hi])
    return float(losses.mean()), float((preds == ds.labels).mean()), preds


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


def _weight_stats(dps, train, is_corrupt):
    """(clean mean, clean std, corrupt mean, corrupt std) of the train
    rows' weights as a step applies them, or their temperatures when
    ``dps`` holds temperature tables; ``is_corrupt`` is ``_corrupt_mask``.
    Every row counts as clean without a mask, and a population with no
    row reads None."""
    if dps.tempered:
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
    if bundle is None:
        if cfg.split_kind == "kfold":
            raise ConfigError(
                "config asks for k-fold splitting; use kfold_collect (or "
                "replay_train for the full-pool retraining)"
            )
        bundle = prepare_data(cfg)
    if cfg.meta_driven and (bundle.meta is None or bundle.meta.n == 0):
        raise ConfigError("meta-driven run requires a non-empty meta set")
    return _train(cfg, bundle, out_dir)


def check_replayable(cfg):
    """Raise ConfigError unless a replay can run under ``cfg``; it reads
    the config alone, so a caller can check before preparing data."""
    if cfg.optimizer != "sgd":
        raise ConfigError(
            "replay steps by the lookahead's SGD rollout; it needs "
            "train.optimizer = sgd"
        )
    if cfg.formulation == "temperature":
        raise ConfigError(
            "replay needs formulation = meta: a temperature run records no "
            "rate multipliers to freeze"
        )


def replay_train(cfg, schedule, bundle=None, out_dir=None):
    """Retrain on the full train split with frozen per-epoch weight
    tables; no meta set is consumed."""
    check_replayable(cfg)
    if any(s.tempered for s in schedule.snapshots):
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

    The pass runs in the workspace's buffers, the mean gradient plus the
    decay term is summed into its ``grad`` buffer, and theta' is written
    into the slot that does not hold ``theta``, which holds the decay term
    until then, so a step allocates no parameter-sized array. With
    temperature tables in ``dps`` the loss is tempered by them and the
    step then updates them.
    """
    sigma, clamps = None, 0
    if dps.tempered:
        sigma, clamped = meta.effective_temperatures(dps, batch.labels, batch.indices)
        clamps = int(np.count_nonzero(clamped))
    backward = nn.batch_backward(theta, batch, sigma, workspace.buffers)
    # grad_sum / B + lam theta, in that order; lam theta is formed in the
    # slot theta' goes to, which optim.step then overwrites whole
    grad = backward.grad_sum(out=workspace.grad)
    grad /= batch.size
    slot = workspace.slot_after(theta)
    grad += np.multiply(theta.values, dps.lam_wd, out=slot.values)
    optim.step(opt_state, theta.values, grad, out=slot.values)
    if dps.tempered:
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
    the run, and evaluation runs through its pass buffers in batch blocks.

    The train split is never copied whole: each epoch keeps its labels and
    ids in shuffled order, and gathers its feature rows from the
    permutation a chunk of whole batches (``GATHER_ROWS``) at a time, into
    one of two arrays used in turn; a batch is a slice of its chunk. One
    array would not do: the next batch's chunk is gathered before the
    step on a chunk's last batch, which may still read that batch's
    features.
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
    # arrays made once per run; no batch is larger than the largest split
    splits = [ds for ds in (train, bundle.meta, bundle.test) if ds is not None]
    rows = max(1, min(cfg.batch_size, max(ds.n for ds in splits)))
    workspace = meta.Workspace(manifest, rows)
    consumes_meta = schedule is None and cfg.meta_driven

    opt_state = None
    if schedule is not None:

        def step(theta, dps, batch, lr, next_batch):
            backward = nn.batch_backward(theta, batch, buffers=workspace.buffers)
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
    # the epoch's labels and ids in shuffled order, and two arrays that take
    # its feature rows a chunk of whole batches at a time, in turn
    labels, indices = np.empty_like(train.labels), np.empty_like(train.indices)
    size = cfg.batch_size
    chunk = size * max(1, GATHER_ROWS // size)
    inputs = [np.empty((min(chunk, n_train), train.dim)) for _ in range(2)]

    def epoch_batches(perm):
        # a chunk is gathered when its first batch is asked for; unchecked
        # indices (a permutation's) let take write into out directly
        for c, lo in enumerate(range(0, n_train, chunk)):
            features = inputs[c % 2][: min(chunk, n_train - lo)]
            train.features.take(perm[lo : lo + chunk], axis=0, out=features, mode="clip")
            yield from [
                nn.Batch(features[i : i + size], labels[lo + i : lo + i + size],
                         indices[lo + i : lo + i + size])
                for i in range(0, len(features), size)
            ]

    def eval_model():
        if opt_state is not None and opt_state.kind == "polyak_sgd" and opt_state.step_count:
            return theta.with_values(optim.polyak_average(opt_state))
        return theta

    def result(model):
        # no step runs after this: the model stays in its workspace slot,
        # uncopied, and the rest of the workspace goes when _train returns
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
            train.labels.take(perm, out=labels, mode="clip")
            train.indices.take(perm, out=indices, mode="clip")
            # each step also sees the epoch's next batch (None at its last),
            # which pairwise takes before the step
            for batch, next_batch in pairwise(chain(epoch_batches(perm), [None])):
                theta, clamps = step(theta, dps, batch, lr, next_batch)
                steps += 1
                samples += batch.size
                clamp_events += clamps
            trajectory.record(dps)
            model, buffers = eval_model(), workspace.buffers
            train_loss, train_acc, _ = _evaluate(model, train, buffers, rows)
            meta_loss = meta_acc = None
            if bundle.meta is not None and bundle.meta.n:
                meta_loss, meta_acc, meta_preds = _evaluate(model, bundle.meta, buffers, rows)
                class_meta_acc.append(_per_class_accuracy(meta_preds, bundle.meta))
            _, test_acc, _ = _evaluate(model, bundle.test, buffers, rows)
            wc_mean, wc_std, wx_mean, wx_std = _weight_stats(dps, train, is_corrupt)
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
    return replace(prepare_data(cfg), meta=None)


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
        data = prepare_data(candidate)
        if out_dir is not None and not scores:
            # once, before the first training; a later candidate whose
            # data fails validation leaves it behind
            os.makedirs(out_dir, exist_ok=True)
        fold_results = []
        memberships = []
        for f in range(len(data.folds)):
            train, meta_ds = datagen.fold_view(data.train, data.folds, f)
            bundle = replace(data, train=train, meta=meta_ds, folds=None)
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
    _write_run_info(os.path.join(out_dir, "run_info.json"), info, result.bundle.train.indices)


def _write_run_info(path, info, train_indices):
    """Write ``info`` with the integer array ``train_indices`` as the bytes
    ``json.dump(..., indent=2, sort_keys=True)`` and a newline give it,
    with the indices encoded ``WRITE_LINES`` at a time instead of as one
    list of Python ints."""
    text = json.dumps({**info, "train_indices": "\0"}, indent=2, sort_keys=True)
    head, tail = text.split('"\\u0000"')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + "[")
        for lo in range(0, train_indices.size, WRITE_LINES):
            items = ",\n    ".join(map(str, train_indices[lo : lo + WRITE_LINES].tolist()))
            fh.write(("," if lo else "") + "\n    " + items)
        fh.write(("\n  ]" if train_indices.size else "]") + tail + "\n")


def save_model(model, path):
    """Write ``model`` as the JSON object ``{"manifest": ..., "values":
    ...}``, the bytes ``json.dump`` gives it, with the values encoded
    ``WRITE_LINES`` at a time instead of as one list of Python floats."""
    manifest = [[spec.in_dim, spec.out_dim, spec.activation] for spec in model.manifest]
    values = model.values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"manifest": {json.dumps(manifest)}, "values": [')
        for lo in range(0, values.size, WRITE_LINES):
            if lo:
                fh.write(", ")
            fh.write(json.dumps(values[lo : lo + WRITE_LINES].tolist())[1:-1])
        fh.write("]}\n")


def load_model(path):
    """The model ``save_model`` wrote to ``path``. A missing or unreadable
    file, malformed JSON, or values that do not fit the manifest raise
    ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
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
