"""Training-loop orchestration: determinism, replay, k-fold, outputs."""

import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from metasched.config import RunConfig, with_seeds
from metasched.errors import ConfigError, NumericError
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.harness import (
    _evaluate,
    kfold_collect,
    load_model,
    prepare_data,
    prepare_kfold,
    replay_train,
    run_training,
)
from metasched import datagen, losses, meta, nn
from metasched.meta import _update_sigma_tables


def tiny_cfg(**kw):
    base = dict(
        hidden=(8,),
        lr=0.2,
        epochs=2,
        batch_size=8,
        n_classes=3,
        per_class=12,
        dim=4,
        spread=0.8,
        meta_per_class=2,
        test_per_class=2,
    )
    base.update(kw)
    return RunConfig(**base)


def metric_rows(result):
    """Metric dicts with the wall clock stripped."""
    rows = []
    for rec in result.metrics:
        d = asdict(rec)
        d.pop("wall_ms")
        rows.append(d)
    return rows


def test_trajectory_snapshots_do_not_alias_the_live_tables():
    # the data parameters are updated in place, so a snapshot that kept a
    # reference to them would follow the later epochs
    cfg = tiny_cfg(mode="instance", wd_learnable=True, noise_p=0.3, data_lr=5.0)
    three = run_training(with_seeds(replace(cfg, epochs=3), 7))
    one = run_training(with_seeds(replace(cfg, epochs=1), 7))
    first, last = three.trajectory.snapshot(0), three.trajectory.snapshot(2)
    want = one.trajectory.snapshot(0)
    assert np.array_equal(first.w_inst, want.w_inst)
    assert np.array_equal(first.w_class, want.w_class)
    assert first.lam_wd == want.lam_wd
    # the later epochs did move the tables
    assert not np.array_equal(first.w_inst, last.w_inst)
    assert first.lam_wd != last.lam_wd


def test_full_batch_single_epoch_is_one_step():
    cfg = tiny_cfg(epochs=1, batch_size=24)  # 24 = full train split
    result = run_training(cfg)
    assert result.counters["steps"] == 1
    assert len(result.metrics) == 1
    assert result.counters["train_grad_evals"] == 24


def test_same_config_same_everything(tmp_path):
    cfg = tiny_cfg(mode="instance", noise_p=0.3)
    a = run_training(cfg)
    b = run_training(cfg)
    assert metric_rows(a) == metric_rows(b)
    assert np.array_equal(a.model.values, b.model.values)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.trajectory.to_csv(pa)
    b.trajectory.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_metrics_stay_in_range():
    result = run_training(tiny_cfg(mode="instance", noise_p=0.3))
    for rec in result.metrics:
        assert 0.0 <= rec.train_acc <= 1.0
        assert 0.0 <= rec.test_acc <= 1.0
        assert 0.0 <= rec.meta_acc <= 1.0


def test_replay_of_all_ones_matches_plain_sgd():
    cfg = tiny_cfg(noise_p=0.3, epochs=3)
    base = run_training(cfg)
    rep = replay_train(cfg, base.trajectory)
    for rb, rr in zip(base.metrics, rep.metrics):
        for key in ("train_loss", "train_acc", "test_acc", "w_clean_mean",
                    "w_corrupt_mean", "lam_wd"):
            vb, vr = getattr(rb, key), getattr(rr, key)
            assert vb == pytest.approx(vr, abs=1e-12)
    assert rep.counters["meta_samples_consumed"] == 0
    assert rep.counters["meta_grad_evals"] == 0


def test_replay_epoch_shortfall_rejected():
    short = run_training(tiny_cfg(epochs=2))
    with pytest.raises(ConfigError, match="covers 2 epochs"):
        replay_train(tiny_cfg(epochs=3), short.trajectory)


def test_train_data_budget_parity():
    plain = run_training(tiny_cfg(mode="none", noise_p=0.3))
    meta = run_training(tiny_cfg(mode="instance", noise_p=0.3))
    assert plain.counters["train_grad_evals"] == meta.counters["train_grad_evals"]
    assert plain.counters["steps"] == meta.counters["steps"]
    # the meta run additionally consumes one meta sample per train sample
    assert meta.counters["meta_samples_consumed"] == meta.counters["train_grad_evals"]
    assert plain.counters["meta_samples_consumed"] == 0


def test_logged_metrics_recomputable_from_saved_model(tmp_path):
    cfg = tiny_cfg(mode="instance", noise_p=0.3)
    result = run_training(cfg, out_dir=str(tmp_path))
    model = load_model(tmp_path / "model.json")
    bundle = result.bundle
    logits = nn.forward(model, bundle.train.features)
    loss_vec, _ = losses.cross_entropy_batch(logits, bundle.train.labels)
    acc = float((logits.argmax(axis=1) == bundle.train.labels).mean())
    final = result.metrics[-1]
    assert abs(float(loss_vec.mean()) - final.train_loss) <= 1e-12
    assert abs(acc - final.train_acc) <= 1e-12
    test_logits = nn.forward(model, bundle.test.features)
    test_acc = float((test_logits.argmax(axis=1) == bundle.test.labels).mean())
    assert abs(test_acc - final.test_acc) <= 1e-12


def test_run_outputs_files(tmp_path):
    cfg = tiny_cfg(mode="instance", noise_p=0.3)
    run_training(cfg, out_dir=str(tmp_path))
    for name in ("metrics.jsonl", "trajectory.csv", "model.json", "config.cfg",
                 "run_info.json", "manifest.csv", "class_meta_acc.csv"):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == cfg.epochs
    assert json.loads(lines[0])["epoch"] == 0
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert info["config_digest"] == cfg.digest()
    assert info["counters"]["steps"] == cfg.epochs * 3
    assert info["effective_flip_fraction"] is not None


def test_model_file_round_trip(tmp_path):
    result = run_training(tiny_cfg(epochs=1))
    from metasched.harness import save_model

    path = tmp_path / "model.json"
    save_model(result.model, path)
    back = load_model(path)
    assert np.array_equal(back.values, result.model.values)
    assert back.manifest == result.model.manifest


def test_lr_drop_at_start_equals_smaller_rate():
    # dropping by 2x from epoch 0 must replay exactly as lr/2
    dropped = run_training(tiny_cfg(lr=0.32, lr_drop_epoch=0, lr_drop_factor=2.0))
    small = run_training(tiny_cfg(lr=0.16))
    assert np.array_equal(dropped.model.values, small.model.values)


def test_meta_mode_needs_meta_examples_in_bundle():
    bundle = prepare_data(tiny_cfg(meta_per_class=0))
    with pytest.raises(ConfigError, match="meta set"):
        run_training(tiny_cfg(mode="instance"), bundle=bundle)


def test_split_kind_routing():
    with pytest.raises(ConfigError, match="kfold_collect"):
        run_training(tiny_cfg(split_kind="kfold"))
    with pytest.raises(ConfigError, match="split.kind"):
        kfold_collect(tiny_cfg())


def test_kfold_average_matches_scripted_mean():
    cfg = tiny_cfg(split_kind="kfold", k=2, mode="instance", noise_p=0.3)
    report = kfold_collect(cfg)
    assert len(report.fold_results) == 2

    pool, _, folds, _, ds = prepare_kfold(cfg)
    members = [datagen.fold_view(pool, folds, f)[0].indices for f in range(2)]
    fold_tables = [
        [r.trajectory.snapshot(e).as_tables() for e in range(cfg.epochs)]
        for r in report.fold_results
    ]
    for e in range(cfg.epochs):
        avg = report.averaged.snapshot(e).as_tables()
        for idx in range(ds.n):
            owners = [f for f in range(2) if idx in set(int(i) for i in members[f])]
            if owners:
                want = np.mean([fold_tables[f][e]["w_inst"][idx] for f in owners])
            else:
                want = 1.0
            assert abs(avg["w_inst"][idx] - want) <= 1e-12
        want_class = np.mean([fold_tables[f][e]["w_class"] for f in range(2)], axis=0)
        assert np.allclose(avg["w_class"], want_class, rtol=0, atol=1e-12)
    assert report.heldout_acc == pytest.approx(
        np.mean([r.metrics[-1].meta_acc for r in report.fold_results])
    )


def test_kfold_grid_keeps_best_candidate(tmp_path):
    cfg = tiny_cfg(split_kind="kfold", k=2, mode="instance", noise_p=0.3)
    grid = [["train.lr=0.2"], ["train.lr=0.002"]]
    report = kfold_collect(cfg, grid=grid, out_dir=str(tmp_path))
    assert len(report.candidate_scores) == 2
    assert report.heldout_acc == max(report.candidate_scores)
    assert (tmp_path / "trajectory.csv").exists()
    info = json.loads((tmp_path / "kfold_info.json").read_text())
    assert info["candidate_scores"] == report.candidate_scores


def test_personalization_bundle_filters_train():
    cfg = tiny_cfg(
        n_classes=4,
        dim=6,
        n_superclasses=2,
        personalization_target=1,
        train_subset="biased",
    )
    bundle = prepare_data(cfg)
    assert set(bundle.train.true_labels.tolist()) == {2, 3}
    assert set(bundle.meta.labels.tolist()) <= {2, 3}
    assert set(bundle.test.labels.tolist()) <= {2, 3}
    full = prepare_data(tiny_cfg(
        n_classes=4, dim=6, n_superclasses=2, personalization_target=1
    ))
    assert set(full.train.true_labels.tolist()) == {0, 1, 2, 3}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", ["run_training", "replay_train"])
def test_divergence_aborts_with_partial_outputs(tmp_path, entry):
    cfg = tiny_cfg(lr=1e150, epochs=4)
    with pytest.raises(NumericError) as exc_info:
        if entry == "run_training":
            run_training(cfg, out_dir=str(tmp_path))
        else:
            schedule = run_training(tiny_cfg(epochs=4)).trajectory
            replay_train(cfg, schedule, out_dir=str(tmp_path))
    assert "epoch" in exc_info.value.context
    info = json.loads((tmp_path / "run_info.json").read_text())
    assert "last_good_epoch" in info


def loop_update_sigma_tables(mode, dps, batch, dsigma, data_lr):
    """Per-row reference for _update_sigma_tables: returns the clamp count."""
    scale = data_lr / batch.size
    clamps = 0
    if mode in ("class", "joint"):
        for c in np.unique(batch.labels):
            new = dps.sigma_class[c] - scale * float(dsigma[batch.labels == c].sum())
            if mode == "class" and new < losses.SIGMA_MIN:
                new = losses.SIGMA_MIN
                clamps += 1
            dps.sigma_class[c] = new
    if mode in ("instance", "joint"):
        for pos, idx in enumerate(batch.indices):
            new = dps.sigma_inst[idx] - scale * float(dsigma[pos])
            if mode == "instance" and new < losses.SIGMA_MIN:
                new = losses.SIGMA_MIN
                clamps += 1
            dps.sigma_inst[idx] = new
    return clamps


@pytest.mark.parametrize("mode", ["class", "instance", "joint"])
def test_update_sigma_tables_matches_per_row_loop(mode):
    cfg = tiny_cfg(formulation="temperature", temperature_mode=mode)
    rng = np.random.default_rng(17)
    n, k = 200, 4
    clamps = 0
    for _ in range(40):
        dps = meta.DataParamState.initial(n, k, temperature_mode=mode)
        if dps.sigma_class is not None:
            dps.sigma_class[:] = rng.uniform(0.04, 0.3, size=k)
        if dps.sigma_inst is not None:
            dps.sigma_inst[:] = rng.uniform(0.04, 0.3, size=n)
        size = int(rng.integers(1, 64))  # up to ~16 members per class
        labels = rng.integers(0, k, size=size)
        batch = nn.Batch(np.zeros((size, 1)), labels, rng.choice(n, size, replace=False))
        dsigma = rng.normal(0, 0.5, size=size)
        ref = dps.copy()
        got = _update_sigma_tables(cfg, dps, batch, dsigma, 0.7)
        want = loop_update_sigma_tables(mode, ref, batch, dsigma, 0.7)
        assert got == want
        for name in ("sigma_class", "sigma_inst"):
            a, b = getattr(dps, name), getattr(ref, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        clamps += got
    if mode != "joint":
        assert clamps > 0  # the floor is exercised


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    mode=st.sampled_from(losses.TEMPERATURE_MODES),
    size=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_sigma_tables_matches_per_row_loop_on_drawn_batches(mode, size, seed):
    cfg = tiny_cfg(formulation="temperature", temperature_mode=mode)
    rng = np.random.default_rng(seed)
    n, k = 80, int(rng.integers(1, 6))
    dps = meta.DataParamState.initial(n, k, temperature_mode=mode)
    # tables straddle the floor, and a step may cross it either way
    if dps.sigma_class is not None:
        dps.sigma_class[:] = rng.uniform(-0.1, 0.3, size=k)
    if dps.sigma_inst is not None:
        dps.sigma_inst[:] = rng.uniform(-0.1, 0.3, size=n)
    size = min(size, n)
    batch = nn.Batch(
        np.zeros((size, 1)), rng.integers(0, k, size=size), rng.choice(n, size, replace=False)
    )
    dsigma = rng.normal(0, 1.0, size=size) * rng.choice([0.0, 1.0, 1e3], size=size)
    ref = dps.copy()
    got = _update_sigma_tables(cfg, dps, batch, dsigma, 0.7)
    assert got == loop_update_sigma_tables(mode, ref, batch, dsigma, 0.7)
    for name in ("sigma_class", "sigma_inst"):
        a, b = getattr(dps, name), getattr(ref, name)
        assert (a is None and b is None) or np.array_equal(a, b)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    n=st.integers(1, 90),
    rows=st.integers(1, 40),
    activation=st.sampled_from(nn.ACTIVATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_evaluation_matches_one_full_forward(n, rows, activation, seed):
    rng = np.random.default_rng(seed)
    manifest = nn.build_manifest(4, (7, 5), 3, activation)
    model = nn.init_params(manifest, seed=int(rng.integers(2**31)))
    model = model.with_values(model.values + 0.3 * rng.standard_normal(model.values.size))
    labels = rng.integers(0, 3, size=n)
    ds = datagen.LabeledDataset(
        rng.standard_normal((n, 4)), labels, labels, np.arange(n), ("a", "b", "c")
    )
    loss, acc, preds = _evaluate(model, ds, nn.PassBuffers(manifest, rows))
    logits = nn.forward(model, ds.features)
    want_losses, _ = losses.cross_entropy_batch(logits, ds.labels)
    want_preds = np.argmax(logits, axis=1)
    assert np.array_equal(preds, want_preds)
    assert acc == float((want_preds == ds.labels).mean())
    # blocks of rows round the products differently from one full product
    assert loss == pytest.approx(float(want_losses.mean()), rel=1e-12, abs=0)
