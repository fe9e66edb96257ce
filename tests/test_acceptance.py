"""Acceptance suite: one test per shipped guarantee.

Each test exercises a full-size configuration, so this module is slower
than the unit tests. Run with ``pytest -v tests/test_acceptance.py`` to
get one pass/fail line per guarantee.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from metasched import analysis, losses, nn, optim
from metasched.config import RunConfig, with_seeds
from metasched.harness import prepare_data, replay_train, run_training
from metasched.meta import DataParamState, meta_train_step
from metasched.nn import Batch

import oracles

SEEDS = (0, 1, 2)


def _w_inst_at(result, epoch):
    return result.trajectory.snapshot(epoch).as_tables()["w_inst"]


def _lam_series(result):
    t = result.trajectory
    return np.array([t.snapshot(e).lam_wd for e in range(t.epochs)])


# -- shared full-size runs ---------------------------------------------------


@pytest.fixture(scope="module")
def robust_runs():
    """Instance-mode curriculum vs plain SGD vs history-reset, 3 seeds,
    40% label noise on the default blobs problem."""
    base = RunConfig(mode="instance", noise_p=0.4)
    out = {}
    for s in SEEDS:
        t0 = time.perf_counter()
        meta = run_training(with_seeds(base, s))
        meta_seconds = time.perf_counter() - t0
        plain = run_training(with_seeds(replace(base, mode="none"), s))
        reset = run_training(with_seeds(replace(base, history_reset=True), s))
        out[s] = {
            "meta": meta,
            "plain": plain,
            "reset": reset,
            "meta_seconds": meta_seconds,
        }
    return out


@pytest.fixture(scope="module")
def personalization_runs():
    """Class-mode curriculum with the meta set drawn from superclass 0,
    against full-data and target-only plain-SGD baselines."""
    base = RunConfig(n_superclasses=2, personalization_target=0, mode="class")
    out = {}
    for s in SEEDS:
        out[s] = {
            "meta": run_training(with_seeds(base, s * 10)),
            "full": run_training(with_seeds(replace(base, mode="none"), s * 10)),
            "biased": run_training(
                with_seeds(replace(base, mode="none", train_subset="biased"), s * 10)
            ),
        }
    return out


# -- guarantees --------------------------------------------------------------


def test_criterion_1_meta_gradient_oracle():
    t0 = time.perf_counter()
    reports = analysis.run_all_gradchecks(trials=100, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(reports) == len(analysis.CHECK_TARGETS)
    for report in reports:
        assert report.trials == 100
        assert report.passed, (
            f"{report.target}: max_rel={report.max_rel_err:.2e} "
            f"max_abs={report.max_abs_err:.2e}"
        )
    assert elapsed < 30.0


def test_criterion_2_sgd_recovery():
    # part 1: the curriculum engine in mode none must track an independent
    # plain-SGD-with-decay loop step for step
    cfg = RunConfig(
        hidden=(12,), lr=0.2, n_classes=4, per_class=30, dim=6,
        meta_per_class=4, test_per_class=4,
    )
    bundle = prepare_data(cfg)
    manifest = nn.build_manifest(cfg.dim, cfg.hidden, cfg.n_classes, cfg.activation)
    theta = nn.init_params(manifest, seed=7)
    baseline = theta.values.copy()
    sgd = optim.make_optimizer("sgd", cfg.lr, theta.values.size)
    dps = DataParamState.initial(
        bundle.n_instances, bundle.n_classes, mode="none", wd_init=cfg.wd_init
    )

    rng = np.random.default_rng(11)
    train, meta_ds = bundle.train, bundle.meta
    for step in range(100):
        pos = rng.choice(train.n, size=16, replace=False)
        batch = Batch(train.features[pos], train.labels[pos], train.indices[pos])
        mpos = rng.choice(meta_ds.n, size=16, replace=True)
        meta_batch = Batch(
            meta_ds.features[mpos], meta_ds.labels[mpos], meta_ds.indices[mpos]
        )
        theta, dps, _ = meta_train_step(
            theta, dps, batch, meta_batch, cfg.lr, cfg.data_lr, cfg.wd_lr
        )
        _, grads = oracles.per_sample_backward(theta.with_values(baseline), batch)
        baseline = optim.step(sgd, baseline, grads.mean(axis=0) + cfg.wd_init * baseline)
        assert np.abs(theta.values - baseline).max() <= 1e-12, f"diverged at step {step}"
    assert np.all(dps.w_inst == 1.0) and np.all(dps.w_class == 1.0)
    assert dps.lam_wd == cfg.wd_init

    # part 2: replaying the recorded all-ones schedule reproduces the run
    small = RunConfig(
        hidden=(8,), lr=0.2, epochs=34, batch_size=8, n_classes=3,
        per_class=12, dim=4, meta_per_class=2, test_per_class=2,
    )
    base_run = run_training(small)
    assert base_run.counters["steps"] >= 100
    replayed = replay_train(small, base_run.trajectory)
    assert np.abs(base_run.model.values - replayed.model.values).max() <= 1e-12
    for rb, rr in zip(base_run.metrics, replayed.metrics):
        assert rb.test_acc == pytest.approx(rr.test_acc, abs=1e-12)


def test_criterion_3_class_sums_instances():
    cfg = RunConfig(
        hidden=(16,), lr=0.25, n_classes=5, per_class=24, dim=6,
        noise_p=0.3, mode="class", meta_per_class=4, test_per_class=4,
    )
    bundle = prepare_data(cfg)
    manifest = nn.build_manifest(cfg.dim, cfg.hidden, cfg.n_classes, cfg.activation)
    theta = nn.init_params(manifest, seed=3)
    dps = DataParamState.initial(bundle.n_instances, bundle.n_classes, mode="class")
    train, meta_ds = bundle.train, bundle.meta

    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(3):  # epochs
        order = rng.permutation(train.n)
        for start in range(0, train.n - 15, 16):
            pos = order[start : start + 16]
            batch = Batch(train.features[pos], train.labels[pos], train.indices[pos])
            mpos = rng.choice(meta_ds.n, size=16, replace=True)
            meta_batch = Batch(
                meta_ds.features[mpos], meta_ds.labels[mpos], meta_ds.indices[mpos]
            )
            theta, dps, report = meta_train_step(
                theta, dps, batch, meta_batch, cfg.lr, cfg.data_lr, cfg.wd_lr
            )
            for c, class_grad in zip(report.class_ids, report.per_class_metagrad):
                member_sum = sum(
                    inst_grad
                    for inst_grad, label in zip(report.per_instance_metagrad, batch.labels)
                    if label == c
                )
                assert abs(class_grad - member_sum) <= 1e-12
                checked += 1
    assert checked > 50


def test_criterion_4_robust_learning(robust_runs):
    gaps = []
    for s in SEEDS:
        runs = robust_runs[s]
        meta, plain = runs["meta"], runs["plain"]
        assert runs["meta_seconds"] < 120.0

        man = meta.bundle.manifest
        train_idx = meta.bundle.train.indices
        sep = analysis.separation(
            _w_inst_at(meta, meta.trajectory.epochs - 1), man, population=train_idx
        )
        assert sep.auc >= 0.80, f"seed {s}: auc={sep.auc:.3f}"

        corrupt = np.intersect1d(man.corrupt_indices, train_idx)
        clean = np.setdiff1d(train_idx, corrupt)
        for epoch in range(6, meta.trajectory.epochs):
            w = _w_inst_at(meta, epoch)
            assert w[corrupt].mean() < w[clean].mean(), f"seed {s} epoch {epoch}"

        gaps.append(meta.final_test_acc - plain.final_test_acc)
    assert np.mean(gaps) >= 0.05, f"mean gap {np.mean(gaps):.3f}"


def test_criterion_5_history_ablation(robust_runs):
    kept = [robust_runs[s]["meta"].final_test_acc for s in SEEDS]
    wiped = [robust_runs[s]["reset"].final_test_acc for s in SEEDS]
    for s, (k, w) in enumerate(zip(kept, wiped)):
        assert w < k, f"seed {s}: reset {w:.4f} !< kept {k:.4f}"
    assert np.mean(wiped) < np.mean(kept)


def test_criterion_6_personalization(personalization_runs):
    target = np.arange(5)
    nontarget = np.arange(5, 10)
    vs_full, vs_biased = [], []
    for s in SEEDS:
        runs = personalization_runs[s]
        meta = runs["meta"]
        vs_full.append(meta.final_test_acc - runs["full"].final_test_acc)
        vs_biased.append(meta.final_test_acc - runs["biased"].final_test_acc)

        w = meta.trajectory.snapshot(meta.trajectory.epochs - 1).w_class
        ratio = w[nontarget].mean() / max(w[target].mean(), 1e-12)
        assert ratio < 0.5, f"seed {s}: non-target/target rate ratio {ratio:.3f}"

    # at or above each baseline, ties allowed within one std of the pairing
    for name, diffs in (("full", vs_full), ("biased", vs_biased)):
        diffs = np.array(diffs)
        slack = diffs.std(ddof=1)
        assert diffs.mean() >= -slack, (
            f"vs {name}: mean diff {diffs.mean():.4f}, slack {slack:.4f}"
        )


def test_criterion_7_dynamic_weight_decay():
    base = RunConfig(
        mode="none", wd_learnable=True, wd_lr=1e-3,
        lr_drop_epoch=20, lr_drop_factor=10.0,
    )
    rises = 0
    for s in SEEDS:
        result = run_training(with_seeds(base, s * 10))
        lam = _lam_series(result)
        assert lam.min() >= 0.0
        assert lam.min() != lam.max(), "decay coefficient never moved"
        drop = base.lr_drop_epoch
        if lam[drop : drop + 6].max() > lam[drop - 1]:
            rises += 1
    assert rises >= 2, f"decay rose after the lr drop in only {rises}/3 seeds"
    # the derivative feeding those updates is checked against finite
    # differences in its own right
    assert analysis.finite_diff_check("wd_metagrad", trials=20, seed=7).passed


def test_criterion_8_temperature_formulation():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        z = rng.normal(0.0, 2.0, size=k)
        y = int(rng.integers(k))
        sigma = float(rng.uniform(0.2, 5.0))
        row = z[None, :]

        # unit temperature collapses to plain cross-entropy, bit for bit
        l0, dz0, _ = losses.cross_entropy_batch(row, [y])
        l1, dz1, _ = losses.cross_entropy_batch(row, [y], [1.0])
        assert l1[0] == l0[0] and np.array_equal(dz1, dz0)

        # the temperature derivative points toward the competing mass
        _, _, dsig = losses.cross_entropy_batch(row, [y], [sigma])
        gap = z[y] - float(oracles.temperature_ce(z, y, sigma)[3].q @ z)
        if gap > 0:
            assert dsig[0] > 0
        elif gap < 0:
            assert dsig[0] < 0

        # at any temperature the label of lowest loss is the argmax that
        # evaluation predicts
        every, _, _ = losses.cross_entropy_batch(
            np.repeat(row, k, axis=0), np.arange(k), np.full(k, sigma)
        )
        assert np.argmin(every) == np.argmax(z)


def test_criterion_9_spectral_probe():
    # known-spectrum quadratics: grad is a pure matrix product
    eigs, converged = analysis.hessian_top_eigs(
        lambda x: np.diag([3.0, 1.0]) @ x, np.zeros(2), 2, seed=0
    )
    assert all(converged)
    assert np.abs(eigs - np.array([3.0, 1.0])).max() <= 1e-6

    rng = np.random.default_rng(3)
    diag = np.array([5.0, 2.5, 1.0, 0.5, 0.25, 0.125])
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(diag) @ q.T
    eigs, converged = analysis.hessian_top_eigs(lambda x: a @ x, np.zeros(6), 3, seed=1)
    assert all(converged)
    assert np.abs(eigs - diag[:3]).max() <= 1e-6

    # dense finite-difference assembly as an independent oracle on a real net
    net_manifest = nn.build_manifest(3, (4,), 3, "tanh")
    model = nn.init_params(net_manifest, seed=5)
    p = model.values.size
    assert p <= 50
    feats = rng.standard_normal((12, 3))
    labels = rng.integers(0, 3, size=12)
    batch = Batch(feats, labels, np.arange(12))

    def grad_fn(values):
        _, grads = oracles.per_sample_backward(model.with_values(values), batch)
        return grads.mean(axis=0)

    h = 1e-4 * (1.0 + np.linalg.norm(model.values))
    dense = np.zeros((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        dense[:, j] = (
            grad_fn(model.values + h * e) - grad_fn(model.values - h * e)
        ) / (2.0 * h)
    dense = 0.5 * (dense + dense.T)
    spectrum = np.sort(np.linalg.eigvalsh(dense))[::-1]
    # power iteration reports the dominant magnitude; make sure that is
    # the algebraic top before comparing
    assert spectrum[0] >= abs(spectrum[-1])

    est, flags = analysis.hessian_top_eigs_model(model, batch, 1, seed=2)
    assert flags[0]
    assert abs(est[0] - spectrum[0]) <= 1e-4
