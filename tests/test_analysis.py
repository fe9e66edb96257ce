"""Gradient checker, separation AUC, correlation, Hessian probe."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from metasched import analysis, nn
from metasched.analysis import (
    CHECK_TARGETS,
    REL_TOL,
    compare_grads,
    finite_diff_check,
    hessian_top_eigs,
    hessian_top_eigs_model,
    lr_performance_correlation,
    run_all_gradchecks,
    separation,
)
from metasched.config import RunConfig, with_seeds
from metasched.datagen import CorruptionManifest, holdout_split, make_blobs
from metasched.harness import DataBundle, run_training

import oracles


def test_compare_grads_pass_rule():
    # rel 1e-5 OR abs 1e-8, per component
    rel, abs_err, ok = compare_grads([1.0, 2.0], [1.0 + 5e-6, 2.0])
    assert ok and rel <= 1e-5
    _, _, ok = compare_grads([1e-10], [3e-9])  # huge rel err, tiny abs err
    assert ok
    _, _, ok = compare_grads([1.0], [1.001])
    assert not ok
    # max_rel is over the components the absolute tolerance leaves to the
    # relative test: a ~1e-10 gradient whose difference is exactly 0 has
    # relative error 1, and it passes
    rel, _, ok = compare_grads([1e-10, 1.0], [0.0, 1.0 + 5e-6])
    assert ok and rel == pytest.approx(5e-6, rel=1e-4)
    assert compare_grads([1e-10], [0.0]) == (0.0, 1e-10, True)
    # a non-finite component passes no test
    for analytic in (np.nan, np.inf):
        rel, abs_err, ok = compare_grads([analytic, 1.0], [0.0, 1.0])
        assert np.isnan(rel) and not ok
    with pytest.raises(ValueError, match="shape"):
        compare_grads([1.0, 2.0], [1.0])


def test_quadratic_sanity_is_nearly_exact():
    # zero truncation error on a quadratic; only rounding remains, which
    # the randomized target's near-zero components inflate in relative
    # terms, so the 1e-10 claim is pinned on a bounded-magnitude fixture
    report = finite_diff_check("quadratic_sanity", trials=20, seed=0)
    assert report.passed
    assert report.max_abs_err <= 1e-9

    diag = np.array([2.0, 1.5, 1.0])
    theta = np.array([1.2, -1.1, 1.0])
    step = 1e-5
    analytic = diag * theta
    numeric = np.empty(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        f_plus = 0.5 * (diag * (theta + e) ** 2).sum()
        f_minus = 0.5 * (diag * (theta - e) ** 2).sum()
        numeric[j] = (f_plus - f_minus) / (2 * step)
    assert np.abs(analytic - numeric).max() / np.abs(analytic).min() <= 1e-10


@pytest.mark.parametrize("target", CHECK_TARGETS)
def test_each_gradient_target_passes(target):
    report = finite_diff_check(target, trials=40, seed=3)
    assert report.passed, (target, report.max_rel_err, report.max_abs_err)
    assert report.max_rel_err <= REL_TOL
    assert report.trials == 40


def test_run_all_covers_every_target():
    reports = run_all_gradchecks(trials=5, seed=1)
    assert [r.target for r in reports] == list(CHECK_TARGETS)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("mode", ["instance", "class", "none"])
def test_shipped_report_leaves_the_callers_tables(mode):
    # a history-reset step would set every multiplier back to 1 and a
    # zero-rate update still projects a negative entry onto 0, so the
    # step must act on a copy for the finite-difference side to see dps
    rng = np.random.default_rng(8)
    model, train_batch, meta_batch, dps, lr = analysis._random_meta_problem(rng, mode)
    dps.history_reset = True
    dps.w_inst[0] = -0.25
    dps.w_class[0] = -0.25
    before = dps.copy()
    report = analysis._shipped_report(model, train_batch, meta_batch, dps, lr)
    assert np.array_equal(dps.w_inst, before.w_inst)
    assert np.array_equal(dps.w_class, before.w_class)
    assert dps.lam_wd == before.lam_wd
    assert report.wd_metagrad is not None


def test_checker_validation():
    with pytest.raises(ValueError, match="unknown gradcheck target"):
        finite_diff_check("hessian", trials=5, seed=0)
    with pytest.raises(ValueError, match="trials"):
        finite_diff_check("per_sample_grad", trials=0, seed=0)


def test_checker_catches_flipped_sign():
    rng = np.random.default_rng(5)
    diag = rng.uniform(0.5, 3.0, size=4)
    theta = rng.standard_normal(4)
    step = 1e-5
    numeric = np.empty(4)
    for j in range(4):
        e = np.zeros(4)
        e[j] = step
        f_plus = 0.5 * (diag * (theta + e) ** 2).sum()
        f_minus = 0.5 * (diag * (theta - e) ** 2).sum()
        numeric[j] = (f_plus - f_minus) / (2 * step)
    good = diag * theta
    assert np.all(np.abs(good) > 1e-6)  # keep the flip outside the abs tolerance
    assert compare_grads(good, numeric)[2]
    assert not compare_grads(-good, numeric)[2]


def manifest_for(corrupt_ids, n):
    ones = np.ones(len(corrupt_ids), dtype=np.int64)
    return CorruptionManifest(corrupt_ids, np.zeros_like(ones), ones, noise_fraction=0.5,
                              seed=0, n_population=n)


def brute_auc(w, corrupt_ids, clean_ids):
    total = 0.0
    for c in corrupt_ids:
        for k in clean_ids:
            if w[c] < w[k]:
                total += 1.0
            elif w[c] == w[k]:
                total += 0.5
    return total / (len(corrupt_ids) * len(clean_ids))


def test_perfect_separation_auc_one():
    w = np.array([1.0, 1.1, 0.9, 0.2, 0.3])
    report = separation(w, manifest_for([3, 4], 5))
    assert report.auc == 1.0
    assert report.n_clean == 3 and report.n_corrupt == 2
    assert report.clean_mean == pytest.approx(1.0)
    assert report.corrupt_mean == pytest.approx(0.25)


def test_constant_weights_auc_half():
    w = np.full(6, 0.7)
    assert separation(w, manifest_for([1, 4], 6)).auc == 0.5


def test_mixed_example_matches_pair_counting():
    # clean weights 1.0, 0.9; corrupt 0.8, 0.95: three of four pairs rank
    # the corrupt weight lower
    w = np.array([1.0, 0.9, 0.8, 0.95])
    report = separation(w, manifest_for([2, 3], 4))
    assert report.auc == brute_auc(w, [2, 3], [0, 1]) == 0.75


def test_tied_weights_count_half():
    w = np.array([1.0, 0.9, 0.8, 0.9])
    report = separation(w, manifest_for([2, 3], 4))
    assert report.auc == brute_auc(w, [2, 3], [0, 1]) == 0.875


def test_rank_auc_equals_brute_force_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = 30
        w = np.round(rng.uniform(0, 1, size=n), 1)  # coarse grid forces ties
        corrupt = rng.choice(n, size=10, replace=False)
        clean = np.setdiff1d(np.arange(n), corrupt)
        report = separation(w, manifest_for(corrupt, n))
        assert abs(report.auc - brute_auc(w, corrupt, clean)) <= 1e-12


def test_separation_rejects_empty_groups():
    with pytest.raises(ValueError, match="corrupt"):
        separation(np.ones(4), manifest_for([], 4))
    with pytest.raises(ValueError, match="clean"):
        separation(np.ones(4), manifest_for([0, 1, 2, 3], 4))


def test_separation_over_an_empty_population_is_an_empty_corrupt_set():
    with pytest.raises(ValueError, match="empty corrupt set"):
        separation(np.ones(4), manifest_for([1], 4), population=np.array([], dtype=np.int64))


def test_separation_counts_a_repeated_index_once():
    w = np.array([1.0, 0.9, 0.8, 0.95])
    report = separation(w, manifest_for([2, 3], 4), population=[3, 0, 2, 3, 1, 0])
    assert (report.n_clean, report.n_corrupt) == (2, 2)
    assert report.auc == brute_auc(w, [2, 3], [0, 1])


@pytest.mark.parametrize("x", [
    [0.5, np.nan, 0.1, np.nan, 0.5],
    [0.0, -0.0, 1.0, -0.0],
    [],
    [2.0, 2.0, 2.0],
])
def test_midranks_groups_ties_like_np_unique(x):
    x = np.array(x)
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    want = np.empty(x.size)
    want[order] = np.repeat(0.5 * (first + (first + counts) + 1), counts)
    assert np.array_equal(analysis._midranks(x), want)


CLASS_RUN_THEN_AUC = """
import sys
from metasched import analysis, config, harness
cfg = config.config_from_overrides(
    ["meta.mode=class", "noise.p=0.4", "train.epochs=1", "data.per_class=30",
     "split.meta_per_class=5", "split.test_per_class=5"]
)
bundle = harness.prepare_data(cfg)
result = harness.run_training(cfg, bundle)
w = result.trajectory.snapshot(0).w_inst
analysis.separation(w, bundle.manifest, population=bundle.train.indices)
print("numpy.ma" in sys.modules)
"""


def test_a_class_run_and_its_auc_leave_numpy_ma_unloaded():
    # np.unique, intersect1d and setdiff1d import numpy.ma on their first
    # call (about 1.6 MB); this process may hold it already, a fresh one not
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CLASS_RUN_THEN_AUC],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


def test_correlation_examples():
    assert lr_performance_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert lr_performance_correlation([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert lr_performance_correlation([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
    with pytest.raises(ValueError, match="3 classes"):
        lr_performance_correlation([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="mismatch"):
        lr_performance_correlation([1.0, 2.0, 3.0], [1.0, 2.0])


def test_known_diagonal_spectrum():
    diag = np.array([3.0, 1.0])
    eigs, converged = hessian_top_eigs(lambda th: diag * th, np.zeros(2), 2, seed=1)
    assert abs(eigs[0] - 3.0) <= 1e-6
    assert abs(eigs[1] - 1.0) <= 1e-6
    assert converged == [True, True]


def test_eigenvalues_sorted_non_increasing():
    diag = np.array([1.0, 5.0, 3.0])
    eigs, _ = hessian_top_eigs(lambda th: diag * th, np.zeros(3), 3, seed=2)
    assert np.allclose(eigs, [5.0, 3.0, 1.0], atol=1e-6)
    assert np.all(np.diff(eigs) <= 0)


def test_model_probe_matches_dense_assembly():
    manifest = nn.build_manifest(2, [3], 2, activation="tanh")
    model = nn.init_params(manifest, seed=4)
    rng = np.random.default_rng(6)
    batch = nn.Batch(
        features=rng.standard_normal((4, 2)),
        labels=rng.integers(0, 2, size=4),
        indices=np.arange(4),
    )

    def grad_fn(values):
        _, grads = oracles.per_sample_backward(model.with_values(values), batch)
        return grads.mean(axis=0)

    p = model.values.size
    assert p <= 50
    h = 1e-5
    dense = np.empty((p, p))
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        dense[:, j] = (grad_fn(model.values + e) - grad_fn(model.values - e)) / (2 * h)
    dense = 0.5 * (dense + dense.T)
    spectrum = np.linalg.eigvalsh(dense)
    # power iteration homes in on the dominant-magnitude eigenvalue; make
    # sure this fixture's dominant one is the algebraic top
    assert spectrum[-1] >= abs(spectrum[0])
    eigs, converged = hessian_top_eigs_model(model, batch, 1)
    assert converged[0]
    assert abs(eigs[0] - spectrum[-1]) <= 1e-4


def test_starved_iteration_is_flagged():
    diag = np.array([3.0, 1.0])
    _, converged = hessian_top_eigs(
        lambda th: diag * th, np.zeros(2), 1, tol=1e-30, max_iters=1, seed=3
    )
    assert converged == [False]


def test_probe_m_validation():
    fn = lambda th: th
    with pytest.raises(ValueError):
        hessian_top_eigs(fn, np.zeros(2), 0)
    with pytest.raises(ValueError):
        hessian_top_eigs(fn, np.zeros(2), 3)


def one_bad_class_bundle(seed):
    """Holdout bundle whose class 0 has mostly corrupted train labels,
    giving the class table a real performance spread to react to."""
    ds = make_blobs(6, 60, 8, 0.8, seed=seed)
    train, meta, test = holdout_split(ds, meta_per_class=10, test_per_class=10, seed=seed + 2)
    rng = np.random.default_rng(seed + 1)
    labels = train.labels.copy()
    for pos in np.flatnonzero(train.true_labels == 0):
        if rng.random() < 0.7:
            labels[pos] = int(rng.integers(1, 6))
    return DataBundle(
        train=replace(train, labels=labels),
        meta=meta,
        test=test,
        manifest=None,
        n_instances=ds.n,
        n_classes=6,
        dataset_digest=ds.digest,
    )


def test_settled_rate_accuracy_correlation_sits_below_zero():
    # the lookahead spends extra rate on the class the meta set says is
    # failing, so rate vs accuracy correlates negative once settled
    late = []
    for seed in (0, 10, 20):
        cfg = with_seeds(
            RunConfig(
                mode="class",
                hidden=(32,),
                epochs=14,
                batch_size=32,
                n_classes=6,
                per_class=60,
                dim=8,
                meta_per_class=10,
                test_per_class=10,
            ),
            seed,
        )
        result = run_training(cfg, bundle=one_bad_class_bundle(seed))
        for e in range(6, cfg.epochs):
            w_class = result.trajectory.snapshot(e).as_tables()["w_class"]
            r = lr_performance_correlation(w_class, result.class_meta_acc[e])
            if r is not None:
                late.append(r)
    assert len(late) >= 20
    assert np.mean([r < 0 for r in late]) >= 0.8
