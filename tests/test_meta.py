"""One-step lookahead rollout, meta-gradients, and data-parameter updates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched import config, datagen, harness, meta, nn, optim
from metasched.errors import NumericError, ShapeError
from metasched.losses import cross_entropy_batch
from metasched.meta import DataParamState, MetaStepReport
from metasched.nn import Batch, LayerSpec, ParamVector

import oracles


def scalar_model(value):
    manifest = (LayerSpec(1, 1, "identity"),)
    # weight carries the value; bias pinned by the caller through grads
    return ParamVector(np.array([value, 0.0]), manifest)


def toy_problem(seed, n=24, b=4, k=2):
    rng = np.random.default_rng(seed)
    manifest = nn.build_manifest(2, (4,), k, "tanh")
    model = nn.init_params(manifest, seed=seed + 1)
    feats = rng.standard_normal((n, 2))
    labels = rng.integers(0, k, size=n)
    train = Batch(feats[:b], labels[:b], np.arange(b))
    meta_batch = Batch(feats[b : 2 * b], labels[b : 2 * b], np.arange(b, 2 * b))
    return model, train, meta_batch, n


def hand_backward(manifest, acts, deltas):
    """A backward pass with chosen per-layer factors."""
    rows = len(acts[0])
    buffers = nn.PassBuffers(manifest, rows)
    return nn.BatchBackward(manifest, np.zeros(rows), tuple(acts), tuple(deltas), buffers)


def test_rollout_scalar_example():
    # theta=(1, 0.5), lr=0.5, B=1, w=2, a=2, delta=0.1 so g=(0.2, 0.1),
    # no decay -> (0.8, 0.4)
    manifest = (LayerSpec(1, 1, "identity"),)
    theta = ParamVector(np.array([1.0, 0.5]), manifest)
    backward = hand_backward(manifest, [np.array([[2.0]])], [np.array([[0.1]])])
    batch = Batch(np.ones((1, 1)), np.zeros(1, dtype=int), np.array([0]))
    dps = DataParamState.initial(1, 1, mode="instance")
    dps.w_inst[0] = 2.0
    dps.lam_wd = 0.0
    out = meta.rollout_one_step(theta, backward, batch, dps, lr=0.5)
    assert out.values[0] == 0.8
    assert out.values[1] == 0.4


def test_rollout_decay_only():
    manifest = (LayerSpec(1, 2, "identity"),)
    theta = ParamVector(np.array([1.0, -2.0, 0.0, 0.0]), manifest)
    backward = hand_backward(manifest, [np.ones((1, 1))], [np.zeros((1, 2))])
    batch = Batch(np.ones((1, 1)), np.zeros(1, dtype=int), np.array([0]))
    dps = DataParamState.initial(1, 2, mode="none")
    dps.lam_wd = 0.1
    out = meta.rollout_one_step(theta, backward, batch, dps, lr=0.5)
    assert np.allclose(out.values[:2], [0.95, -1.9], rtol=1e-12, atol=0)


def test_rollout_unit_weights_is_sgd_on_regularized_loss():
    rng = np.random.default_rng(0)
    model, train, _, n = toy_problem(3)
    dps = DataParamState.initial(n, 2, mode="instance")
    dps.lam_wd = 3e-3
    rolled = meta.rollout_one_step(model, nn.batch_backward(model, train), train, dps, lr=0.2)
    _, grads = oracles.per_sample_backward(model, train)
    state = optim.make_optimizer("sgd", 0.2, model.values.size)
    reg_grad = grads.mean(axis=0) + dps.lam_wd * model.values
    stepped = optim.step(state, model.values, reg_grad)
    assert np.allclose(rolled.values, stepped, rtol=1e-12, atol=1e-15)


def test_instance_metagrad_example():
    grads = np.array([[1.0, 2.0], [7.0, 7.0]])
    mg = np.array([3.0, -1.0])
    out = meta.instance_metagrad(grads @ mg, lr=0.1)
    assert np.isclose(out[0], -0.05, rtol=1e-12, atol=0)
    assert out.shape == (2,)


def test_instance_metagrad_orthogonal_and_aligned():
    g = np.array([[0.0, 1.0]])
    assert meta.instance_metagrad(g @ np.array([1.0, 0.0]), 0.3)[0] == 0.0
    g2 = np.array([[1.5, -2.0]])
    out = meta.instance_metagrad(g2 @ g2[0], lr=1.0)
    assert np.isclose(out[0], -(1.5**2 + 2.0**2), rtol=1e-12)
    assert out[0] < 0  # aligned samples gain weight under descent


def test_class_metagrad_is_sum_of_member_instance_metagrads():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b, p, k = 8, 5, 3
        grads = rng.standard_normal((b, p))
        labels = rng.integers(0, k, size=b)
        mg = rng.standard_normal(p)
        lr = float(rng.uniform(0.05, 1.0))
        inst = meta.instance_metagrad(grads @ mg, lr)
        classes, cls = meta.class_metagrad(inst, labels, n_classes=k)
        assert np.array_equal(classes, np.unique(labels))
        for c, value in zip(classes, cls):
            members = [i for i in range(b) if labels[i] == c]
            assert abs(value - sum(inst[i] for i in members)) <= 1e-12


def test_class_metagrad_singleton_reduction():
    grads = np.array([[1.0, 2.0]])
    mg = np.array([3.0, -1.0])
    inst = meta.instance_metagrad(grads @ mg, 0.1)
    classes, cls = meta.class_metagrad(inst, np.array([2]), n_classes=4)
    assert classes.tolist() == [2]
    assert cls.tolist() == [inst[0]]


def test_class_metagrad_label_out_of_range():
    with pytest.raises(ValueError):
        meta.class_metagrad(np.ones(1), np.array([5]), n_classes=3)


def test_wd_metagrad_examples():
    manifest = (LayerSpec(1, 2, "identity"),)
    theta = ParamVector(np.array([1.0, -2.0, 0.0, 0.0]), manifest)
    mg = np.array([0.2, 0.3, 0.0, 0.0])
    assert np.isclose(meta.wd_metagrad(theta, mg, 0.5), 0.2, rtol=1e-12)
    perp = np.array([2.0, 1.0, 0.0, 0.0])
    assert meta.wd_metagrad(theta, perp, 0.5) == 0.0
    zero = theta.with_values(np.zeros(4))
    assert meta.wd_metagrad(zero, mg, 0.5) == 0.0


def test_apply_update_arithmetic_and_clamp():
    dps = DataParamState.initial(3, 2, mode="instance")
    dps.w_inst[1] = 0.02
    report = MetaStepReport(
        meta_loss=0.0,
        instance_ids=np.array([0, 1]),
        per_instance_metagrad=np.array([-0.05, 0.5]),
        class_ids=np.empty(0, dtype=np.int64),
        per_class_metagrad=np.empty(0),
        wd_metagrad=0.0,
    )
    before_untouched = dps.w_inst[2]
    meta.apply_data_param_update(dps, report, data_lr=0.1, wd_lr=0.0)
    assert np.isclose(dps.w_inst[0], 1.005, rtol=1e-12)
    assert dps.w_inst[1] == 0.0
    assert report.clamp_count == 1
    assert dps.w_inst[2] == before_untouched


def test_update_keeps_everything_non_negative():
    rng = np.random.default_rng(23)
    for _ in range(50):
        dps = DataParamState.initial(6, 4, mode="class", wd_learnable=True)
        dps.w_class[:] = rng.uniform(0, 0.2, size=4)
        dps.lam_wd = float(rng.uniform(0, 1e-3))
        report = MetaStepReport(
            meta_loss=0.0,
            instance_ids=np.empty(0, dtype=np.int64),
            per_instance_metagrad=np.empty(0),
            class_ids=np.arange(4),
            per_class_metagrad=np.array([rng.normal(0, 2) for c in range(4)]),
            wd_metagrad=float(rng.normal(0, 2)),
        )
        meta.apply_data_param_update(dps, report, data_lr=0.5, wd_lr=0.5)
        assert dps.w_class.min() >= 0
        assert dps.lam_wd >= 0


def loop_data_param_update(dps, ids, grads, wd_grad, data_lr, wd_lr):
    """Per-entry reference for apply_data_param_update: (state, clamps)."""
    out = dps.copy()
    table = out.w_inst if dps.mode == "instance" else out.w_class
    clamps = 0
    for idx, g in zip(ids, grads):
        new = table[idx] - data_lr * g
        if new < 0.0:
            new = 0.0
            clamps += 1
        table[idx] = new
    if dps.wd_learnable:
        new_wd = out.lam_wd - wd_lr * wd_grad
        if new_wd < 0.0:
            new_wd = 0.0
            clamps += 1
        out.lam_wd = new_wd
    return out, clamps


def loop_sgd_at(table, ids, step, floor):
    """Per-row reference for sgd_at: each row assigns its own update of
    the table as it was before the call, so with repeated ids the last
    row's value stays; every projected row counts, overwritten or not."""
    before = table.copy()
    clamps = 0
    for idx, s in zip(ids, step):
        new = before[idx] - s
        if floor is not None and new < floor:
            new = floor
            clamps += 1
        table[idx] = new
    return clamps


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    size=st.integers(0, 40),
    n=st.integers(1, 12),
    floor=st.sampled_from([None, 0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sgd_at_matches_per_row_loop(size, n, floor, seed):
    rng = np.random.default_rng(seed)
    # few ids for many rows, so ids repeat; steps cross the floor both ways
    ids = rng.integers(0, n, size=size)
    step = rng.normal(0, 0.3, size=size)
    table = rng.uniform(-0.1, 0.4, size=n)
    ref = table.copy()
    got = meta.sgd_at(table, ids, step, floor)
    assert got == loop_sgd_at(ref, ids, step, floor)
    assert np.array_equal(table, ref)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    size=st.integers(0, 40),
    n_classes=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_metagrad_matches_per_row_loop(size, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=size)
    grads = rng.normal(0, 1.0, size=size) * rng.choice([1e-8, 1.0, 1e8], size=size)
    classes, sums = meta.class_metagrad(grads, labels, n_classes)
    want_classes = sorted(set(labels.tolist()))
    want_sums = []
    for c in want_classes:
        total = 0.0
        for label, g in zip(labels, grads):
            if label == c:
                total += g
        want_sums.append(total)
    assert classes.tolist() == want_classes
    assert sums.tolist() == want_sums


@pytest.mark.parametrize("mode", ["instance", "class"])
def test_apply_update_matches_per_entry_loop(mode):
    rng = np.random.default_rng(41)
    n, k = 30, 6
    total_clamps = 0
    for trial in range(100):
        dps = DataParamState.initial(n, k, mode=mode, wd_learnable=trial % 2 == 0)
        dps.w_inst[:] = rng.uniform(0, 0.3, size=n)
        dps.w_class[:] = rng.uniform(0, 0.3, size=k)
        dps.lam_wd = float(rng.uniform(0, 1e-3))
        size = int(rng.integers(1, 9 if mode == "instance" else k + 1))
        ids = rng.choice(n if mode == "instance" else k, size=size, replace=False)
        grads = rng.normal(0, 0.1, size=size)
        empty_ids, empty = np.empty(0, dtype=np.int64), np.empty(0)
        report = MetaStepReport(
            meta_loss=0.0,
            instance_ids=ids if mode == "instance" else empty_ids,
            per_instance_metagrad=grads if mode == "instance" else empty,
            class_ids=ids if mode == "class" else empty_ids,
            per_class_metagrad=grads if mode == "class" else empty,
            wd_metagrad=float(rng.normal(0, 1)),
        )
        # the reference copies the state before the in-place update
        ref, clamps = loop_data_param_update(dps, ids, grads, report.wd_metagrad, 2.0, 0.5)
        meta.apply_data_param_update(dps, report, data_lr=2.0, wd_lr=0.5)
        assert np.array_equal(dps.w_inst, ref.w_inst)
        assert np.array_equal(dps.w_class, ref.w_class)
        assert dps.lam_wd == ref.lam_wd
        assert report.clamp_count == clamps
        total_clamps += clamps
    assert total_clamps > 20  # the clamp branch is exercised


def test_meta_step_repeated_index_last_row_wins():
    model, train, meta_batch, n = toy_problem(27)
    # rows 0 and 2 name the same instance
    twice = Batch(train.features, train.labels, np.array([3, 1, 3, 0]))
    dps = DataParamState.initial(n, 2, mode="instance")
    _, dps_next, report = meta.meta_train_step(
        model, dps, twice, meta_batch, 0.2, 2.0, 0.0
    )
    assert dps_next.w_inst[3] == 1.0 - 2.0 * report.per_instance_metagrad[2]
    assert dps_next.w_inst[1] == 1.0 - 2.0 * report.per_instance_metagrad[1]


@pytest.mark.parametrize("mode", ["instance", "class"])
def test_meta_step_updates_the_given_state_in_place(mode):
    model, train, meta_batch, n = toy_problem(31)
    dps = DataParamState.initial(n, 2, mode=mode, wd_learnable=True)
    before = dps.copy()
    _, dps_next, report = meta.meta_train_step(
        model, dps, train, meta_batch, 0.2, 2.0, 1e-3
    )
    assert dps_next is dps
    # the update is applied: the same one on a copy of the state before
    want = before.copy()
    meta.apply_data_param_update(want, report, 2.0, 1e-3)
    assert np.array_equal(dps.w_inst, want.w_inst)
    assert np.array_equal(dps.w_class, want.w_class)
    assert dps.lam_wd == want.lam_wd
    changed = dps.w_inst if mode == "instance" else dps.w_class
    table = before.w_inst if mode == "instance" else before.w_class
    assert not np.array_equal(changed, table)
    assert dps.lam_wd != before.lam_wd


@pytest.mark.parametrize("wd_learnable", [False, True])
def test_meta_step_computes_decay_metagrad_only_when_learnable(wd_learnable):
    model, train, meta_batch, n = toy_problem(29)
    dps = DataParamState.initial(n, 2, mode="instance", wd_learnable=wd_learnable)
    # the step updates dps in place: compare with the value before it
    lam_wd = dps.lam_wd
    theta_next, dps_next, report = meta.meta_train_step(
        model, dps, train, meta_batch, 0.2, 2.0, 1e-3
    )
    if not wd_learnable:
        assert report.wd_metagrad is None
        assert dps_next.lam_wd == lam_wd
        return
    _, meta_grads = oracles.per_sample_backward(theta_next, meta_batch)
    # the step sums the meta gradient in another order than the oracle's
    # row mean, so the two agree to rounding, not bit for bit
    want = meta.wd_metagrad(model, meta_grads.mean(axis=0), 0.2)
    assert report.wd_metagrad == pytest.approx(want, rel=1e-12, abs=0)


def test_meta_step_requires_equal_batch_sizes():
    model, train, meta_batch, n = toy_problem(5)
    short = Batch(meta_batch.features[:2], meta_batch.labels[:2], meta_batch.indices[:2])
    dps = DataParamState.initial(n, 2, mode="instance")
    with pytest.raises(ShapeError):
        meta.meta_train_step(model, dps, train, short, 0.1, 1.0, 1e-3)


def test_meta_step_mode_none_is_plain_sgd_step():
    model, train, meta_batch, n = toy_problem(7)
    dps = DataParamState.initial(n, 2, mode="none")
    dps.lam_wd = 0.0
    theta_next, dps_next, report = meta.meta_train_step(
        model, dps, train, meta_batch, 0.1, 1.0, 1e-3
    )
    _, grads = oracles.per_sample_backward(model, train)
    expected = model.values - 0.1 * grads.mean(axis=0)
    assert np.allclose(theta_next.values, expected, rtol=1e-12, atol=1e-15)
    assert np.array_equal(dps_next.w_inst, np.ones(n))
    assert np.array_equal(dps_next.w_class, np.ones(2))


def test_meta_step_commit_is_rollout_bit_exact():
    model, train, meta_batch, n = toy_problem(9)
    dps = DataParamState.initial(n, 2, mode="instance")
    rolled = meta.rollout_one_step(model, nn.batch_backward(model, train), train, dps, lr=0.3)
    theta_next, _, _ = meta.meta_train_step(model, dps, train, meta_batch, 0.3, 1.0, 1e-3)
    assert np.array_equal(theta_next.values, rolled.values)


def test_meta_step_deterministic():
    model, train, meta_batch, n = toy_problem(13)
    runs = []
    for _ in range(2):
        dps = DataParamState.initial(n, 2, mode="instance")
        theta_next, dps_next, report = meta.meta_train_step(
            model, dps, train, meta_batch, 0.2, 2.0, 1e-3
        )
        runs.append((theta_next.values, dps_next.w_inst, report.meta_loss))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]
    assert np.isfinite(runs[0][2])


def test_meta_step_touches_only_batch_instances():
    model, train, meta_batch, n = toy_problem(15)
    dps = DataParamState.initial(n, 2, mode="instance")
    _, dps_next, report = meta.meta_train_step(
        model, dps, train, meta_batch, 0.2, 2.0, 1e-3
    )
    touched = set(train.indices.tolist())
    assert np.array_equal(report.instance_ids, train.indices)
    assert report.per_instance_metagrad.shape == (train.size,)
    assert report.class_ids.size == 0
    for i in range(n):
        if i not in touched:
            assert dps_next.w_inst[i] == 1.0


def test_hundred_step_baseline_recovery():
    # mode=none with fixed decay walks exactly the optimizer trajectory
    rng = np.random.default_rng(31)
    model, _, _, n = toy_problem(17)
    feats = rng.standard_normal((n, 2))
    labels = rng.integers(0, 2, size=n)
    dps = DataParamState.initial(n, 2, mode="none")
    dps.lam_wd = 1e-3
    state = optim.make_optimizer("sgd", 0.15, model.values.size)
    theta_meta = model
    ref = model.values.copy()
    for step in range(100):
        pick = rng.integers(0, n, size=4)
        batch = Batch(feats[pick], labels[pick], pick)
        mpick = rng.integers(0, n, size=4)
        mbatch = Batch(feats[mpick], labels[mpick], mpick)
        theta_meta, dps, _ = meta.meta_train_step(
            theta_meta, dps, batch, mbatch, 0.15, 1.0, 0.0
        )
        _, grads = oracles.per_sample_backward(model.with_values(ref), batch)
        ref = optim.step(state, ref, grads.mean(axis=0) + 1e-3 * ref)
        assert np.allclose(theta_meta.values, ref, rtol=1e-12, atol=1e-14)


def test_history_reset_discards_learned_weights():
    model, train, meta_batch, n = toy_problem(19)
    # under reset the committed trajectory ignores data_lr entirely
    paths = []
    for data_lr in (2.0, 50.0):
        theta = model
        dps = DataParamState.initial(n, 2, mode="instance", history_reset=True)
        seen = []
        for _ in range(5):
            assert np.array_equal(dps.w_inst, np.ones(n))
            theta, dps, _ = meta.meta_train_step(
                theta, dps, train, meta_batch, 0.2, data_lr, 0.0
            )
            seen.append(theta.values.copy())
        paths.append(seen)
    for a, b in zip(*paths):
        assert np.array_equal(a, b)


def test_history_reset_permutation_invariance():
    model, train, meta_batch, n = toy_problem(21)
    rng = np.random.default_rng(2)
    theta_a = theta_b = model
    dps_a = DataParamState.initial(n, 2, mode="instance", history_reset=True)
    dps_b = dps_a.copy()
    for step in range(6):
        if step == 3:
            perm = rng.permutation(n)
            dps_b.w_inst[:] = dps_b.w_inst[perm]
        theta_a, dps_a, _ = meta.meta_train_step(
            theta_a, dps_a, train, meta_batch, 0.2, 5.0, 0.0
        )
        theta_b, dps_b, _ = meta.meta_train_step(
            theta_b, dps_b, train, meta_batch, 0.2, 5.0, 0.0
        )
        assert np.array_equal(theta_a.values, theta_b.values)


def test_train_loss_objective_degenerates_weights_to_zero():
    # ablation: descending the weighted train loss in w sends w to 0;
    # the meta objective instead grows weights of aligned samples
    model, train, meta_batch, n = toy_problem(25)
    w = np.ones(train.size)
    for _ in range(400):
        logits = nn.forward(model, train.features)
        sample_losses, _, _ = cross_entropy_batch(logits, train.labels)
        w = np.maximum(0.0, w - 1.0 * sample_losses / train.size)
    assert w.max() == 0.0

    dps = DataParamState.initial(n, 2, mode="instance")
    theta = model
    clean_meta = Batch(train.features, train.labels, train.indices)
    for _ in range(50):
        theta, dps, _ = meta.meta_train_step(
            theta, dps, train, clean_meta, 0.2, 2.0, 0.0
        )
    assert dps.w_inst[train.indices].mean() > 0.5


def test_two_hundred_steps_separate_corrupt_from_clean():
    ds = datagen.make_blobs(3, 40, 4, 0.8, seed=6)
    corrupted, manifest = datagen.corrupt_labels(ds, 0.3, seed=7)
    rng = np.random.default_rng(8)
    manifest_net = nn.build_manifest(4, (16,), 3, "relu")
    theta = nn.init_params(manifest_net, seed=9)
    dps = DataParamState.initial(ds.n, 3, mode="instance")
    dps.lam_wd = 0.0
    b = 16
    for _ in range(200):
        pick = rng.integers(0, ds.n, size=b)
        batch = Batch(corrupted.features[pick], corrupted.labels[pick], pick)
        mpick = rng.integers(0, ds.n, size=b)
        mbatch = Batch(ds.features[mpick], ds.true_labels[mpick], mpick)
        theta, dps, _ = meta.meta_train_step(theta, dps, batch, mbatch, 0.2, 2.0, 0.0)
    corrupt = manifest.corrupt_indices
    clean = np.setdiff1d(np.arange(ds.n), corrupt)
    assert dps.w_inst[corrupt].mean() < dps.w_inst[clean].mean()


def test_effective_weights_by_mode():
    dps = DataParamState.initial(6, 3, mode="instance")
    dps.w_inst[:] = np.arange(6) * 0.1
    dps.w_class[:] = [5.0, 6.0, 7.0]
    labels, indices = np.array([2, 0]), np.array([4, 1])
    inst = meta.effective_weights(dps, labels, indices)
    assert np.allclose(inst, [0.4, 0.1], rtol=1e-12)
    dps.mode = "class"
    assert np.allclose(meta.effective_weights(dps, labels, indices), [7.0, 5.0], rtol=1e-12)
    dps.mode = "none"
    assert np.array_equal(meta.effective_weights(dps, labels, indices), [1.0, 1.0])


# ---- the joint pass against a loop of two passes per step ----


def two_pass_meta_step(
    theta, dps, train_batch, meta_batch, lr, data_lr, wd_lr, workspace=None, next_batch=None
):
    """The meta step as two separate passes: the train batch at theta, then
    the meta batch at theta'. It ignores the workspace and the next batch,
    and is the reference for the joint pass."""
    train_pass = nn.batch_backward(theta, train_batch)
    weights = meta.effective_weights(dps, train_batch.labels, train_batch.indices)
    step = train_pass.grad_sum(weights)
    step *= lr / train_batch.size
    theta_next = theta.with_values(theta.values - step - lr * dps.lam_wd * theta.values)
    meta_pass = nn.batch_backward(theta_next, meta_batch)
    meta_grad = meta_pass.grad_sum() / meta_batch.size
    empty_ids, empty = np.empty(0, dtype=np.int64), np.empty(0)
    instance_ids, instance_grads = empty_ids, empty
    class_ids, class_grads = empty_ids, empty
    if dps.mode != "none":
        instance_ids = train_batch.indices
        instance_grads = meta.instance_metagrad(train_pass.dots(meta_grad), lr)
    if dps.mode == "class":
        class_ids, class_grads = meta.class_metagrad(
            instance_grads, train_batch.labels, dps.w_class.size
        )
    report = MetaStepReport(
        meta_loss=float(meta_pass.losses.mean()),
        instance_ids=instance_ids,
        per_instance_metagrad=instance_grads,
        class_ids=class_ids,
        per_class_metagrad=class_grads,
        wd_metagrad=meta.wd_metagrad(theta, meta_grad, lr) if dps.wd_learnable else None,
    )
    meta.apply_data_param_update(dps, report, data_lr, wd_lr)
    return theta_next, dps, report


def loop_cfg(**kw):
    """3 classes of 30 points: 66 train rows, so batches of 7 and 32 end
    short, and a 9-row meta set."""
    base = dict(
        hidden=(8, 6), lr=0.1, epochs=3, n_classes=3, per_class=30, dim=4, spread=0.8,
        meta_per_class=3, test_per_class=5, noise_p=0.3, data_lr=1.0, wd_lr=1e-3,
    )
    base.update(kw)
    return config.RunConfig(**base)


def recorded_run(monkeypatch, cfg, step, bundle=None, out_dir=None):
    """Run ``cfg`` with ``step`` as the meta step; returns each step's
    (theta, tables, clamp count, meta loss)."""
    log = []

    def recording(theta, dps, *args):
        theta, dps, report = step(theta, dps, *args)
        log.append((theta.values.copy(), dps.as_tables(), report.clamp_count, report.meta_loss))
        return theta, dps, report

    monkeypatch.setattr(meta, "meta_train_step", recording)
    harness.run_training(cfg, bundle, out_dir)
    return log


def assert_rel_close(got, want):
    scale = np.abs(np.asarray(want)).max(initial=0.0)
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * scale)


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
# mode none takes the meta step only with a learnable decay
@pytest.mark.parametrize(
    "mode, wd_learnable",
    [("instance", False), ("instance", True), ("class", False), ("class", True), ("none", True)],
)
def test_joint_pass_loop_matches_two_pass_loop(
    monkeypatch, batch_size, activation, mode, wd_learnable
):
    cfg = loop_cfg(
        batch_size=batch_size, activation=activation, mode=mode, wd_learnable=wd_learnable
    )
    shipped = recorded_run(monkeypatch, cfg, meta.meta_train_step)
    reference = recorded_run(monkeypatch, cfg, two_pass_meta_step)
    assert len(shipped) == len(reference) == 3 * -(-66 // batch_size)
    for (theta, tables, clamps, loss), (want_theta, want_tables, want_clamps, want_loss) in zip(
        shipped, reference
    ):
        assert_rel_close(theta, want_theta)
        for name in ("w_inst", "w_class", "lam_wd"):
            assert_rel_close(tables[name], want_tables[name])
        assert clamps == want_clamps
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [1e200, np.finfo(float).max])
@pytest.mark.parametrize("split", ["train", "meta"])
def test_overflow_aborts_where_the_two_pass_loop_does(tmp_path, monkeypatch, split, value):
    # 1e200 overflows the pass after the one that reads it; the largest
    # float in every column overflows the row's own pass, so a train row
    # in the third batch fails inside the joint pass of the step before
    # its own and aborts its own step
    cfg = loop_cfg(batch_size=7, mode="instance", wd_learnable=True)
    position = np.random.default_rng(cfg.seed_shuffle).permutation(66)[2 * 7 + 3]
    outcomes = []
    for name, step in (("joint", meta.meta_train_step), ("two_pass", two_pass_meta_step)):
        bundle = harness.prepare_data(cfg)
        if split == "train":
            bundle.train.features[position] = value
        else:
            bundle.meta.features[0] = value
        with pytest.raises(NumericError) as err:
            recorded_run(monkeypatch, cfg, step, bundle, str(tmp_path / name))
        info = json.loads((tmp_path / name / "run_info.json").read_text())
        model = (tmp_path / name / "model.json").read_bytes()
        outcomes.append((err.value.context, info["last_good_epoch"], model))
    assert outcomes[0] == outcomes[1]
    if split == "train" and value > 1e300:
        assert outcomes[0][0] == {
            "sample_index": int(bundle.train.indices[position]), "epoch": 0
        }


# backward passes of a 3-epoch loop_cfg run per batch size, as
# (meta-driven, optimizer): a meta step's joint pass also serves the next
# step's train pass, so a meta-driven run adds one train-only pass per
# epoch, at its first batch, and one more when the epoch ends short
PASSES = {1: (201, 198), 7: (36, 30), 32: (15, 9), 33: (9, 6)}


@pytest.mark.parametrize("batch_size", sorted(PASSES))
@pytest.mark.parametrize(
    "mode, wd_learnable", [("instance", False), ("class", True), ("none", True), ("none", False)]
)
def test_a_run_takes_one_backward_pass_per_step(monkeypatch, batch_size, mode, wd_learnable):
    cfg = loop_cfg(batch_size=batch_size, mode=mode, wd_learnable=wd_learnable)
    calls = []
    original = nn.unchecked_backward
    monkeypatch.setattr(
        nn, "unchecked_backward", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )
    steps = harness.run_training(cfg).counters["steps"]
    short = 66 % batch_size != 0
    assert steps == cfg.epochs * (66 // batch_size + short)
    if cfg.meta_driven:
        assert len(calls) == steps + cfg.epochs * (1 + short) == PASSES[batch_size][0]
    else:
        assert len(calls) == steps == PASSES[batch_size][1]


def steady_state_steps(mode, wd_learnable):
    """(theta, step) after three meta steps on a 16-256-256-10 net, when
    both slots, every row view and a held pass exist; ``step(theta, k)``
    takes step k on with its next batch, in ``step.workspace``."""
    rng = np.random.default_rng(5)
    manifest = nn.build_manifest(16, (256, 256), 10, "relu")
    theta = nn.init_params(manifest, seed=1)
    rows, n = 32, 6 * 32

    def batch(offset):
        pick = np.arange(offset, offset + rows) % n
        return Batch(rng.standard_normal((rows, 16)), rng.integers(0, 10, rows), pick)

    batches = [batch(i * rows) for i in range(6)]
    workspace = meta.Workspace(manifest, rows)
    dps = DataParamState.initial(n, 10, mode=mode, wd_learnable=wd_learnable)
    meta_set = datagen.make_blobs(10, 4, 16, 1.0, seed=2)

    def step(theta, k):
        meta_batch = workspace.gather(meta_set, rng.integers(0, meta_set.n, rows))
        return meta.meta_train_step(
            theta, dps, batches[k], meta_batch, 0.1, 1.0, 1e-3, workspace, batches[k + 1]
        )[0]

    step.workspace = workspace
    for k in range(3):
        theta = step(theta, k)
    return theta, step


STEADY = pytest.mark.parametrize("mode, wd_learnable", [("instance", False), ("class", True)])


@STEADY
def test_steady_state_meta_step_allocates_no_parameter_sized_array(mode, wd_learnable):
    theta, step = steady_state_steps(mode, wd_learnable)
    assert oracles.traced_peak(lambda: step(theta, 3)) < theta.values.nbytes


@STEADY
def test_steady_state_meta_step_builds_no_layer_views(monkeypatch, mode, wd_learnable):
    theta, step = steady_state_steps(mode, wd_learnable)
    calls = []
    for name in ("_layer_blocks", "param_count"):
        original = getattr(nn, name)
        monkeypatch.setattr(
            nn, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    step(step(theta, 3), 4)
    assert calls == []


def factors(backward):
    """A pass's input and layer arrays: the rows it holds in its buffers."""
    return backward.acts + backward.deltas[:-1]


@STEADY
def test_the_next_train_pass_is_handed_on_in_place(monkeypatch, mode, wd_learnable):
    theta, step = steady_state_steps(mode, wd_learnable)
    workspace = step.workspace
    buffers = workspace.buffers
    passes = []
    original = nn.unchecked_backward
    monkeypatch.setattr(
        nn, "unchecked_backward",
        lambda *args, **kw: passes.append(original(*args, **kw)) or passes[-1],
    )
    # the held pass lies after the meta rows, then before them
    for k, before in ((3, False), (4, True)):
        held = workspace.held[2]
        assert workspace.held[3] is before
        owned = [workspace.features, *buffers.outs, *buffers.deltas]
        assert all(any(np.shares_memory(a, b) for b in owned) for a in factors(held))
        kept = [a.copy() for a in (held.losses, *held.acts, *held.deltas)]
        passes.clear()
        theta = step(theta, k)
        # one pass, the joint one, in the same buffers, on rows the held
        # pass does not hold, which keeps its bits through it
        [joint] = passes
        assert joint.buffers is buffers
        assert not any(np.shares_memory(a, b) for a in factors(held) for b in factors(joint))
        after = (held.losses, *held.acts, *held.deltas)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, kept))
