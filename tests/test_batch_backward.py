"""Differential tests of the fused backward pass that every training step
runs (``nn.batch_backward`` and the meta step built on it) against the
per-sample gradient matrix of ``oracles.per_sample_backward``, plus a
forward-mode tangent oracle for the per-row dot products.

Errors are measured against the magnitude of the terms being summed:
for ``sum_i w_i g_i`` the scale of a component is ``sum_i |w_i g_ij|``,
and for ``<g_i, v>`` it is ``||g_i|| ||v||``. That keeps the 1e-12 bound
meaningful when a sum cancels to nearly zero.

A pass into reused ``nn.PassBuffers`` must equal a fresh pass bit for
bit, and a meta step in a reused ``meta.Workspace`` must equal one
without.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metasched import analysis, losses, meta, nn
from metasched.errors import NumericError, ShapeError
from metasched.meta import DataParamState
from metasched.nn import Batch, LayerSpec

import oracles

REL = 1e-12
# a fixed example sequence keeps the suite reproducible from run to run
FIXED = {"deadline": None, "derandomize": True, "max_examples": 8}
N_POOL = 160
# every batch size and activation is run; hypothesis draws the rest
NETS = pytest.mark.parametrize(
    "b, activation", list(itertools.product((1, 7, 32, 128), nn.ACTIVATIONS))
)


@st.composite
def problems(draw, b, activation):
    """A random net (1 to 3 hidden layers) with a train and a meta batch
    of size b, no ReLU pre-activation within 1e-6 of its kink."""
    in_dim = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = nn.init_params(
        nn.build_manifest(in_dim, hidden, k, activation), seed=int(rng.integers(2**31))
    )
    # non-zero biases so hidden units are not all centred on the kink
    model = model.with_values(model.values + 0.1 * rng.standard_normal(model.values.size))
    batches = []
    for _ in range(2):
        feats = rng.standard_normal((b, in_dim))
        assume(analysis._relu_safe(model, feats, margin=1e-6))
        batches.append(
            Batch(feats, rng.integers(0, k, size=b), rng.choice(N_POOL, b, replace=False))
        )
    return model, batches[0], batches[1], rng


def assert_sum_close(got, weights, grads):
    want = weights @ grads
    scale = np.abs(weights) @ np.abs(grads)
    assert np.all(np.abs(got - want) <= REL * scale + 1e-300)


def assert_dots_close(got, grads, v):
    want = grads @ v
    scale = np.linalg.norm(grads, axis=1) * np.linalg.norm(v)
    assert np.all(np.abs(got - want) <= REL * scale + 1e-300)


def temperature_oracle(model, batch, sigma):
    """Per-sample gradient rows of the temperature loss, from one scalar
    ``temperature_ce`` call per row."""
    outs = nn.PassBuffers(model.manifest, batch.size).outs
    acts = nn._forward_cache(model, model.layers, batch.features, outs)
    dz = np.array([
        oracles.temperature_ce(z, int(y), s)[1]
        for z, y, s in zip(acts[-1], batch.labels, sigma)
    ])
    return oracles.per_sample_grads_from_dz(model, acts, dz)


def tangent_dots(model, batch, v, sigma=None):
    """<g_i, v> as d/de loss_i(theta + e v), by one forward pass carrying
    tangents (the R-operator); no backward pass is involved."""
    a = batch.features
    da = np.zeros_like(a)
    blocks = nn._layer_blocks(model.manifest, v)
    for spec, (w, b), (v_w, v_b) in zip(model.manifest, model.layers, blocks):
        s = a @ w.T + b
        ds = da @ w.T + a @ v_w.T + v_b
        if spec.activation == "relu":
            a, da = np.maximum(s, 0.0), (s > 0.0) * ds
        elif spec.activation == "tanh":
            a = np.tanh(s)
            da = (1.0 - a * a) * ds
        else:
            a, da = s, ds
    _, dz, _ = losses.cross_entropy_batch(a, batch.labels, sigma)
    return (dz * da).sum(axis=1)


@NETS
@settings(**FIXED)
@given(data=st.data())
def test_grad_sum_and_dots_match_per_sample_rows(b, activation, data):
    model, batch, _, rng = data.draw(problems(b, activation))
    backward = nn.batch_backward(model, batch)
    sample_losses, grads = oracles.per_sample_backward(model, batch)
    assert np.array_equal(backward.losses, sample_losses)
    # replay schedules hold clamped zeros; meta steps hold any non-negative rate
    weights = rng.uniform(0.0, 2.0, size=batch.size)
    weights[rng.random(batch.size) < 0.2] = 0.0
    assert_sum_close(backward.grad_sum(weights), weights, grads)
    assert_sum_close(backward.grad_sum(), np.ones(batch.size), grads)
    v = rng.standard_normal(model.values.size)
    assert_dots_close(backward.dots(v), grads, v)
    # one row's sum is that row's gradient: the analytic side of gradcheck
    s = int(rng.integers(batch.size))
    assert_sum_close(backward.rows(s, s + 1).grad_sum(), np.eye(batch.size)[s], grads)


@NETS
@settings(**FIXED)
@given(data=st.data())
def test_meta_step_matches_per_sample_oracle(b, activation, data):
    model, train, meta_batch, rng = data.draw(problems(b, activation))
    for mode, wd_learnable in itertools.product(meta.META_MODES, (False, True)):
        check_meta_step(model, train, meta_batch, rng, mode, wd_learnable)


def check_meta_step(model, train, meta_batch, rng, mode, wd_learnable):
    k = model.manifest[-1].out_dim
    dps = DataParamState.initial(N_POOL, k, mode=mode, wd_learnable=wd_learnable)
    dps.w_inst[:] = rng.uniform(0.0, 2.0, size=N_POOL)
    dps.w_class[:] = rng.uniform(0.0, 2.0, size=k)
    dps.lam_wd = float(rng.choice([0.0, 1e-3]))
    lr = float(rng.uniform(0.05, 0.5))
    theta_next, _, report = meta.meta_train_step(model, dps, train, meta_batch, lr, 0.0, 0.0)

    _, grads = oracles.per_sample_backward(model, train)
    w_eff = meta.effective_weights(dps, train.labels, train.indices)
    want = model.values - (lr / train.size) * (w_eff @ grads) - lr * dps.lam_wd * model.values
    scale = (lr / train.size) * (np.abs(w_eff) @ np.abs(grads)) + np.abs(model.values)
    assert np.all(np.abs(theta_next.values - want) <= REL * scale)

    meta_losses, meta_grads = oracles.per_sample_backward(theta_next, meta_batch)
    assert report.meta_loss == pytest.approx(meta_losses.mean(), rel=REL, abs=0)
    meta_grad = meta_grads.mean(axis=0)
    ones = np.full(meta_batch.size, 1.0 / meta_batch.size)
    meta_pass = nn.batch_backward(theta_next, meta_batch)
    assert_sum_close(meta_pass.grad_sum() / meta_batch.size, ones, meta_grads)

    # per-component magnitude of the summed meta gradient terms
    meta_scale = np.abs(meta_grads).mean(axis=0)
    if wd_learnable:
        want_wd = meta.wd_metagrad(model, meta_grad, lr)
        wd_scale = lr * meta_scale @ np.abs(model.values)
        assert abs(report.wd_metagrad - want_wd) <= REL * wd_scale
    else:
        assert report.wd_metagrad is None
    if mode == "none":
        assert report.per_instance_metagrad.size == 0 and report.class_ids.size == 0
        return
    inst_scale = (lr / train.size) * np.linalg.norm(grads, axis=1) * np.linalg.norm(meta_scale)
    want_inst = -(lr / train.size) * (grads @ meta_grad)
    assert np.array_equal(report.instance_ids, train.indices)
    assert np.all(np.abs(report.per_instance_metagrad - want_inst) <= REL * inst_scale)
    if mode == "class":
        assert np.array_equal(report.class_ids, np.unique(train.labels))
        for c, got in zip(report.class_ids, report.per_class_metagrad):
            members = train.labels == c
            assert abs(got - want_inst[members].sum()) <= REL * inst_scale[members].sum()
    else:
        assert report.class_ids.size == 0


@NETS
@settings(**FIXED)
@given(data=st.data())
def test_temperature_pass_matches_scalar_rows(b, activation, data):
    model, batch, _, rng = data.draw(problems(b, activation))
    k = model.manifest[-1].out_dim
    logits = nn.forward(model, batch.features)
    for mode in meta.TEMPERATURE_MODES:
        dps = DataParamState.initial(N_POOL, k, temperature_mode=mode)
        if dps.sigma_class is not None:
            dps.sigma_class[:] = rng.uniform(0.02, 3.0, size=k)
        if dps.sigma_inst is not None:
            low = -0.5 if mode == "joint" else 0.02
            dps.sigma_inst[:] = rng.uniform(low, 3.0, size=N_POOL)
        sigma, _ = meta.effective_temperatures(dps, batch.labels, batch.indices)
        backward = nn.batch_backward(model, batch, sigma)
        want_losses, _, want_dsigma = losses.cross_entropy_batch(logits, batch.labels, sigma)
        assert np.array_equal(backward.losses, want_losses)
        assert np.array_equal(backward.dsigma, want_dsigma)
        grads = temperature_oracle(model, batch, sigma)
        assert_sum_close(backward.grad_sum(), np.ones(batch.size), grads)


@NETS
@settings(**FIXED)
@given(data=st.data())
def test_dots_match_forward_mode_tangents(b, activation, data):
    model, batch, _, rng = data.draw(problems(b, activation))
    v = rng.standard_normal(model.values.size)
    for sigma in (None, rng.uniform(0.1, 3.0, size=batch.size)):
        got = nn.batch_backward(model, batch, sigma).dots(v)
        want = tangent_dots(model, batch, v, sigma)
        # the per-sample rows give the scale of each row's terms
        if sigma is None:
            _, grads = oracles.per_sample_backward(model, batch)
        else:
            grads = temperature_oracle(model, batch, sigma)
        scale = np.linalg.norm(grads, axis=1) * np.linalg.norm(v)
        assert np.all(np.abs(got - want) <= REL * scale + 1e-300)


def test_dots_rejects_wrong_length():
    model = nn.init_params(nn.build_manifest(2, (3,), 2, "tanh"), seed=0)
    batch = Batch(np.ones((2, 2)), np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ShapeError):
        nn.batch_backward(model, batch).dots(np.ones(model.values.size + 1))


def bad_feature_batch():
    manifest = (LayerSpec(2, 4, "tanh"), LayerSpec(4, 2, "identity"))
    model = nn.init_params(manifest, seed=1)
    feats = np.array([[1.0, 1.0], [np.inf, 0.0], [np.nan, 0.0]])
    return model, Batch(feats, np.array([0, 1, 0]), np.array([4, 17, 9]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tempered", [False, True])
def test_non_finite_feature_row_names_its_sample(tempered):
    model, batch = bad_feature_batch()
    sigma = np.full(batch.size, 0.5) if tempered else None
    with pytest.raises(NumericError) as err:
        nn.batch_backward(model, batch, sigma)
    assert err.value.context["sample_index"] == 17


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_meta_step_names_the_non_finite_train_row():
    model, batch = bad_feature_batch()
    clean = Batch(np.ones((3, 2)), np.array([0, 1, 0]), np.array([0, 1, 2]))
    dps = DataParamState.initial(20, 2, mode="instance")
    with pytest.raises(NumericError) as err:
        meta.meta_train_step(model, dps, batch, clean, 0.1, 1.0, 0.0)
    assert err.value.context["sample_index"] == 17


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_overflow_from_finite_factors_is_caught():
    # loss, activations and deltas are finite, but delta * input is not
    manifest = (LayerSpec(1, 1, "identity"), LayerSpec(1, 2, "identity"))
    model = nn.ParamVector(np.array([1e-300, 0.0, 1e150, 0.0, 0.0, 0.0]), manifest)
    batch = Batch(np.array([[1.0], [1e200]]), np.array([0, 1]), np.array([4, 17]))
    for backward in (oracles.per_sample_backward, nn.batch_backward):
        with pytest.raises(NumericError) as err:
            backward(model, batch)
        assert err.value.context["sample_index"] == 17


def reference_factors(model, batch, sigma=None):
    """Losses, temperature derivatives, layer inputs and deltas computed
    with every pre-activation kept, the ReLU mask read from ``s > 0`` and
    identity layers scaled by ones."""
    layers = model.layers
    acts, preacts = [batch.features], []
    for spec, (w, b) in zip(model.manifest, layers):
        s = acts[-1] @ w.T + b
        preacts.append(s)
        if spec.activation == "relu":
            acts.append(np.maximum(s, 0.0))
        elif spec.activation == "tanh":
            acts.append(np.tanh(s))
        else:
            acts.append(s)
    sample_losses, dz, dsigma = losses.cross_entropy_batch(acts[-1], batch.labels, sigma)
    deltas = [dz]
    for li in range(len(layers) - 1, 0, -1):
        activation, s = model.manifest[li - 1].activation, preacts[li - 1]
        if activation == "relu":
            slope = (s > 0.0).astype(np.float64)
        elif activation == "tanh":
            slope = 1.0 - acts[li] * acts[li]
        else:
            slope = np.ones_like(s)
        deltas.append((deltas[-1] @ layers[li][0]) * slope)
    return sample_losses, dsigma, acts[:-1], deltas[::-1]


def reference_bad_rows(sample_losses, dsigma, acts, deltas):
    """The exact per-row finiteness test: loss and temperature derivative
    finite, and max|d_l[i]| * max|a_l[i]| finite on every layer."""
    ok = np.isfinite(sample_losses)
    if dsigma is not None:
        ok &= np.isfinite(dsigma)
    for a, d in zip(acts, deltas):
        ok &= np.isfinite(np.abs(d).max(axis=1) * np.abs(a).max(axis=1))
    return ~ok


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_factors(backward, reference):
    sample_losses, dsigma, acts, deltas = reference
    assert same_bits(backward.losses, sample_losses)
    assert (backward.dsigma is None) == (dsigma is None)
    if dsigma is not None:
        assert same_bits(backward.dsigma, dsigma)
    assert len(backward.acts) == len(acts) and len(backward.deltas) == len(deltas)
    assert all(same_bits(g, w) for g, w in zip(backward.acts, acts))
    assert all(same_bits(g, w) for g, w in zip(backward.deltas, deltas))


# non-finite values fit only in features: a ParamVector rejects them
PLANTED = (np.nan, np.inf, -np.inf, 1e200, -1e200, 3e250, 1e300, 1e-200)


@st.composite
def planted_problems(draw):
    """A small net and batch with one to three extreme values written into
    feature cells or parameters, and a temperature per row half the time."""
    activation = draw(st.sampled_from(nn.ACTIVATIONS))
    in_dim = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    k = draw(st.integers(2, 4))
    b = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    manifest = nn.build_manifest(in_dim, hidden, k, activation)
    values = nn.init_params(manifest, seed=int(rng.integers(2**31))).values
    values = values + 0.1 * rng.standard_normal(values.size)
    feats = rng.standard_normal((b, in_dim))
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.sampled_from(PLANTED))
        if not np.isfinite(value) or draw(st.booleans()):
            feats[draw(st.integers(0, b - 1)), draw(st.integers(0, in_dim - 1))] = value
        else:
            values[draw(st.integers(0, values.size - 1))] = value
    batch = Batch(feats, rng.integers(0, k, size=b), rng.choice(N_POOL, b, replace=False))
    sigma = rng.uniform(0.1, 3.0, size=b) if draw(st.booleans()) else None
    return nn.ParamVector(values, manifest), batch, sigma


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, derandomize=True, max_examples=300)
@given(problem=planted_problems())
def test_norm_bound_flags_exactly_the_reference_rows(problem):
    model, batch, sigma = problem
    with np.errstate(all="ignore"):
        reference = reference_factors(model, batch, sigma)
        bad = reference_bad_rows(*reference)
        if bad.any():
            with pytest.raises(NumericError) as err:
                nn.batch_backward(model, batch, sigma)
            want = int(batch.indices[np.flatnonzero(bad)[0]])
            assert err.value.context["sample_index"] == want
            assert str(err.value) == f"non-finite loss or gradient for sample index {want}"
        else:
            assert_same_factors(nn.batch_backward(model, batch, sigma), reference)


def test_overflowing_bound_with_finite_rows_passes_unchanged():
    # row 0 has a large delta and a tiny input, row 1 the reverse: every
    # row's gradient is finite, but ||d_0||^2 ||a_0||^2 is not
    manifest = (LayerSpec(1, 1, "identity"), LayerSpec(1, 2, "identity"))
    model = nn.ParamVector(np.array([1e-160, 0.0, 1e150, -1e150, 0.0, 0.0]), manifest)
    batch = Batch(np.array([[1e-150], [1e150]]), np.array([0, 1]), np.array([4, 17]))
    for sigma in (None, np.array([0.5, 2.0])):
        reference = reference_factors(model, batch, sigma)
        assert not reference_bad_rows(*reference).any()
        _, _, acts, deltas = reference
        bound = float(np.vdot(deltas[0], deltas[0])) * float(np.vdot(acts[0], acts[0]))
        assert bound == np.inf
        assert_same_factors(nn.batch_backward(model, batch, sigma), reference)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_relu_mask_from_output_matches_preactivation_sign():
    tiny = np.finfo(np.float64).smallest_subnormal
    s = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 1.0, -1.0]
    )
    a = nn._activate("relu", s.copy())
    assert np.array_equal(a > 0.0, s > 0.0)


# ---- passes into reused buffers (nn.PassBuffers) ----


@st.composite
def buffered_problems(draw):
    """A net, a buffer set of ``rows`` rows, a batch of b <= rows rows (a
    short last batch when b < rows), an earlier full batch that dirties
    the buffers first, and a temperature per row half the time."""
    activation = draw(st.sampled_from(nn.ACTIVATIONS))
    in_dim = draw(st.integers(1, 5))
    hidden = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    k = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 40))
    b = draw(st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    manifest = nn.build_manifest(in_dim, hidden, k, activation)
    model = nn.init_params(manifest, seed=int(rng.integers(2**31)))
    model = model.with_values(model.values + 0.1 * rng.standard_normal(model.values.size))

    def batch(size):
        feats = rng.standard_normal((size, in_dim))
        return Batch(feats, rng.integers(0, k, size=size), rng.choice(N_POOL, size, replace=False))

    sigma = rng.uniform(0.1, 3.0, size=b) if draw(st.booleans()) else None
    return model, nn.PassBuffers(manifest, rows), batch(rows), batch(b), sigma, rng


def passes_agree(got, want, rng):
    """Bit for bit: losses, dsigma, factors, weighted and unit grad_sum, dots."""
    assert same_bits(got.losses, want.losses)
    assert (got.dsigma is None) == (want.dsigma is None)
    if want.dsigma is not None:
        assert same_bits(got.dsigma, want.dsigma)
    assert all(same_bits(g, w) for g, w in zip(got.acts, want.acts))
    assert all(same_bits(g, w) for g, w in zip(got.deltas, want.deltas))
    weights = rng.uniform(0.0, 2.0, size=want.losses.size)
    assert same_bits(got.grad_sum(weights), want.grad_sum(weights))
    assert same_bits(got.grad_sum(), want.grad_sum())
    v = rng.standard_normal(nn.param_count(want.manifest))
    assert same_bits(got.dots(v), want.dots(v))


def snapshot(backward):
    return [np.copy(a) for a in (backward.losses, *backward.acts, *backward.deltas)]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(problem=buffered_problems())
def test_pass_into_reused_buffers_matches_fresh_pass(problem):
    model, buffers, earlier, batch, sigma, rng = problem
    earlier_sigma = None if sigma is None else rng.uniform(0.1, 3.0, size=earlier.size)
    nn.batch_backward(model, earlier, earlier_sigma, buffers).grad_sum(np.ones(earlier.size))
    got = nn.batch_backward(model, batch, sigma, buffers)
    passes_agree(got, nn.batch_backward(model, batch, sigma), rng)
    assert same_bits(nn.forward(model, batch.features, buffers), nn.forward(model, batch.features))
    assert same_bits(nn.forward(model, earlier.features, buffers), nn.forward(model, earlier.features))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(problem=buffered_problems())
def test_train_factors_survive_a_meta_pass_into_the_other_set(problem):
    model, train_buffers, _, train, _, rng = problem
    meta_buffers = nn.PassBuffers(model.manifest, train_buffers.rows)
    feats = rng.standard_normal((train.size, model.manifest[0].in_dim))
    meta_batch = Batch(feats, rng.permutation(train.labels), train.indices)
    train_pass = nn.batch_backward(model, train, buffers=train_buffers)
    before = snapshot(train_pass)
    nn.batch_backward(model, meta_batch, buffers=meta_buffers).grad_sum()
    assert all(same_bits(g, w) for g, w in zip(snapshot(train_pass), before))

    k = model.manifest[-1].out_dim
    for mode, wd_learnable in itertools.product(meta.META_MODES, (False, True)):
        runs = []
        used = meta.Workspace(model.manifest, train_buffers.rows)
        # an earlier step leaves the workspace's buffers and slots dirty
        meta.meta_train_step(
            model, DataParamState.initial(N_POOL, k), meta_batch, train, 0.1, 1.0, 0.0, used
        )
        for workspace in (None, used):
            dps = DataParamState.initial(N_POOL, k, mode=mode, wd_learnable=wd_learnable)
            dps.w_inst[:] = np.linspace(0.0, 2.0, N_POOL)
            theta, dps_next, report = meta.meta_train_step(
                model, dps, train, meta_batch, 0.3, 2.0, 1e-3, workspace
            )
            runs.append((
                theta.values, dps_next.w_inst, dps_next.w_class, dps_next.lam_wd,
                report.per_instance_metagrad, report.per_class_metagrad,
                report.meta_loss, report.wd_metagrad,
            ))
        fresh, reused = runs
        assert all(same_bits(g, w) for g, w in zip(reused, fresh))


def test_second_pass_allocates_no_layer_array():
    rng = np.random.default_rng(3)
    for activation in nn.ACTIVATIONS:
        manifest = nn.build_manifest(3, (6, 5), 4, activation)
        model = nn.init_params(manifest, seed=2)
        buffers = nn.PassBuffers(manifest, 8)
        passes = []
        for b in (8, 5):
            batch = Batch(rng.standard_normal((b, 3)), rng.integers(0, 4, b), np.arange(b))
            passes.append(nn.batch_backward(model, batch, buffers=buffers))
        first, second = passes
        # every layer output and hidden delta is the set's memory; the
        # logit delta is the loss's own array
        for li, a in enumerate(second.acts[1:]):
            assert np.shares_memory(a, buffers.outs[li])
            assert np.shares_memory(a, first.acts[li + 1])
        for li, d in enumerate(second.deltas[:-1]):
            assert np.shares_memory(d, buffers.deltas[li])
            assert np.shares_memory(d, first.deltas[li])
        # grad_sum and dots leave their per-layer products in the scratch
        weights = rng.uniform(0.5, 2.0, size=5)
        second.grad_sum(weights)
        for li, d in enumerate(second.deltas):
            assert same_bits(buffers.scratch[li + 1][:5], d * weights[:, None])
        v = rng.standard_normal(model.values.size)
        second.dots(v)
        blocks = nn._layer_blocks(manifest, v)
        for li, ((v_w, _), a, d) in enumerate(zip(blocks, second.acts, second.deltas)):
            assert same_bits(buffers.scratch[li][:5], (d @ v_w) * a)


def test_forward_streams_rows_through_the_buffers():
    rng = np.random.default_rng(4)
    manifest = nn.build_manifest(3, (6, 5), 4, "tanh")
    model = nn.init_params(manifest, seed=2)
    buffers = nn.PassBuffers(manifest, 8)
    feats = rng.standard_normal((21, 3))
    logits = nn.forward(model, feats, buffers)
    assert logits.shape == (21, 4)
    assert not np.shares_memory(logits, buffers.outs[-1])
    # the set holds the hidden outputs of the last block, rows 16 to 20
    outs = nn.PassBuffers(manifest, 5).outs
    last = nn._forward_cache(model, model.layers, feats[16:], outs)
    assert same_bits(buffers.outs[0][:5], last[1]) and same_bits(buffers.outs[1][:5], last[2])
    assert np.allclose(logits, nn.forward(model, feats), rtol=1e-12, atol=0)
    assert nn.forward(model, feats[:0], buffers).shape == (0, 4)
    with pytest.raises(ShapeError, match="layer 0"):
        nn.forward(model, np.ones((2, 5)), buffers)


def test_pass_larger_than_its_buffers_is_a_shape_error():
    manifest = nn.build_manifest(2, (3,), 2, "relu")
    model = nn.init_params(manifest, seed=0)
    buffers = nn.PassBuffers(manifest, 4)
    batch = Batch(np.ones((5, 2)), np.zeros(5), np.arange(5))
    with pytest.raises(ShapeError, match="5 rows do not fit pass buffers of 4 rows"):
        nn.batch_backward(model, batch, buffers=buffers)
