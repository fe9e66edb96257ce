"""Forward pass, per-sample gradients, and parameter packing."""

import numpy as np
import pytest

from metasched import losses, nn
from metasched.errors import NumericError, ShapeError
from metasched.nn import Batch, LayerSpec, ParamVector


def random_model(rng, in_dim=3, hidden=(5,), out_dim=4, activation="tanh"):
    manifest = nn.build_manifest(in_dim, hidden, out_dim, activation)
    return nn.init_params(manifest, seed=int(rng.integers(2**31)))


def random_batch(rng, model, b=6):
    feats = rng.standard_normal((b, model.manifest[0].in_dim))
    labels = rng.integers(0, model.manifest[-1].out_dim, size=b)
    return Batch(feats, labels, np.arange(b))


def test_identity_layer_passes_input_through():
    manifest = (LayerSpec(2, 2, "identity"),)
    model = ParamVector(np.concatenate([np.eye(2).ravel(), np.zeros(2)]), manifest)
    logits = nn.forward(model, np.array([[1.0, 2.0]]))
    assert np.array_equal(logits, np.array([[1.0, 2.0]]))


def test_zero_model_gives_zero_logits():
    manifest = nn.build_manifest(3, (4,), 2, "relu")
    model = ParamVector(np.zeros(nn.param_count(manifest)), manifest)
    logits = nn.forward(model, np.ones((5, 3)))
    assert np.array_equal(logits, np.zeros((5, 2)))


def test_forward_matches_straight_line_reevaluation():
    # two-layer net, fixed seed, input of ones; recompute the chain by hand
    manifest = nn.build_manifest(3, (4,), 2, "tanh")
    model = nn.init_params(manifest, seed=7)
    x = np.ones((1, 3))
    (w0, b0), (w1, b1) = nn.unflatten(model)
    expected = np.tanh(x @ w0.T + b0) @ w1.T + b1
    got = nn.forward(model, x)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_forward_shape_error_names_layer():
    manifest = nn.build_manifest(3, (4,), 2, "relu")
    model = nn.init_params(manifest, seed=0)
    with pytest.raises(ShapeError, match="layer 0"):
        nn.forward(model, np.ones((2, 5)))


def test_manifest_validation():
    with pytest.raises(ShapeError):
        nn.validate_manifest(())
    with pytest.raises(ShapeError, match="does not match"):
        nn.validate_manifest((LayerSpec(2, 3, "relu"), LayerSpec(4, 2, "identity")))
    with pytest.raises(ShapeError, match="identity"):
        nn.validate_manifest((LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "tanh")))


def test_init_bounds_and_zero_biases():
    manifest = nn.build_manifest(6, (8,), 3, "relu")
    model = nn.init_params(manifest, seed=11)
    for (w, b), spec in zip(nn.unflatten(model), manifest):
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        assert np.abs(w).max() <= bound
        assert np.array_equal(b, np.zeros(spec.out_dim))


def test_init_deterministic():
    manifest = nn.build_manifest(4, (5,), 3, "tanh")
    a = nn.init_params(manifest, seed=3)
    b = nn.init_params(manifest, seed=3)
    assert np.array_equal(a.values, b.values)


def test_unflatten_views_cover_the_vector_in_order():
    rng = np.random.default_rng(0)
    model = random_model(rng, hidden=(5, 4))
    blocks = [a.ravel() for layer in nn.unflatten(model) for a in layer]
    assert np.array_equal(np.concatenate(blocks), model.values)
    assert all(np.shares_memory(a, model.values) for a in blocks)


def test_param_count_arithmetic():
    manifest = nn.build_manifest(3, (5,), 2, "relu")
    assert nn.param_count(manifest) == 3 * 5 + 5 + 5 * 2 + 2
    assert nn.init_params(manifest, seed=0).values.size == nn.param_count(manifest)


def test_corrupted_length_rejected():
    manifest = nn.build_manifest(3, (5,), 2, "relu")
    p = nn.param_count(manifest)
    with pytest.raises(ShapeError, match="manifest predicts"):
        ParamVector(np.zeros(p - 1), manifest)
    model = ParamVector(np.zeros(p), manifest)
    with pytest.raises(ShapeError, match="manifest predicts"):
        model.with_values(np.zeros(p + 1))
    with pytest.raises(ShapeError, match="manifest predicts"):
        model.with_values(np.zeros((1, p)))


def test_non_finite_parameters_rejected():
    manifest = (LayerSpec(2, 2, "identity"),)
    values = np.zeros(nn.param_count(manifest))
    values[0] = np.inf
    with pytest.raises(NumericError):
        ParamVector(values, manifest)
    model = ParamVector(np.zeros(values.size), manifest)
    for bad in (np.inf, np.nan):
        values[0] = bad
        with pytest.raises(NumericError):
            model.with_values(values)


def test_with_values_keeps_the_layout():
    manifest = nn.build_manifest(3, (5,), 2, "relu")
    model = nn.init_params(manifest, seed=0)
    moved = model.with_values([float(i) for i in range(model.values.size)])
    assert moved.manifest is model.manifest
    assert moved.values.dtype == np.float64
    assert np.array_equal(moved.values, np.arange(model.values.size))
    assert np.array_equal(nn.unflatten(moved)[1][0], moved.values[20:30].reshape(2, 5))


def test_batch_shape_checks():
    with pytest.raises(ShapeError):
        Batch(np.ones((0, 2)), np.array([]), np.array([]))
    with pytest.raises(ShapeError):
        Batch(np.ones((2, 2)), np.array([0]), np.array([0, 1]))


def test_per_sample_rows_match_single_sample_calls():
    # the vectorized outer-product path against one-at-a-time evaluation
    rng = np.random.default_rng(42)
    for _ in range(5):
        model = random_model(rng, hidden=(5, 4), activation="tanh")
        batch = random_batch(rng, model, b=7)
        losses_all, grads = nn.per_sample_backward(model, batch)
        for i in range(batch.size):
            one = Batch(
                batch.features[i : i + 1], batch.labels[i : i + 1], batch.indices[i : i + 1]
            )
            li, gi = nn.per_sample_backward(model, one)
            # blas association differs across batch shapes; same value to 1e-12
            assert np.isclose(li[0], losses_all[i], rtol=1e-12, atol=0)
            assert np.allclose(gi[0], grads[i], rtol=1e-12, atol=1e-15)


def test_per_sample_gradient_against_manual_chain():
    # single identity layer: dW for CE is (p - onehot) outer x, db is (p - onehot)
    manifest = (LayerSpec(3, 2, "identity"),)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((2, 3))
    model = ParamVector(np.concatenate([w.ravel(), [0.1, -0.2]]), manifest)
    x = rng.standard_normal((4, 3))
    y = np.array([0, 1, 1, 0])
    _, grads = nn.per_sample_backward(model, Batch(x, y, np.arange(4)))
    logits = nn.forward(model, x)
    for i in range(4):
        dz = np.exp(logits[i] - logits[i].max())
        dz /= dz.sum()
        dz[y[i]] -= 1.0
        expected = np.concatenate([np.outer(dz, x[i]).ravel(), dz])
        assert np.allclose(grads[i], expected, rtol=1e-12, atol=1e-15)


def test_duplicated_sample_rows_identical():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    row = rng.standard_normal(3)
    batch = Batch(np.stack([row, row]), np.array([1, 1]), np.array([9, 9]))
    losses_out, grads = nn.per_sample_backward(model, batch)
    assert losses_out[0] == losses_out[1]
    assert np.array_equal(grads[0], grads[1])


def test_mean_of_rows_equals_mean_loss_gradient():
    # linearity: FD on the mean loss vs averaged per-sample rows
    rng = np.random.default_rng(8)
    model = random_model(rng, hidden=(4,), activation="tanh")
    batch = random_batch(rng, model, b=5)
    _, grads = nn.per_sample_backward(model, batch)
    mean_grad = grads.mean(axis=0)

    def mean_loss(values):
        logits = nn.forward(model.with_values(values), batch.features)
        sample_losses, _ = losses.cross_entropy_batch(logits, batch.labels)
        return sample_losses.mean()

    h = 1e-5
    for j in rng.choice(model.values.size, size=10, replace=False):
        e = np.zeros(model.values.size)
        e[j] = h
        num = (mean_loss(model.values + e) - mean_loss(model.values - e)) / (2 * h)
        assert abs(num - mean_grad[j]) <= 1e-6 * max(1.0, abs(num))


def test_backward_deterministic():
    rng = np.random.default_rng(13)
    model = random_model(rng)
    batch = random_batch(rng, model)
    l1, g1 = nn.per_sample_backward(model, batch)
    l2, g2 = nn.per_sample_backward(model, batch)
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_relu_subgradient_zero_at_kink():
    # one relu unit sitting exactly at 0 must contribute no gradient upstream
    manifest = (LayerSpec(1, 1, "relu"), LayerSpec(1, 2, "identity"))
    # layer 0: W=[[1]], b=[0]; layer 1: W=[[1],[0]], b=[0,0]
    model = ParamVector(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]), manifest)
    batch = Batch(np.array([[0.0]]), np.array([0]), np.array([0]))
    _, grads = nn.per_sample_backward(model, batch)
    # first-layer weight and bias gradients are killed by the 0 subgradient
    assert grads[0][0] == 0.0
    assert grads[0][1] == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_carries_sample_index():
    manifest = (LayerSpec(2, 2, "identity"),)
    model = ParamVector(np.concatenate([np.eye(2).ravel(), np.zeros(2)]), manifest)
    feats = np.array([[1.0, 1.0], [np.inf, 0.0]])
    batch = Batch(feats, np.array([0, 0]), np.array([4, 17]))
    with pytest.raises(NumericError) as err:
        nn.per_sample_backward(model, batch)
    assert err.value.context["sample_index"] == 17

