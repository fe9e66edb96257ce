"""Reference optimizers against straight-line update transcriptions."""

import numpy as np
import pytest

from metasched import optim
from metasched.errors import NumericError


def quadratic_transcript(kind, theta0, target, lr, steps, hyper):
    """Independently coded update rules on f = 0.5 * ||x - target||^2."""
    x = theta0.copy()
    n = x.size
    v = np.zeros(n)
    m = np.zeros(n)
    s = np.zeros(n)
    avg = np.zeros(n)
    slow = x.copy()
    iterates = []
    for t in range(1, steps + 1):
        g = x - target
        if kind == "sgd":
            x = x - lr * g
        elif kind == "momentum":
            v = hyper["beta"] * v + g
            x = x - lr * v
        elif kind in ("adam", "adamw"):
            m = hyper["beta1"] * m + (1 - hyper["beta1"]) * g
            s = hyper["beta2"] * s + (1 - hyper["beta2"]) * g * g
            m_hat = m / (1 - hyper["beta1"] ** t)
            s_hat = s / (1 - hyper["beta2"] ** t)
            wd = hyper.get("wd", 0.0) if kind == "adamw" else 0.0
            x = x - lr * (m_hat / (np.sqrt(s_hat) + hyper["eps"]) + wd * x)
        elif kind == "polyak_sgd":
            x = x - lr * g
            avg = avg + (x - avg) / t
        elif kind == "lookahead_sgd":
            x = x - lr * g
            if t % hyper["lookahead_k"] == 0:
                slow = slow + hyper["lookahead_alpha"] * (x - slow)
                x = slow.copy()
        iterates.append(x.copy())
    return x, avg, iterates


@pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
def test_fifty_step_quadratic_transcript(kind):
    rng = np.random.default_rng(17)
    theta0 = rng.standard_normal(6)
    target = rng.standard_normal(6)
    lr = 0.1
    hyper = dict(optim.DEFAULT_HYPER[kind])
    state = optim.make_optimizer(kind, lr, 6)
    x = theta0.copy()
    for _ in range(50):
        x = optim.step(state, x, x - target)
    expected, avg, _ = quadratic_transcript(kind, theta0, target, lr, 50, hyper)
    assert np.allclose(x, expected, rtol=1e-10, atol=1e-12)
    if kind == "polyak_sgd":
        assert np.allclose(optim.polyak_average(state), avg, rtol=1e-10, atol=1e-12)


def test_sgd_example():
    state = optim.make_optimizer("sgd", 0.5, 2)
    out = optim.step(state, np.array([1.0, 1.0]), np.array([0.2, -0.4]))
    assert np.allclose(out, [0.9, 1.2], rtol=0, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    state = optim.make_optimizer("adam", 0.001, 1)
    out = optim.step(state, np.array([0.0]), np.array([4.0]))
    # bias correction makes the first step -lr * g/(|g| + eps') ~ -lr * sign(g)
    assert abs(out[0] + 0.001) <= 1e-6 * 0.001


def test_lookahead_sync_interpolation():
    state = optim.make_optimizer("lookahead_sgd", 1.0, 1, lookahead_k=1)
    # fast weight lands at 2 after the step; slow starts at 0
    out = optim.step(state, np.array([0.0]), np.array([-2.0]))
    assert out[0] == 1.0
    assert state.slots["slow"][0] == 1.0


def test_lookahead_tracks_sgd_between_syncs():
    state = optim.make_optimizer("lookahead_sgd", 0.1, 1)
    plain = optim.make_optimizer("sgd", 0.1, 1)
    x = np.array([1.0])
    ref = np.array([1.0])
    for t in range(1, 5):
        x = optim.step(state, x, np.array([0.3]))
        ref = optim.step(plain, ref, np.array([0.3]))
        assert x[0] == ref[0]  # no sync before step 5


def test_polyak_average_of_fixed_iterates():
    # gradients chosen so the post-step iterates are exactly 1, 2, 3
    state = optim.make_optimizer("polyak_sgd", 1.0, 1)
    x = np.array([0.0])
    for target in (1.0, 2.0, 3.0):
        x = optim.step(state, x, x - np.array([target]))
        assert x[0] == target
    assert optim.polyak_average(state)[0] == 2.0


def test_polyak_single_iterate_is_itself():
    state = optim.make_optimizer("polyak_sgd", 0.5, 2)
    x = optim.step(state, np.array([1.0, 2.0]), np.array([0.2, 0.2]))
    assert np.array_equal(optim.polyak_average(state), x)


def test_polyak_matches_stored_iterate_list():
    rng = np.random.default_rng(9)
    state = optim.make_optimizer("polyak_sgd", 0.05, 4)
    x = rng.standard_normal(4)
    iterates = []
    for _ in range(20):
        x = optim.step(state, x, rng.standard_normal(4))
        iterates.append(x.copy())
    assert np.allclose(
        optim.polyak_average(state), np.mean(iterates, axis=0), rtol=1e-12, atol=1e-15
    )


def test_polyak_zero_steps_rejected():
    state = optim.make_optimizer("polyak_sgd", 0.5, 2)
    with pytest.raises(ValueError):
        optim.polyak_average(state)
    with pytest.raises(ValueError):
        optim.polyak_average(optim.make_optimizer("sgd", 0.5, 2))


def test_adamw_zero_decay_equals_adam():
    rng = np.random.default_rng(21)
    a = optim.make_optimizer("adam", 0.01, 5)
    w = optim.make_optimizer("adamw", 0.01, 5, wd=0.0)
    xa = rng.standard_normal(5)
    xw = xa.copy()
    for _ in range(25):
        g = rng.standard_normal(5)
        xa = optim.step(a, xa, g)
        xw = optim.step(w, xw, g)
        assert np.array_equal(xa, xw)


def test_adamw_decay_is_decoupled():
    # with a zero gradient the adamw step is a pure multiplicative shrink
    state = optim.make_optimizer("adamw", 0.1, 2, wd=0.5)
    out = optim.step(state, np.array([1.0, -2.0]), np.zeros(2))
    assert np.allclose(out, [1.0 - 0.1 * 0.5, -2.0 + 0.1 * 0.5 * 2.0], rtol=1e-12)


def test_step_count_increments():
    state = optim.make_optimizer("momentum", 0.1, 2)
    x = np.zeros(2)
    for i in range(5):
        x = optim.step(state, x, np.ones(2))
        assert state.step_count == i + 1


def test_non_finite_gradient_rejected():
    state = optim.make_optimizer("sgd", 0.1, 2)
    optim.step(state, np.zeros(2), np.ones(2))
    with pytest.raises(NumericError) as err:
        optim.step(state, np.zeros(2), np.array([np.nan, 0.0]))
    assert err.value.context["step_index"] == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        optim.make_optimizer("rmsprop", 0.1, 2)
    with pytest.raises(ValueError):
        optim.make_optimizer("sgd", 0.0, 2)
    with pytest.raises(ValueError):
        optim.make_optimizer("sgd", 0.1, 2, beta=0.5)


@pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
def test_step_into_out_equals_the_allocating_step(kind):
    # bit for bit, and equal to the transcript's expressions evaluated whole;
    # 25 steps pass lookahead's syncs at 5, 10, ..., 25
    rng = np.random.default_rng(31)
    n, lr, steps = 40, 0.05, 25
    theta0 = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    target = rng.standard_normal(n)
    extra = {"wd": 0.01} if kind == "adamw" else {}
    fresh = optim.make_optimizer(kind, lr, n, **extra)
    bound = optim.make_optimizer(kind, lr, n, **extra)
    _, average, iterates = quadratic_transcript(
        kind, theta0, target, lr, steps, {**optim.DEFAULT_HYPER[kind], **extra}
    )
    x, y = theta0.copy(), theta0.copy()
    slots = (np.empty(n), np.empty(n))
    for t in range(steps):
        x = optim.step(fresh, x, x - target)
        out = slots[t % 2]
        assert optim.step(bound, y, y - target, out=out) is out
        y = out
        assert x.tobytes() == y.tobytes() == iterates[t].tobytes()
    if kind == "polyak_sgd":
        assert optim.polyak_average(bound).tobytes() == average.tobytes()
        assert optim.polyak_average(fresh).tobytes() == average.tobytes()


@pytest.mark.parametrize("overlap", ["theta", "grad", "theta view"])
def test_out_sharing_memory_with_an_input_is_rejected(overlap):
    state = optim.make_optimizer("sgd", 0.1, 4)
    theta, grad = np.ones(4), np.ones(4)
    out = {"theta": theta, "grad": grad, "theta view": theta[::-1]}[overlap]
    with pytest.raises(ValueError, match="share memory"):
        optim.step(state, theta, grad, out=out)
    assert state.step_count == 0
    assert np.array_equal(theta, np.ones(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", optim.OPTIMIZER_KINDS)
def test_failed_update_leaves_its_input_intact(kind):
    # every kind steps by about lr * sign(grad) or more: -1e308 - 1e308 is -inf
    state = optim.make_optimizer(kind, 1e308, 3)
    theta, out = np.array([-1e308, -2.0, 0.5]), np.empty(3)
    kept = theta.copy()
    with pytest.raises(NumericError, match="non-finite parameter update") as err:
        optim.step(state, theta, np.ones(3), out=out)
    assert err.value.context["step_index"] == 1
    assert np.array_equal(theta, kept)
