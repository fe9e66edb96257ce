"""Cross-entropy and temperature-scaled cross-entropy, with gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched import losses, meta
from metasched.errors import ShapeError
from metasched.losses import SIGMA_MIN
from metasched.meta import DataParamState

import oracles


def test_ce_symmetric_logits():
    loss, dz = oracles.ce_loss(np.array([0.0, 0.0]), 0)
    assert np.isclose(loss, np.log(2.0), rtol=0, atol=1e-15)
    assert np.allclose(dz, [-0.5, 0.5], rtol=0, atol=1e-15)


def test_ce_closed_form_value():
    # -log softmax([1,0])_0 = log(1 + e^-1)
    loss, _ = oracles.ce_loss(np.array([1.0, 0.0]), 0)
    assert np.isclose(loss, np.log1p(np.exp(-1.0)), rtol=1e-12, atol=0)
    assert round(loss, 6) == 0.313262


def test_ce_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(0, 3, size=5)
        y = int(rng.integers(5))
        l0, dz0 = oracles.ce_loss(z, y)
        l1, dz1 = oracles.ce_loss(z + 117.5, y)
        assert np.isclose(l1, l0, rtol=1e-12, atol=1e-12)
        assert np.allclose(dz1, dz0, rtol=1e-12, atol=1e-12)


def test_ce_target_out_of_range():
    with pytest.raises(ValueError):
        oracles.ce_loss(np.zeros(3), 3)
    with pytest.raises(ValueError):
        oracles.ce_loss(np.zeros(3), -1)


def test_temperature_sigma_one_recovers_plain_ce():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.normal(0, 2, size=int(rng.integers(2, 7)))
        y = int(rng.integers(z.size))
        l0, dz0 = oracles.ce_loss(z, y)
        l1, dz1, dsig, rec = oracles.temperature_ce(z, y, 1.0)
        assert l1 == l0
        assert np.array_equal(dz1, dz0)
        assert np.isfinite(dsig)
        assert not rec.clamped


def test_temperature_closed_form_example():
    loss, dz, dsig, rec = oracles.temperature_ce(np.array([2.0, 0.0]), 0, 2.0)
    e = np.e
    assert np.allclose(rec.p, [e / (e + 1), 1 / (e + 1)], rtol=1e-12, atol=0)
    assert np.isclose(loss, np.log1p(np.exp(-1.0)), rtol=1e-12, atol=0)
    expected_dz = (1 / (e + 1)) / 2.0
    assert np.allclose(dz, [-expected_dz, expected_dz], rtol=1e-12, atol=0)
    # dsigma = ((1 - p_y)/sigma^2) * (z_y - sum_q q_j z_j) = (p_1/4) * 2
    assert np.isclose(dsig, (1 / (e + 1)) / 4.0 * 2.0, rtol=1e-12, atol=0)


def test_temperature_dsigma_sign_example():
    # losing sample: raising sigma flattens the loss, so the gradient is negative
    _, _, dsig, _ = oracles.temperature_ce(np.array([0.0, 3.0]), 0, 1.0)
    assert dsig < 0


def test_temperature_clamps_low_sigma():
    loss, dz, dsig, rec = oracles.temperature_ce(np.array([1.0, 0.0]), 0, 0.001)
    ref = oracles.temperature_ce(np.array([1.0, 0.0]), 0, SIGMA_MIN)
    assert rec.clamped
    assert rec.sigma_eff == SIGMA_MIN
    assert loss == ref[0] and dsig == ref[2]
    assert not ref[3].clamped


def test_softmax_record_invariants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = rng.normal(0, 2, size=int(rng.integers(2, 8)))
        y = int(rng.integers(z.size))
        sigma = float(rng.uniform(0.2, 5.0))
        _, _, _, rec = oracles.temperature_ce(z, y, sigma)
        assert abs(rec.p.sum() - 1.0) <= 1e-12
        assert rec.q[rec.y] == 0.0
        assert abs(rec.q.sum() - 1.0) <= 1e-12
        # q is the non-target mass renormalized: proportional to p off-target
        mask = np.arange(z.size) != rec.y
        assert np.allclose(
            rec.q[mask] * rec.p[mask].sum(), rec.p[mask], rtol=1e-12, atol=1e-300
        )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(100):
        z = rng.normal(0, 2, size=int(rng.integers(2, 6)))
        y = int(rng.integers(z.size))
        sigma = float(rng.uniform(0.2, 5.0))
        _, dz, dsig, _ = oracles.temperature_ce(z, y, sigma)
        for j in range(z.size):
            e = np.zeros(z.size)
            e[j] = h
            num = (
                oracles.temperature_ce(z + e, y, sigma)[0]
                - oracles.temperature_ce(z - e, y, sigma)[0]
            ) / (2 * h)
            assert abs(num - dz[j]) <= 1e-5 * max(1.0, abs(num))
        num_s = (
            oracles.temperature_ce(z, y, sigma + h)[0]
            - oracles.temperature_ce(z, y, sigma - h)[0]
        ) / (2 * h)
        assert abs(num_s - dsig) <= 1e-5 * max(1.0, abs(num_s))


def test_dsigma_sign_law_and_bound():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        z = rng.normal(0, 2, size=int(rng.integers(2, 8)))
        y = int(rng.integers(z.size))
        sigma = float(rng.uniform(0.2, 5.0))
        _, _, dsig, rec = oracles.temperature_ce(z, y, sigma)
        gap = z[y] - float(rec.q @ z)
        if gap > 0:
            assert dsig > 0
        elif gap < 0:
            assert dsig < 0
        bound = (1.0 - rec.p[y]) * np.abs(z).max() * 2.0 / sigma**2
        assert abs(dsig) <= bound + 1e-15


def test_argmax_invariant_under_temperature():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        z = rng.normal(0, 3, size=int(rng.integers(2, 8)))
        sigma = float(rng.uniform(0.05, 20.0))
        assert oracles.predict(z / sigma) == oracles.predict(z)


def resolve_sigma(mode, y, index, dps):
    """Per-row reference for ``meta.effective_temperatures``: the effective
    temperature of one sample from the data-parameter tables.

    ``class`` reads the target class entry, ``instance`` the per-sample
    entry, ``joint`` their sum. Returns ``(sigma_eff, clamped)``; values
    below ``SIGMA_MIN`` are clamped with the flag set.
    """
    if mode == "class":
        table = dps.sigma_class
        if table is None:
            raise ValueError("class temperature requested but sigma_class is missing")
        raw = float(table[y])
    elif mode == "instance":
        table = dps.sigma_inst
        if table is None:
            raise ValueError("instance temperature requested but sigma_inst is missing")
        raw = float(table[index])
    elif mode == "joint":
        if dps.sigma_class is None or dps.sigma_inst is None:
            raise ValueError("joint temperature requires both sigma tables")
        raw = float(dps.sigma_class[y]) + float(dps.sigma_inst[index])
    else:
        raise ValueError(f"unknown temperature mode {mode!r}")
    if raw < SIGMA_MIN:
        return SIGMA_MIN, True
    return raw, False


def test_resolve_sigma_modes():
    dps = DataParamState.initial(
        n_instances=4, n_classes=3, mode="none", temperature_mode="joint"
    )
    sigma, clamped = resolve_sigma("joint", 1, 2, dps)
    assert sigma == 1.0 and not clamped

    dps_inst = DataParamState.initial(
        n_instances=4, n_classes=3, mode="none", temperature_mode="instance"
    )
    dps_inst.sigma_inst[2] = 0.7
    sigma, clamped = resolve_sigma("instance", 0, 2, dps_inst)
    assert sigma == 0.7 and not clamped

    dps.sigma_class[1] = 0.01
    dps.sigma_inst[2] = 0.0
    sigma, clamped = resolve_sigma("joint", 1, 2, dps)
    assert sigma == SIGMA_MIN and clamped


def test_resolve_sigma_missing_table():
    dps = DataParamState.initial(n_instances=2, n_classes=2, mode="none")
    with pytest.raises(ValueError):
        resolve_sigma("class", 0, 0, dps)
    with pytest.raises(ValueError):
        resolve_sigma("bogus", 0, 0, dps)


@pytest.mark.parametrize("mode", ["class", "instance", "joint"])
def test_resolve_sigma_batch_matches_scalar(mode):
    rng = np.random.default_rng(12)
    n, k = 40, 5
    clamps = 0
    for _ in range(50):
        dps = DataParamState.initial(n, k, mode="none", temperature_mode=mode)
        if dps.sigma_class is not None:
            dps.sigma_class[:] = rng.uniform(0.0, 2.0, size=k)
        if dps.sigma_inst is not None:
            # joint-mode instance entries are offsets and may go negative
            low = -1.0 if mode == "joint" else 0.0
            dps.sigma_inst[:] = rng.uniform(low, 2.0, size=n)
        size = int(rng.integers(1, 20))
        labels = rng.integers(0, k, size=size)
        indices = rng.choice(n, size=size, replace=False)
        sigma, clamped = meta.effective_temperatures(dps, labels, indices)
        for row, (y, idx) in enumerate(zip(labels, indices)):
            want, want_clamped = resolve_sigma(mode, int(y), int(idx), dps)
            assert sigma[row] == want
            assert clamped[row] == want_clamped
        clamps += int(clamped.sum())
    assert clamps > 0  # entries below SIGMA_MIN are exercised


def test_batch_losses_match_scalar_calls():
    rng = np.random.default_rng(6)
    logits = rng.normal(0, 2, size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    sigmas = rng.uniform(0.2, 5.0, size=8)

    bl, bdz, _ = losses.cross_entropy_batch(logits, labels)
    tl, tdz, tds = losses.cross_entropy_batch(logits, labels, sigmas)
    for i in range(8):
        l0, dz0 = oracles.ce_loss(logits[i], int(labels[i]))
        assert bl[i] == l0
        assert np.array_equal(bdz[i], dz0)
        l1, dz1, ds1, _ = oracles.temperature_ce(logits[i], int(labels[i]), sigmas[i])
        assert tl[i] == l1
        assert np.array_equal(tdz[i], dz1)
        # dsigma's sum is a BLAS dot in the scalar form and a row sum in the
        # kernel, so the two may differ in the last bits
        assert np.isclose(tds[i], ds1, rtol=1e-12, atol=1e-15)


def test_bad_logit_shape():
    with pytest.raises(ShapeError):
        oracles.temperature_ce(np.zeros((2, 2)), 0, 1.0)
    with pytest.raises(ShapeError):
        oracles.temperature_ce(np.zeros(1), 0, 1.0)


def copying_cross_entropy_batch(logits, labels):
    """The plain batch cross-entropy as it read before it shared the
    temperature kernel: the oracle for that kernel without temperatures."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b = logits.shape[0]
    rows = np.arange(b)
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    losses_ = lse[:, 0] - logits[rows, labels]
    dz = np.exp(logits - lse)
    dz[rows, labels] -= 1.0
    return losses_, dz, None


def copying_temperature_ce_batch(logits, labels, sigma_eff):
    """The temperature batch cross-entropy as it read with a copy of the
    softmax for dz: the oracle for the in-place kernel."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    sigma = np.asarray(sigma_eff, dtype=np.float64)
    b = logits.shape[0]
    rows = np.arange(b)
    zs = logits / sigma[:, None]
    m = zs.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(zs - m).sum(axis=1, keepdims=True))
    losses_ = lse[:, 0] - zs[rows, labels]
    p = np.exp(zs - lse)
    dz = p.copy()
    dz[rows, labels] -= 1.0
    dz /= sigma[:, None]
    dsigma = (logits[rows, labels] - (p * logits).sum(axis=1)) / sigma**2
    return losses_, dz, dsigma


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    rows=st.integers(1, 64),
    k=st.integers(2, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_entropy_batch_matches_copying_oracles(rows, k, data, seed):
    sigma = data.draw(
        st.none() | st.lists(st.floats(SIGMA_MIN, 5.0), min_size=rows, max_size=rows)
    )
    rng = np.random.default_rng(seed)
    # logits are a row slice of a larger array, as a pass buffer hands them over
    buffer = rng.normal(0, 1, size=(rows + 3, k)) * 10.0 ** rng.uniform(-2, 2)
    before = buffer.copy()
    logits = buffer[:rows]
    labels = rng.integers(0, k, size=rows)
    if sigma is None:
        got = losses.cross_entropy_batch(logits, labels)
        want = copying_cross_entropy_batch(logits, labels)
        assert got[2] is None
    else:
        sigma = np.array(sigma)
        got = losses.cross_entropy_batch(logits, labels, sigma)
        want = copying_temperature_ce_batch(logits, labels, sigma)
    for name, g, w in zip(("losses", "dz", "dsigma"), got, want):
        assert w is None or (g.shape == w.shape and g.tobytes() == w.tobytes()), name
    assert buffer.tobytes() == before.tobytes()
