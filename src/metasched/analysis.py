"""Verification oracles and diagnostics.

The central-difference gradient checker is the ground truth for every
analytic gradient in the package: per-sample parameter gradients,
temperature gradients, and the three one-step meta-gradients. Each check
takes its analytic side from the shipped code: a one-row slice of
``nn.batch_backward``, the batch kernel ``losses.cross_entropy_batch``,
and ``meta_train_step`` itself. The per-sample and temperature checks
difference one-row losses of that same kernel, so each compares the
kernel's gradient with the kernel's own loss values. The meta-gradient
checks difference a rollout written out over the weighted gradient sum
of one ``batch_backward`` pass. The other probes quantify qualitative
claims: clean/corrupt weight separation, rate/performance correlation,
and the top of the loss Hessian spectrum, whose gradients come from the
same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from . import meta
from . import nn

REL_TOL = 1e-5
ABS_TOL = 1e-8

# temperature and weight-decay derivatives are checked with the finer step
_STEPS = {"temperature_grads": 1e-6, "wd_metagrad": 1e-6}


@dataclass(frozen=True)
class GradCheckReport:
    target: str
    max_rel_err: float
    max_abs_err: float
    passed: bool
    trials: int


def compare_grads(analytic, numeric, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """Component-wise comparison. A component passes when its relative
    error is within rel_tol or its absolute error within abs_tol.

    Returns (max_rel, max_abs, all_passed). ``max_rel`` is taken over the
    components the relative test judges, those outside abs_tol (0.0 when
    there are none): a component whose gradient is ~1e-10 and whose
    central difference is exactly 0 has relative error 1 but passes.
    """
    analytic = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    if analytic.shape != numeric.shape:
        raise ValueError(f"shape mismatch {analytic.shape} vs {numeric.shape}")
    abs_err = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    with np.errstate(divide="ignore", invalid="ignore"):
        # a NaN scale gives a NaN error, which no test passes
        rel_err = np.where(scale == 0, 0.0, abs_err / scale)
    near = abs_err <= abs_tol
    ok = (rel_err <= rel_tol) | near
    return float(np.max(rel_err[~near], initial=0.0)), float(abs_err.max()), bool(ok.all())


def _random_net(rng, activations=("tanh", "identity")):
    d = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    hidden = [int(rng.integers(2, 7))] if rng.random() < 0.7 else []
    act = str(rng.choice(activations))
    manifest = nn.build_manifest(d, hidden, k, activation=act)
    model = nn.init_params(manifest, seed=int(rng.integers(0, 2**31)))
    return model, d, k


def _random_batch(rng, d, k, size, index_pool):
    indices = rng.choice(index_pool, size=size, replace=False)
    return nn.Batch(
        features=rng.standard_normal((size, d)),
        labels=rng.integers(0, k, size=size),
        indices=indices,
    )


def _relu_safe(model, features, margin=1e-2):
    """True when no ReLU pre-activation sits near its kink, so central
    differences with step 1e-5 stay on one side."""
    a = np.asarray(features, dtype=np.float64)
    for spec, (w, b) in zip(model.manifest, model.layers):
        s = a @ w.T + b
        if spec.activation == "relu" and np.abs(s).min() < margin:
            return False
        a = nn._activate(spec.activation, s)
    return True


def _row_loss(logits, label, sigma=None):
    """The batch kernel's loss of one logit row."""
    return losses_mod.cross_entropy_batch(logits[None, :], [label], sigma)[0][0]


def _sample_loss(model, features_row, label):
    return _row_loss(nn.forward(model, features_row[None, :])[0], label)


def _meta_objective(theta, backward, train_batch, dps, lr, meta_batch):
    """Meta loss after the rollout, written out over the weighted gradient
    sum of ``backward``, the train batch's pass at ``theta``: the
    reference side of the meta-gradient checks."""
    w_eff = meta.effective_weights(dps, train_batch.labels, train_batch.indices)
    rolled = theta.values - (lr / train_batch.size) * backward.grad_sum(w_eff)
    rolled = rolled - lr * dps.lam_wd * theta.values
    # a pass in its own set: ``backward``'s arrays outlive it
    meta_pass = nn.batch_backward(theta.with_values(rolled), meta_batch)
    return float(meta_pass.losses.mean())


def _shipped_report(model, train_batch, meta_batch, dps, lr):
    """The meta-gradients exactly as a training step computes them, on a
    copy of ``dps``: the step updates its state in place."""
    _, _, report = meta.meta_train_step(model, dps.copy(), train_batch, meta_batch, lr, 0.0, 0.0)
    return report


def _check_quadratic(rng, step):
    n = int(rng.integers(2, 6))
    diag = rng.uniform(0.5, 3.0, size=n)
    theta = rng.standard_normal(n)
    analytic = diag * theta
    numeric = np.empty(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        f_plus = 0.5 * (diag * (theta + e) ** 2).sum()
        f_minus = 0.5 * (diag * (theta - e) ** 2).sum()
        numeric[j] = (f_plus - f_minus) / (2 * step)
    return analytic, numeric


def _check_per_sample(rng, step):
    while True:
        model, d, k = _random_net(rng, activations=("tanh", "relu", "identity"))
        b = int(rng.integers(1, 5))
        batch = _random_batch(rng, d, k, b, np.arange(16))
        if _relu_safe(model, batch.features):
            break
    s = int(rng.integers(0, b))
    p = model.values.size
    coords = rng.choice(p, size=min(p, 8), replace=False)
    analytic = nn.batch_backward(model, batch).rows(s, s + 1).grad_sum()[coords]
    numeric = np.empty(len(coords))
    for j, c in enumerate(coords):
        plus = model.values.copy()
        plus[c] += step
        minus = model.values.copy()
        minus[c] -= step
        f_plus = _sample_loss(model.with_values(plus), batch.features[s], batch.labels[s])
        f_minus = _sample_loss(model.with_values(minus), batch.features[s], batch.labels[s])
        numeric[j] = (f_plus - f_minus) / (2 * step)
    return analytic, numeric


def _check_temperature(rng, step):
    k = int(rng.integers(2, 7))
    z = rng.normal(0.0, 2.0, size=k)
    y = int(rng.integers(0, k))
    sigma = float(rng.uniform(0.2, 3.0))
    _, dz, dsigma = losses_mod.cross_entropy_batch(z[None, :], [y], [sigma])

    def loss_at(zv, sv):
        return _row_loss(zv, y, [sv])

    numeric = np.empty(k + 1)
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        numeric[j] = (loss_at(z + e, sigma) - loss_at(z - e, sigma)) / (2 * step)
    numeric[k] = (loss_at(z, sigma + step) - loss_at(z, sigma - step)) / (2 * step)
    return np.concatenate([dz[0], dsigma]), numeric


def _random_meta_problem(rng, mode):
    model, d, k = _random_net(rng)
    b = int(rng.integers(2, 5))
    n_pool = 12
    train_batch = _random_batch(rng, d, k, b, np.arange(n_pool))
    meta_batch = _random_batch(rng, d, k, b, np.arange(n_pool))
    dps = meta.DataParamState.initial(n_pool, k, mode=mode, wd_learnable=True)
    dps.w_inst[:] = rng.uniform(0.3, 1.7, size=n_pool)
    dps.w_class[:] = rng.uniform(0.3, 1.7, size=k)
    dps.lam_wd = float(rng.choice([0.0, 0.01]))
    lr = float(rng.uniform(0.05, 0.5))
    return model, train_batch, meta_batch, dps, lr


def _check_metagrad(rng, step, mode, table):
    """The shipped meta-gradient on one data-parameter table (``w_inst``,
    ``w_class`` or ``lam_wd``) against central differences of the rollout
    objective, one entry at a time, on a ``mode`` problem."""
    model, train_batch, meta_batch, dps, lr = _random_meta_problem(rng, mode)
    report = _shipped_report(model, train_batch, meta_batch, dps, lr)
    if table == "w_inst":
        entries, analytic = train_batch.indices, report.per_instance_metagrad
    elif table == "w_class":
        entries, analytic = report.class_ids, report.per_class_metagrad
    else:
        entries, analytic = [None], np.array([report.wd_metagrad])
    backward = nn.batch_backward(model, train_batch)
    numeric = np.empty(len(entries))
    for pos, entry in enumerate(entries):
        f = []
        for delta in (step, -step):
            moved = dps.copy()
            if entry is None:
                moved.lam_wd += delta
            else:
                getattr(moved, table)[entry] += delta
            f.append(_meta_objective(model, backward, train_batch, moved, lr, meta_batch))
        numeric[pos] = (f[0] - f[1]) / (2 * step)
    return analytic, numeric


_CHECKS = {
    "quadratic_sanity": _check_quadratic,
    "per_sample_grad": _check_per_sample,
    "temperature_grads": _check_temperature,
    "instance_metagrad": lambda rng, step: _check_metagrad(rng, step, "instance", "w_inst"),
    "class_metagrad": lambda rng, step: _check_metagrad(rng, step, "class", "w_class"),
    # the mode is drawn before the problem, which fixes each seed's fixtures
    "wd_metagrad": lambda rng, step: _check_metagrad(
        rng, step, str(rng.choice(["instance", "class", "none"])), "lam_wd"
    ),
}
# in this order for the CLI's choices and ``run_all_gradchecks``
CHECK_TARGETS = tuple(_CHECKS)


def finite_diff_check(target, trials, seed):
    """Central differences on randomized small fixtures; aggregates the
    worst per-component errors over all trials."""
    if target not in _CHECKS:
        raise ValueError(f"unknown gradcheck target {target!r} (have {CHECK_TARGETS})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    step = _STEPS.get(target, 1e-5)
    worst_rel, worst_abs, all_ok = 0.0, 0.0, True
    for _ in range(trials):
        analytic, numeric = _CHECKS[target](rng, step)
        rel, abs_err, ok = compare_grads(analytic, numeric)
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, abs_err)
        all_ok = all_ok and ok
    return GradCheckReport(
        target=target,
        max_rel_err=worst_rel,
        max_abs_err=worst_abs,
        passed=all_ok,
        trials=trials,
    )


def run_all_gradchecks(trials=100, seed=0, targets=None):
    reports = []
    for i, target in enumerate(targets or CHECK_TARGETS):
        reports.append(finite_diff_check(target, trials, seed + i))
    return reports


@dataclass(frozen=True)
class SeparationReport:
    clean_mean: float
    clean_std: float
    corrupt_mean: float
    corrupt_std: float
    auc: float
    n_clean: int
    n_corrupt: int


def _midranks(x):
    """1-based ranks of ``x``, each tie group at its mean rank: the group
    at sorted positions i..j-1 reads 0.5 * (i + j + 1). NaNs form one
    group, as in ``np.unique``."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    # a group starts where the sorted value changes; -0.0 ties with 0.0
    starts = np.ones(s.size, dtype=bool)
    starts[1:] = (s[1:] != s[:-1]) & ~(np.isnan(s[1:]) & np.isnan(s[:-1]))
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=s.size)
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + (first + counts) + 1), counts)
    return ranks


def separation(w_inst, manifest, population=None):
    """Clean/corrupt statistics of the instance weights, with the AUC of
    low weight as a corruption detector (ties counted half)."""
    w_inst = np.asarray(w_inst, dtype=np.float64)
    if population is None:
        population = np.arange(w_inst.size)
    # sorted, each index once, and split by the manifest: the arrays
    # np.unique, intersect1d and setdiff1d give, without their first
    # call's import of numpy.ma
    population = np.sort(np.asarray(population, dtype=np.int64))
    repeat = np.zeros(population.size, dtype=bool)
    repeat[1:] = population[1:] == population[:-1]
    population = population[~repeat]
    is_corrupt = np.isin(population, manifest.corrupt_indices)
    corrupt = population[is_corrupt]
    clean = population[~is_corrupt]
    if corrupt.size == 0:
        raise ValueError("empty corrupt set")
    if clean.size == 0:
        raise ValueError("empty clean set")
    w_corrupt = w_inst[corrupt]
    w_clean = w_inst[clean]
    ranks = _midranks(np.concatenate([w_corrupt, w_clean]))
    rank_sum = ranks[: corrupt.size].sum()
    # Mann-Whitney U of corrupt-above-clean; low weight predicting corrupt
    # is its complement.
    u_above = rank_sum - corrupt.size * (corrupt.size + 1) / 2.0
    auc = 1.0 - u_above / (corrupt.size * clean.size)
    return SeparationReport(
        clean_mean=float(w_clean.mean()),
        clean_std=float(w_clean.std()),
        corrupt_mean=float(w_corrupt.mean()),
        corrupt_std=float(w_corrupt.std()),
        auc=float(auc),
        n_clean=int(clean.size),
        n_corrupt=int(corrupt.size),
    )


def lr_performance_correlation(rates, accuracies):
    """Pearson correlation between per-class rates and per-class accuracy;
    None when either side has zero variance."""
    rates = np.asarray(rates, dtype=np.float64)
    accuracies = np.asarray(accuracies, dtype=np.float64)
    if rates.shape != accuracies.shape:
        raise ValueError(f"length mismatch {rates.shape} vs {accuracies.shape}")
    if rates.size < 3:
        raise ValueError("need at least 3 classes")
    x = rates - rates.mean()
    y = accuracies - accuracies.mean()
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return None
    return float((x @ y) / (nx * ny))


def hessian_top_eigs(grad_fn, theta0, m, tol=1e-6, max_iters=500, seed=0):
    """Top-m eigenvalues of the Hessian behind ``grad_fn`` by power
    iteration with deflation on finite-difference Hessian-vector products.

    Returns (eigenvalues in non-increasing order, converged flags aligned
    with them). A False flag marks an estimate that did not meet the
    relative tolerance within max_iters.
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    n = theta0.size
    if m < 1 or m > n:
        raise ValueError(f"m must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    base_h = 1e-4 * (1.0 + np.linalg.norm(theta0))

    def hvp(v):
        # v arrives normalized, so the step is base_h / ||v|| = base_h
        return (grad_fn(theta0 + base_h * v) - grad_fn(theta0 - base_h * v)) / (
            2.0 * base_h
        )

    eigs, vecs, flags = [], [], []
    for _ in range(m):
        v = rng.standard_normal(n)
        lam = 0.0
        unit = None
        converged = False
        for _ in range(max_iters):
            for u in vecs:
                v = v - (u @ v) * u
            norm = np.linalg.norm(v)
            if norm < 1e-300:
                v = rng.standard_normal(n)
                continue
            unit = v / norm
            hv = hvp(unit)
            # project the image too: we iterate the deflated operator PHP,
            # otherwise earlier eigenvector error floors this residual
            for u in vecs:
                hv = hv - (u @ hv) * u
            lam = float(unit @ hv)
            # residual test; tighter than eigenvalue-change and certifies
            # the Rayleigh quotient to ~residual^2 / spectral gap
            if np.linalg.norm(hv - lam * unit) <= tol * max(1.0, abs(lam)):
                converged = True
                break
            v = hv
        eigs.append(lam)
        vecs.append(unit if unit is not None else v / np.linalg.norm(v))
        flags.append(converged)
    order = np.argsort(eigs)[::-1]
    return (
        np.array([eigs[i] for i in order]),
        [flags[i] for i in order],
    )


def hessian_top_eigs_model(model, batch, m, **kwargs):
    """Spectrum probe for the mean cross-entropy loss of a model over
    ``batch``. Each gradient is one ``nn.batch_backward`` pass, in one
    set of pass buffers for the whole probe, summed over its rows."""
    buffers = nn.PassBuffers(model.manifest, batch.size)

    def grad_fn(values):
        backward = nn.batch_backward(model.with_values(values), batch, buffers=buffers)
        return backward.grad_sum() / batch.size

    return hessian_top_eigs(grad_fn, model.values, m, **kwargs)
