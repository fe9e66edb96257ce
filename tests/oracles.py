"""Reference forms for the tests: per-sample gradients and the
single-sample cross-entropy.

``per_sample_backward`` materialises the B x P matrix whose row i is
d(loss_i)/d(theta), one outer product per layer and row. Training and
every check in ``analysis`` read a batch through ``nn.batch_backward``
instead, and never build this matrix; the differential tests and the
acceptance criteria compare that engine against the rows here.

``ce_loss`` and ``temperature_ce`` are the cross-entropy of one logit
vector, plain and temperature-scaled; ``SoftmaxRecord`` carries the
softmax and the renormalized non-target distribution ``q``, and
``predict`` is the argmax. Every training and evaluation path computes
its losses with ``losses.cross_entropy_batch``, and the tests compare
that kernel against these forms row by row.

``traced_peak`` is the allocation measure the memory tests share.

Test modules import this file as ``import oracles``: pytest puts the
directory of a test module without ``__init__.py`` on ``sys.path``.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np

from metasched import losses, nn
from metasched.errors import ShapeError
from metasched.losses import SIGMA_MIN


def per_sample_grads_from_dz(model, acts, dz):
    """Backpropagate per-row output gradients to per-sample parameter rows."""
    b = dz.shape[0]
    _, out, slopes = nn.PassBuffers(model.manifest, b).views(b)
    deltas = nn._deltas(model.manifest, model.layers, acts, dz, out, slopes)
    rows = []
    for a, d in zip(acts, deltas):
        rows.append(np.einsum("bo,bi->boi", d, a).reshape(b, -1))
        rows.append(d)
    return np.concatenate(rows, axis=1)


def per_sample_backward(model, batch):
    """Per-sample cross-entropy losses and exact per-sample parameter
    gradients, as a B x P matrix.

    Row i of the gradient matrix is d(loss_i)/d(theta); the mean over rows
    equals the gradient of the unweighted mean loss. A row whose loss or
    gradient is not finite raises NumericError naming its sample index.
    """
    outs = nn.PassBuffers(model.manifest, batch.size).outs
    acts = nn._forward_cache(model, model.layers, batch.features, outs)
    sample_losses, dz, _ = losses.cross_entropy_batch(acts[-1], batch.labels)
    grads = per_sample_grads_from_dz(model, acts, dz)
    ok = np.isfinite(sample_losses) & np.isfinite(grads).all(axis=1)
    if not ok.all():
        raise nn.sample_error(batch.indices, int(np.argmin(ok)))
    return sample_losses, grads


@dataclass(frozen=True)
class SoftmaxRecord:
    """Intermediates of one temperature-scaled softmax evaluation."""

    z: np.ndarray
    p: np.ndarray
    q: np.ndarray
    y: int
    sigma_eff: float
    clamped: bool


def _check_target(k, y):
    if not 0 <= y < k:
        raise ValueError(f"target class {y} out of range for {k} logits")


def ce_loss(z, y):
    """Stable cross-entropy of a single logit vector.

    Returns ``(loss, dz)`` with ``dz = softmax(z) - onehot(y)``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ShapeError(f"expected a logit vector of length >= 2, got shape {z.shape}")
    _check_target(z.shape[0], y)
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    loss = lse - z[y]
    dz = np.exp(z - lse)
    dz[y] -= 1.0
    return float(loss), dz


def temperature_ce(z, y, sigma_eff):
    """Temperature-scaled cross-entropy with gradients for logits and sigma.

    ``sigma_eff`` below ``SIGMA_MIN`` is clamped (recoverable; the returned
    record carries ``clamped=True``). Returns ``(loss, dz, dsigma, record)``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ShapeError(f"expected a logit vector of length >= 2, got shape {z.shape}")
    _check_target(z.shape[0], y)
    clamped = sigma_eff < SIGMA_MIN
    sigma = max(float(sigma_eff), SIGMA_MIN)

    zs = z / sigma
    m = zs.max()
    lse = m + np.log(np.exp(zs - m).sum())
    loss = lse - zs[y]
    p = np.exp(zs - lse)
    dz = p.copy()
    dz[y] -= 1.0
    dz /= sigma
    dsigma = (z[y] - float(p @ z)) / sigma**2

    # sum the non-target mass directly: 1 - p[y] cancels badly as p[y] -> 1
    not_y = np.arange(p.size) != y
    rest = p[not_y].sum()
    if rest > 1e-300:
        q = p / rest
        q[y] = 0.0
    else:
        q = np.zeros_like(p)
    record = SoftmaxRecord(z=z, p=p, q=q, y=int(y), sigma_eff=sigma, clamped=clamped)
    return float(loss), dz, float(dsigma), record



def predict(z):
    """Predicted class from raw logits: argmax, ties to the lowest index.

    Temperature scaling divides logits by a positive constant and so
    never changes this argmax; inference ignores the sigma tables.
    """
    return int(np.argmax(z))


def traced_peak(call):
    """The most bytes ``call()`` held allocated at once beyond what was
    held before it, as tracemalloc counts them; numpy reports its array
    buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before
