"""Cross-entropy losses and the temperature-scaled cross-entropy with
analytic gradients.

``cross_entropy_batch`` is the one batch kernel for both: row-wise plain
cross-entropy without temperatures, the temperature-scaled loss with one
temperature per row. ``ce_loss`` and ``temperature_ce`` are the
single-sample forms.

The temperature variant divides the logits of a sample by an effective
temperature ``sigma_eff`` before the softmax:

    p = softmax(z / sigma_eff)
    loss = -log p[y]
    dloss/dz_j   = (p_j - 1[j == y]) / sigma_eff
    dloss/dsigma = (z_y - sum_j p_j z_j) / sigma_eff**2

The sigma derivative is algebraically identical to
((1 - p_y) / sigma_eff**2) * (z_y - sum_{j!=y} q_j z_j) with
q_j = p_j / (1 - p_y) the renormalized non-target distribution, but the
form above stays finite as p_y -> 1.

All softmaxes subtract the row maximum before exponentiating.

This module is loss math only: it takes each row's temperature as given.
Which table entry a row reads is ``meta.effective_temperatures``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

SIGMA_MIN = 0.05


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


def cross_entropy_batch(logits, labels, sigma=None):
    """Row-wise stable cross-entropy, temperature-scaled by one effective
    temperature per row when ``sigma`` is given. Returns (losses, dz,
    dsigma), per sample; ``dsigma`` is None without ``sigma``.

    ``logits`` is left as it is; ``dz`` is the softmax array, turned into
    the logit gradient in place once ``dsigma`` has read it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b, k = logits.shape
    # flat position of each row's target entry
    target = np.arange(b) * k + labels
    zs = logits
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        zs = logits / sigma[:, None]
    m = zs.max(axis=1, keepdims=True)
    e = zs - m
    lse = m + np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - zs.take(target)
    p = np.exp(np.subtract(zs, lse, out=e), out=e)
    dsigma = None
    if sigma is not None:
        dsigma = (logits.take(target) - (p * logits).sum(axis=1)) / sigma**2
    dz = p
    dz.ravel()[target] -= 1.0
    if sigma is not None:
        dz /= sigma[:, None]
    return losses, dz, dsigma


def predict(z):
    """Predicted class from raw logits: argmax, ties to the lowest index.

    Temperature scaling divides logits by a positive constant and so
    never changes this argmax; inference ignores the sigma tables.
    """
    return int(np.argmax(z))
