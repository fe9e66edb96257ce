"""Cross-entropy losses and the temperature-scaled cross-entropy with
analytic gradients.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

SIGMA_MIN = 0.05

TEMPERATURE_MODES = ("class", "instance", "joint")


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


def resolve_sigma_batch(mode, labels, indices, dps):
    """Vector of effective temperatures for a batch from the
    data-parameter tables.

    ``class`` reads each row's target class entry, ``instance`` its
    per-sample entry, ``joint`` their sum. Returns (sigmas, clamped)
    where clamped marks the rows below ``SIGMA_MIN``, which read the floor.
    """
    if mode == "class":
        if dps.sigma_class is None:
            raise ValueError("class temperature requested but sigma_class is missing")
        raw = dps.sigma_class[labels]
    elif mode == "instance":
        if dps.sigma_inst is None:
            raise ValueError("instance temperature requested but sigma_inst is missing")
        raw = dps.sigma_inst[indices]
    elif mode == "joint":
        if dps.sigma_class is None or dps.sigma_inst is None:
            raise ValueError("joint temperature requires both sigma tables")
        raw = dps.sigma_class[labels] + dps.sigma_inst[indices]
    else:
        raise ValueError(f"unknown temperature mode {mode!r}")
    clamped = raw < SIGMA_MIN
    return np.where(clamped, SIGMA_MIN, raw), clamped


def cross_entropy_batch(logits, labels):
    """Row-wise stable cross-entropy. Returns (losses, dz), both per sample."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    b = logits.shape[0]
    rows = np.arange(b)
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - logits[rows, labels]
    dz = np.exp(logits - lse)
    dz[rows, labels] -= 1.0
    return losses, dz


def temperature_ce_batch(logits, labels, sigma_eff):
    """Row-wise temperature cross-entropy. Returns (losses, dz, dsigma)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    sigma = np.asarray(sigma_eff, dtype=np.float64)
    b = logits.shape[0]
    rows = np.arange(b)
    zs = logits / sigma[:, None]
    m = zs.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(zs - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - zs[rows, labels]
    p = np.exp(zs - lse)
    dz = p.copy()
    dz[rows, labels] -= 1.0
    dz /= sigma[:, None]
    dsigma = (logits[rows, labels] - (p * logits).sum(axis=1)) / sigma**2
    return losses, dz, dsigma


def predict(z):
    """Predicted class from raw logits: argmax, ties to the lowest index.

    Temperature scaling divides logits by a positive constant and so
    never changes this argmax; inference ignores the sigma tables.
    """
    return int(np.argmax(z))
