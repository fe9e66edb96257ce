"""The cross-entropy kernel of every training and evaluation path, with
analytic gradients.

``cross_entropy_batch`` computes row-wise plain cross-entropy without
temperatures and the temperature-scaled loss with one temperature per
row. The single-sample forms it is tested against live in
``tests/oracles.py``.

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

The softmax subtracts the row maximum before exponentiating.

This module is loss math only: it takes each row's temperature as given.
Which table entry a row reads is ``meta.effective_temperatures``, and
the floor ``SIGMA_MIN`` is applied there.
"""

from __future__ import annotations

import numpy as np

SIGMA_MIN = 0.05


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
