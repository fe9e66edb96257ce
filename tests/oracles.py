"""Reference per-sample gradients for the tests.

``per_sample_backward`` materialises the B x P matrix whose row i is
d(loss_i)/d(theta), one outer product per layer and row. Training and
every check in ``analysis`` read a batch through ``nn.batch_backward``
instead, and never build this matrix; the differential tests and the
acceptance criteria compare that engine against the rows here.

Test modules import this file as ``import oracles``: pytest puts the
directory of a test module without ``__init__.py`` on ``sys.path``.
"""

import numpy as np

from metasched import losses, nn


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
