"""Dense feedforward networks over a flat parameter vector.

Parameters live in one float64 array ordered layer by layer, row-major
weight matrix then bias. Training reads a batch through one backward
pass, ``batch_backward``, that keeps each layer's input activations
``a_l`` and output deltas ``d_l`` instead of per-sample gradient rows:
sample i's gradient is ``outer(d_l[i], a_l[i])`` for a weight matrix and
``d_l[i]`` for a bias. From those factors ``BatchBackward`` forms a
weighted gradient sum and the per-sample dot products ``<g_i, v>``
without materialising the B x P gradient matrix (Goodfellow, "Efficient
Per-Example Gradient Computations", arXiv 1510.01799).

``per_sample_backward`` does materialise that matrix. It is the oracle
for the gradient checker, the Hessian probe and the differential tests,
and no training path calls it.

Each layer of a pass works in one buffer: the product ``a @ W.T`` takes
the bias and then the activation in place, and no pre-activation is
kept (a ReLU derivative reads its mask from the output). A pass clears
its batch of non-finite values with one norm bound and falls back to the
exact per-row check only when the bound is not finite.

Training passes write into ``PassBuffers``, one set of per-layer arrays
created once per run, so a steady-state step allocates no layer array;
``forward`` streams any number of rows through a set in blocks of its
size. A ``batch_backward`` or ``forward`` called without a set makes one
for its rows. Buffer lifetime rule: the arrays of a ``BatchBackward`` are
views into its set and stay valid only until the next pass (or
``forward``) into the same set. A caller that needs two passes alive at
once, as the meta step does, gives each its own set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses as losses_mod
from .errors import NumericError, ShapeError

ACTIVATIONS = ("identity", "relu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "identity"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ShapeError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def size(self):
        return self.out_dim * self.in_dim + self.out_dim


def validate_manifest(manifest):
    if not manifest:
        raise ShapeError("empty layer manifest")
    for i in range(1, len(manifest)):
        if manifest[i].in_dim != manifest[i - 1].out_dim:
            raise ShapeError(
                f"layer {i} in_dim {manifest[i].in_dim} does not match "
                f"layer {i - 1} out_dim {manifest[i - 1].out_dim}"
            )
    if manifest[-1].activation != "identity":
        raise ShapeError("last layer must have identity activation (logits)")


def param_count(manifest):
    return sum(spec.size for spec in manifest)


@dataclass(frozen=True)
class ParamVector:
    """Flat model parameters plus the manifest giving their layout."""

    values: np.ndarray
    manifest: tuple

    def __post_init__(self):
        manifest = tuple(self.manifest)
        object.__setattr__(self, "manifest", manifest)
        validate_manifest(manifest)
        object.__setattr__(self, "values", _checked_values(self.values, param_count(manifest)))

    def with_values(self, values):
        """The same layout over new values. Their shape and finiteness are
        checked; the manifest, already validated, is not."""
        out = object.__new__(ParamVector)
        object.__setattr__(out, "manifest", self.manifest)
        object.__setattr__(out, "values", _checked_values(values, self.values.size))
        return out


def _checked_values(values, expected):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (expected,):
        raise ShapeError(
            f"parameter vector has shape {values.shape}, manifest predicts ({expected},)"
        )
    if not np.isfinite(values).all():
        raise NumericError("non-finite model parameter")
    return values


def build_manifest(in_dim, hidden, out_dim, activation="relu"):
    """Manifest for in_dim -> hidden... -> out_dim with a logits head."""
    dims = [in_dim, *hidden, out_dim]
    specs = []
    for i in range(len(dims) - 1):
        act = activation if i < len(dims) - 2 else "identity"
        specs.append(LayerSpec(dims[i], dims[i + 1], act))
    return tuple(specs)


def init_params(manifest, seed):
    """Seeded init: weights uniform in +-sqrt(6/(in+out)), biases zero."""
    manifest = tuple(manifest)
    validate_manifest(manifest)
    rng = np.random.default_rng(seed)
    chunks = []
    for spec in manifest:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        chunks.append(w.ravel())
        chunks.append(np.zeros(spec.out_dim))
    return ParamVector(np.concatenate(chunks), manifest)


def _layer_blocks(manifest, values):
    """Per-layer (W, b) views into a flat vector laid out by ``manifest``."""
    out = []
    pos = 0
    for spec in manifest:
        n_w = spec.out_dim * spec.in_dim
        w = values[pos : pos + n_w].reshape(spec.out_dim, spec.in_dim)
        pos += n_w
        b = values[pos : pos + spec.out_dim]
        pos += spec.out_dim
        out.append((w, b))
    return out


def unflatten(model):
    """Per-layer (W, b) views into the flat vector."""
    return _layer_blocks(model.manifest, model.values)


@dataclass(frozen=True)
class Batch:
    """A mini-batch with stable dataset indices."""

    features: np.ndarray
    labels: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ShapeError(f"batch features must be 2-D and non-empty, got {self.features.shape}")
        b = self.features.shape[0]
        if self.labels.shape != (b,) or self.indices.shape != (b,):
            raise ShapeError("labels and indices must match the batch size")

    @property
    def size(self):
        return self.features.shape[0]


class PassBuffers:
    """Reusable per-layer arrays for passes of up to ``rows`` rows.

    ``outs[l]`` holds layer l's output and ``deltas[l]`` its output delta
    (every layer but the last, whose delta is the loss's own array), both
    rows x out_dim. ``scratch[j]`` holds the short-lived products at
    layer boundary j, rows x the width there (``scratch[0]`` the input
    width, ``scratch[l + 1]`` layer l's output width): the activation
    derivative and ``grad_sum``'s weighted deltas of layer l use
    ``scratch[l + 1]``, ``dots``' product ``d_l @ V_l`` uses
    ``scratch[l]``, and each is consumed before the next is made. A pass
    of b rows uses the leading b rows of each array. See the module
    docstring for how long a pass's views stay valid.
    """

    def __init__(self, manifest, rows):
        if rows < 1:
            raise ShapeError(f"buffer rows must be positive, got {rows}")
        self.rows = rows
        self.outs = tuple(np.empty((rows, spec.out_dim)) for spec in manifest)
        self.deltas = tuple(np.empty((rows, spec.out_dim)) for spec in manifest[:-1])
        widths = [manifest[0].in_dim] + [spec.out_dim for spec in manifest]
        self.scratch = tuple(np.empty((rows, width)) for width in widths)


def _activate(name, s):
    """Layer output from the pre-activation ``s``, computed in place."""
    if name == "relu":
        np.maximum(s, 0.0, out=s)
    elif name == "tanh":
        np.tanh(s, out=s)
    return s


def _checked_features(model, features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.manifest[0].in_dim:
        raise ShapeError(
            f"layer 0 expects in_dim {model.manifest[0].in_dim}, features have {x.shape[1]}"
        )
    return x


def _forward_cache(model, layers, features, outs):
    """Each layer's input, then the logits: ``acts[l]`` feeds layer l.

    ``layers`` is ``unflatten(model)``. Layer l's output is ``outs[l]``,
    which has the features' row count: it takes ``a @ W.T``, then the
    bias and the activation in place.
    """
    x = _checked_features(model, features)
    acts = [x]
    for spec, (w, b), out in zip(model.manifest, layers, outs):
        s = np.matmul(acts[-1], w.T, out=out)
        s += b
        acts.append(_activate(spec.activation, s))
    return acts


def forward(model, features, buffers=None):
    """Logits for any number of feature rows, as a fresh array. Pure; no
    mutation of the model.

    The rows go through ``buffers``, or a set made for all of them, in
    blocks of its ``rows``: no matrix product is larger than a pass of
    that many rows, no layer array is allocated, and the set's hidden
    layer outputs are overwritten.
    """
    layers = unflatten(model)
    x = _checked_features(model, features)
    if buffers is None:
        buffers = PassBuffers(model.manifest, max(len(x), 1))
    n, size = x.shape[0], buffers.rows
    logits = np.empty((n, model.manifest[-1].out_dim))
    hidden = list(buffers.outs[:-1])
    for start in range(0, n, size):
        if n - start < size:
            hidden = [out[: n - start] for out in hidden]
        # the last layer writes its block of the logits directly
        outs = [*hidden, logits[start : start + size]]
        _forward_cache(model, layers, x[start : start + size], outs)
    return logits


def _deltas(model, layers, acts, dz, buffers):
    """Per-layer output deltas: row i of ``deltas[l]`` is d(loss_i)/d(s_l)
    for layer l's pre-activation s_l, given the logit gradients ``dz``.

    Each delta is scaled in place by its activation's derivative, taken
    from the layer output ``a``: ReLU's mask ``a > 0`` equals ``s > 0``
    for every float, NaN included, so the derivative is 0 at the kink;
    tanh's is ``1 - a^2``; identity layers are left as they are. Each
    delta and derivative is written into ``buffers``.
    """
    rows = dz.shape[0]
    deltas = [dz]
    for li in range(len(layers) - 1, 0, -1):
        d = np.matmul(deltas[-1], layers[li][0], out=buffers.deltas[li - 1][:rows])
        activation = model.manifest[li - 1].activation
        a = acts[li]
        slope = buffers.scratch[li][:rows]
        if activation == "relu":
            d *= np.greater(a, 0.0, out=slope)
        elif activation == "tanh":
            slope = np.multiply(a, a, out=slope)
            d *= np.subtract(1.0, slope, out=slope)
        deltas.append(d)
    return deltas[::-1]


def _raise_at_row(bad, indices):
    row = int(np.flatnonzero(bad).min())
    raise NumericError(
        f"non-finite loss or gradient for sample index {int(indices[row])}",
        sample_index=int(indices[row]),
    )


def _check_finite(sample_losses, dsigma, acts, deltas, indices):
    """Raise NumericError at the first row whose loss, temperature
    derivative or parameter gradient is not finite.

    The bound ``sum(losses) [+ sum(dsigma)] + sum_l ||d_l||^2 ||a_l||^2``
    carries any NaN or inf in its terms, and the square of every gradient
    entry ``d_l[i, o] * a_l[i, j]`` is at most its layer's term. So a
    finite bound clears the batch with two dot products per layer. Only
    when it is not finite, as it can be with every row finite, does the
    exact per-row test run.
    """
    # Python floats: a bound that overflows becomes inf without a warning
    bound = float(sample_losses.sum())
    if dsigma is not None:
        bound += float(dsigma.sum())
    for a, d in zip(acts, deltas):
        bound += float(np.vdot(d, d)) * float(np.vdot(a, a))
    if math.isfinite(bound):
        return
    ok = np.isfinite(sample_losses)
    if dsigma is not None:
        ok &= np.isfinite(dsigma)
    for a, d in zip(acts, deltas):
        # outer(d[i], a[i]) is all finite exactly when max|d[i]| * max|a[i]| is
        ok &= np.isfinite(np.abs(d).max(axis=1) * np.abs(a).max(axis=1))
    if not ok.all():
        _raise_at_row(~ok, indices)


@dataclass(frozen=True)
class BatchBackward:
    """One batch's backward pass, kept per layer rather than per sample.

    ``acts[l]`` is the input of layer l (B x in_dim) and ``deltas[l]`` the
    derivative of each row's loss with respect to that layer's
    pre-activation (B x out_dim). ``dsigma`` holds each row's temperature
    derivative when the pass used a temperature-scaled loss.

    The pass holds views into ``buffers``, and its ``grad_sum`` and
    ``dots`` use the set's scratch: it is valid only until the next pass
    into the same set.
    """

    manifest: tuple
    losses: np.ndarray
    acts: tuple
    deltas: tuple
    buffers: PassBuffers
    dsigma: np.ndarray | None = None

    def grad_sum(self, weights=None):
        """Flat ``sum_i weights[i] * g_i``; unit weights when None.

        Per layer this is ``(d_l * w)^T a_l`` for the weights and the
        column sums of ``d_l * w`` for the bias, each written straight
        into its block of the result.
        """
        out = np.empty(param_count(self.manifest))
        rows = self.losses.size
        blocks = _layer_blocks(self.manifest, out)
        for li, ((g_w, g_b), a, d) in enumerate(zip(blocks, self.acts, self.deltas)):
            if weights is not None:
                d = np.multiply(d, weights[:, None], out=self.buffers.scratch[li + 1][:rows])
            np.matmul(d.T, a, out=g_w)
            d.sum(axis=0, out=g_b)
        return out

    def dots(self, v):
        """``<g_i, v>`` for every row i, as a length-B array.

        Per layer, with V_l and v_b the weight and bias blocks of v, this
        is ``((d_l @ V_l) * a_l).sum(1) + d_l @ v_b``.
        """
        expected = param_count(self.manifest)
        if v.shape != (expected,):
            raise ShapeError(f"vector has shape {v.shape}, parameter count is {expected}")
        rows = self.losses.size
        out = np.zeros(rows)
        blocks = _layer_blocks(self.manifest, v)
        for li, ((v_w, v_b), a, d) in enumerate(zip(blocks, self.acts, self.deltas)):
            dv = np.matmul(d, v_w, out=self.buffers.scratch[li][:rows])
            dv *= a
            out += dv.sum(axis=1) + d @ v_b
        return out


def batch_backward(model, batch, sigma=None, buffers=None):
    """Per-sample losses and the per-layer factors of their gradients.

    With ``sigma``, one effective temperature per row, the loss is the
    temperature-scaled cross-entropy and the result carries each row's
    d(loss)/d(sigma). A row whose loss, temperature derivative or
    parameter gradient is not finite raises NumericError naming its
    sample index, as ``per_sample_backward`` does. The batch is first
    cleared by one norm bound over all of it; the exact per-row check
    runs only when that bound is not finite (see ``_check_finite``).
    Each layer's forward output is a single buffer, and no pre-activation
    is kept. Every layer output and hidden delta is a view into
    ``buffers``, a ``PassBuffers`` set of at least the batch's rows (one
    is made without it), valid until its next pass; temporaries use its scratch.
    """
    layers = unflatten(model)
    rows = batch.size
    if buffers is None:
        buffers = PassBuffers(model.manifest, rows)
    if rows > buffers.rows:
        raise ShapeError(f"{rows} rows do not fit pass buffers of {buffers.rows} rows")
    acts = _forward_cache(model, layers, batch.features, [out[:rows] for out in buffers.outs])
    sample_losses, dz, dsigma = losses_mod.cross_entropy_batch(acts[-1], batch.labels, sigma)
    deltas = _deltas(model, layers, acts, dz, buffers)
    inputs = tuple(acts[:-1])
    _check_finite(sample_losses, dsigma, inputs, deltas, batch.indices)
    return BatchBackward(
        model.manifest, sample_losses, inputs, tuple(deltas), buffers, dsigma
    )


def per_sample_grads_from_dz(model, acts, dz):
    """Backpropagate per-row output gradients to per-sample parameter rows."""
    b = dz.shape[0]
    deltas = _deltas(model, unflatten(model), acts, dz, PassBuffers(model.manifest, b))
    rows = []
    for a, d in zip(acts, deltas):
        rows.append(np.einsum("bo,bi->boi", d, a).reshape(b, -1))
        rows.append(d)
    return np.concatenate(rows, axis=1)


def per_sample_backward(model, batch):
    """Per-sample cross-entropy losses and exact per-sample parameter
    gradients, as a B x P matrix.

    Row i of the gradient matrix is d(loss_i)/d(theta); the mean over rows
    equals the gradient of the unweighted mean loss. This is the oracle
    for ``batch_backward``; training never builds the matrix.
    """
    outs = PassBuffers(model.manifest, batch.size).outs
    acts = _forward_cache(model, unflatten(model), batch.features, outs)
    sample_losses, dz, _ = losses_mod.cross_entropy_batch(acts[-1], batch.labels)
    grads = per_sample_grads_from_dz(model, acts, dz)
    bad = ~(np.isfinite(sample_losses) & np.isfinite(grads).all(axis=1))
    if bad.any():
        _raise_at_row(bad, batch.indices)
    return sample_losses, grads
