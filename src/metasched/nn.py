"""Dense feedforward networks over a flat parameter vector.

Parameters live in one float64 array ordered layer by layer, row-major
weight matrix then bias. Training reads a batch through one backward
pass, ``batch_backward``, that keeps each layer's input activations
``a_l`` and output deltas ``d_l`` instead of per-sample gradient rows:
sample i's gradient is ``outer(d_l[i], a_l[i])`` for a weight matrix and
``d_l[i]`` for a bias. From those factors ``BatchBackward`` forms a
weighted gradient sum and the per-sample dot products ``<g_i, v>``
without materialising the B x P gradient matrix (Goodfellow, "Efficient
Per-Example Gradient Computations", arXiv 1510.01799). The gradient
checker and the Hessian probe of ``analysis`` read the same pass; the
matrix is built only by the tests, as the reference they compare
against.

Each layer of a pass works in one buffer: the product ``a @ W.T`` takes
the bias and then the activation in place, and no pre-activation is
kept (a ReLU derivative reads its mask from the output). A pass clears
its batch of non-finite values with one norm bound and falls back to the
exact per-row check only when the bound is not finite.

Training passes write into ``PassBuffers``, one set of per-layer arrays
created once per run, with the row views of each pass size and offset
made once, so a steady-state step allocates no layer array; ``forward``
streams any number of rows through a set in blocks of up to its pass
size. A ``batch_backward`` or ``forward`` called without a set makes one
for its rows. A ``ParamVector`` builds its per-layer views once, so a
vector reused across steps is never sliced again.

Lifetime rules:

- The arrays of a ``BatchBackward`` are views into its set's rows and
  stay valid until a pass (or ``forward``) writes those rows again; a
  pass at other rows of the same set leaves them as they are. Scratch is
  consumed within one call.
- The training step's pass rows and parameter slots (``meta.Workspace``)
  follow the step sequence that the ``meta`` module docstring states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def layers(self):
        """Per-layer (W, b) views into ``values``, built on first use. They
        follow in-place writes to ``values``, as a reused slot makes."""
        return _layer_blocks(self.manifest, self.values)


def all_finite(values):
    """Whether every entry of the flat vector is finite.

    A finite dot product with itself clears the vector without a
    temporary; it overflows only with an entry near 1e154 or larger, and
    only then does the exact test run.
    """
    return math.isfinite(float(np.dot(values, values))) or bool(np.isfinite(values).all())


def require_finite(values):
    """Raise NumericError unless every entry of the flat vector is finite."""
    if not all_finite(values):
        raise NumericError("non-finite model parameter")


def _checked_values(values, expected):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (expected,):
        raise ShapeError(
            f"parameter vector has shape {values.shape}, manifest predicts ({expected},)"
        )
    require_finite(values)
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
    """Reusable per-layer arrays for passes of up to ``rows`` rows, each at
    any offset into ``layer_rows`` rows (``rows`` by default).

    ``outs[l]`` holds layer l's output and ``deltas[l]`` its output delta
    (every layer but the last, whose delta is the loss's own array), both
    layer_rows x out_dim. ``scratch[j]`` holds the short-lived products at
    layer boundary j, rows x the width there (``scratch[0]`` the input
    width, ``scratch[l + 1]`` layer l's output width): the activation
    derivative and ``grad_sum``'s weighted deltas of layer l use
    ``scratch[l + 1]``, ``dots``' product ``d_l @ V_l`` uses
    ``scratch[l]``, and each is consumed before the next is made. A pass
    of b rows from row ``start`` uses those rows of each layer array and
    the leading b rows of scratch, through views made once per offset and
    row count (``views``). See the module docstring for how long a pass's
    views stay valid.
    """

    def __init__(self, manifest, rows, layer_rows=None):
        if rows < 1:
            raise ShapeError(f"buffer rows must be positive, got {rows}")
        layer_rows = rows if layer_rows is None else layer_rows
        self.rows = rows
        self.outs = tuple(np.empty((layer_rows, spec.out_dim)) for spec in manifest)
        self.deltas = tuple(np.empty((layer_rows, spec.out_dim)) for spec in manifest[:-1])
        widths = [manifest[0].in_dim] + [spec.out_dim for spec in manifest]
        self.scratch = tuple(np.empty((rows, width)) for width in widths)
        self._views = {}

    def views(self, rows, start=0):
        """(outs, deltas, scratch): rows ``start:start + rows`` of the layer
        arrays and the leading ``rows`` of scratch, made on an offset and
        row count's first use and kept."""
        views = self._views.get((start, rows))
        if views is None:
            if rows > self.rows or start + rows > len(self.outs[0]):
                raise ShapeError(
                    f"{rows} rows do not fit pass buffers of {self.rows} rows at row {start}"
                )
            cut = slice(start, start + rows)
            views = (
                tuple(a[cut] for a in self.outs),
                tuple(a[cut] for a in self.deltas),
                tuple(a[:rows] for a in self.scratch),
            )
            self._views[start, rows] = views
        return views


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

    ``layers`` is ``model.layers``. Layer l's output is ``outs[l]``,
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


def forward(model, features, buffers=None, rows=None):
    """Logits for any number of feature rows, as a fresh array. Pure; no
    mutation of the model.

    The rows go through ``buffers``, or a set made for all of them, in
    blocks of ``rows``, by default the set's: no matrix product is larger
    than a pass of that many rows, no layer array is allocated, and the
    set's hidden layer outputs are overwritten.
    """
    x = _checked_features(model, features)
    if buffers is None:
        buffers = PassBuffers(model.manifest, max(len(x), 1))
    n, size = x.shape[0], buffers.rows if rows is None else rows
    logits = np.empty((n, model.manifest[-1].out_dim))
    layers, hidden = model.layers, buffers.views(size)[0][:-1]
    for start in range(0, n, size):
        if n - start < size:
            hidden = buffers.views(n - start)[0][:-1]
        # the last layer writes its block of the logits directly
        outs = [*hidden, logits[start : start + size]]
        _forward_cache(model, layers, x[start : start + size], outs)
    return logits


def _deltas(manifest, layers, acts, dz, out, slopes):
    """Per-layer output deltas: row i of ``deltas[l]`` is d(loss_i)/d(s_l)
    for layer l's pre-activation s_l, given the logit gradients ``dz``.

    Each delta is scaled in place by its activation's derivative, taken
    from the layer output ``a``: ReLU's mask ``a > 0`` equals ``s > 0``
    for every float, NaN included, so the derivative is 0 at the kink;
    tanh's is ``1 - a^2``; identity layers are left as they are. Hidden
    delta l is written into ``out[l]`` and its derivative into
    ``slopes[l + 1]``, each with ``dz``'s rows.
    """
    deltas = [dz]
    for li in range(len(layers) - 1, 0, -1):
        d = np.matmul(deltas[-1], layers[li][0], out=out[li - 1])
        activation = manifest[li - 1].activation
        a = acts[li]
        slope = slopes[li]
        if activation == "relu":
            d *= np.greater(a, 0.0, out=slope)
        elif activation == "tanh":
            slope = np.multiply(a, a, out=slope)
            d *= np.subtract(1.0, slope, out=slope)
        deltas.append(d)
    return tuple(deltas[::-1])


def sample_error(indices, row):
    """The NumericError for a non-finite ``row``, naming its sample index."""
    index = int(indices[row])
    return NumericError(
        f"non-finite loss or gradient for sample index {index}", sample_index=index
    )


class BatchBackward:
    """One batch's backward pass, kept per layer rather than per sample.

    ``acts[l]`` is the input of layer l (B x in_dim) and ``deltas[l]`` the
    derivative of each row's loss with respect to that layer's
    pre-activation (B x out_dim). ``dsigma`` holds each row's temperature
    derivative when the pass used a temperature-scaled loss.

    The pass holds views into rows of ``buffers``, and its ``grad_sum``
    and ``dots`` use the set's scratch: it is valid only until the next
    pass into the same rows.
    """

    __slots__ = ("manifest", "losses", "acts", "deltas", "buffers", "dsigma")

    def __init__(self, manifest, losses, acts, deltas, buffers, dsigma=None):
        self.manifest = manifest
        self.losses = losses
        self.acts = acts
        self.deltas = deltas
        self.buffers = buffers
        self.dsigma = dsigma

    def _flat(self, v):
        """(values, per-layer views) of a flat vector or a ParamVector."""
        if isinstance(v, ParamVector):
            if v.manifest != self.manifest:
                raise ShapeError("vector is laid out by another manifest")
            return v.values, v.layers
        expected = param_count(self.manifest)
        if v.shape != (expected,):
            raise ShapeError(f"vector has shape {v.shape}, parameter count is {expected}")
        return v, _layer_blocks(self.manifest, v)

    def grad_sum(self, weights=None, out=None):
        """Flat ``sum_i weights[i] * g_i``; unit weights when None.

        The sum is written into ``out``, a ParamVector whose values it
        overwrites (a reused slot), or a fresh array without one, and the
        flat array is returned. Per layer this is ``(d_l * w)^T a_l`` for
        the weights and the column sums of ``d_l * w`` for the bias, each
        written straight into its block of the result.
        """
        if out is None:
            out = np.empty(param_count(self.manifest))
        values, blocks = self._flat(out)
        scratch = self.buffers.views(self.losses.size)[2]
        column = None if weights is None else weights[:, None]
        for (g_w, g_b), a, d, s in zip(blocks, self.acts, self.deltas, scratch[1:]):
            if column is not None:
                d = np.multiply(d, column, out=s)
            np.matmul(d.T, a, out=g_w)
            # the ufunc itself: ndarray.sum adds a Python-level call
            np.add.reduce(d, axis=0, out=g_b)
        return values

    def dots(self, v):
        """``<g_i, v>`` for every row i, as a length-B array; ``v`` is a
        flat array or a ParamVector, whose layer views are reused.

        Per layer, with V_l and v_b the weight and bias blocks of v, this
        is ``((d_l @ V_l) * a_l).sum(1) + d_l @ v_b``.
        """
        _, blocks = self._flat(v)
        rows = self.losses.size
        out = np.zeros(rows)
        scratch = self.buffers.views(rows)[2]
        for (v_w, v_b), a, d, s in zip(blocks, self.acts, self.deltas, scratch):
            dv = np.matmul(d, v_w, out=s)
            dv *= a
            out += np.add.reduce(dv, axis=1) + d @ v_b
        return out

    def first_bad_row(self):
        """The first row whose loss, temperature derivative or parameter
        gradient is not finite, or None.

        The bound ``sum(losses) [+ sum(dsigma)] + sum_l ||d_l||^2 ||a_l||^2``
        carries any NaN or inf in its terms, and the square of every
        gradient entry ``d_l[i, o] * a_l[i, j]`` is at most its layer's
        term. So a finite bound clears the batch with two dot products per
        layer. Only when it is not finite, as it can be with every row
        finite, does the exact per-row test run.
        """
        # Python floats: a bound that overflows becomes inf without a warning
        bound = float(np.add.reduce(self.losses))
        if self.dsigma is not None:
            bound += float(np.add.reduce(self.dsigma))
        for a, d in zip(self.acts, self.deltas):
            bound += float(np.vdot(d, d)) * float(np.vdot(a, a))
        if math.isfinite(bound):
            return None
        ok = np.isfinite(self.losses)
        if self.dsigma is not None:
            ok &= np.isfinite(self.dsigma)
        for a, d in zip(self.acts, self.deltas):
            # outer(d[i], a[i]) is all finite exactly when max|d[i]| * max|a[i]| is
            ok &= np.isfinite(np.abs(d).max(axis=1) * np.abs(a).max(axis=1))
        return None if ok.all() else int(np.argmin(ok))

    def rows(self, start, stop=None):
        """The pass over rows ``start:stop``, as views of this one."""
        cut = slice(start, stop)
        return BatchBackward(
            self.manifest,
            self.losses[cut],
            tuple(a[cut] for a in self.acts),
            tuple(d[cut] for d in self.deltas),
            self.buffers,
            None if self.dsigma is None else self.dsigma[cut],
        )


def unchecked_backward(model, features, labels, sigma=None, buffers=None, start=0):
    """``batch_backward`` over feature and label arrays, without its finite
    check: for a caller that reads ``first_bad_row`` itself, as a pass over
    two batches stacked in one does. The pass writes rows ``start`` on of
    ``buffers``."""
    rows = len(features)
    if buffers is None:
        buffers = PassBuffers(model.manifest, rows)
    outs, deltas, scratch = buffers.views(rows, start)
    acts = _forward_cache(model, model.layers, features, outs)
    sample_losses, dz, dsigma = losses_mod.cross_entropy_batch(acts[-1], labels, sigma)
    hidden = _deltas(model.manifest, model.layers, acts, dz, deltas, scratch)
    return BatchBackward(model.manifest, sample_losses, tuple(acts[:-1]), hidden, buffers, dsigma)


def batch_backward(model, batch, sigma=None, buffers=None):
    """Per-sample losses and the per-layer factors of their gradients.

    With ``sigma``, one effective temperature per row, the loss is the
    temperature-scaled cross-entropy and the result carries each row's
    d(loss)/d(sigma). A row whose loss, temperature derivative or
    parameter gradient is not finite raises NumericError naming its
    sample index. The batch is first cleared by one norm bound over all
    of it; the exact per-row check runs only when that bound is not
    finite (see ``first_bad_row``).
    Each layer's forward output is a single buffer, and no pre-activation
    is kept. Every layer output and hidden delta is a view into
    ``buffers``, a ``PassBuffers`` set of at least the batch's rows (one
    is made without it), valid until its next pass; temporaries use its scratch.
    """
    backward = unchecked_backward(model, batch.features, batch.labels, sigma, buffers)
    row = backward.first_bad_row()
    if row is not None:
        raise sample_error(batch.indices, row)
    return backward

