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
"""

from __future__ import annotations

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
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        expected = param_count(manifest)
        if values.shape != (expected,):
            raise ShapeError(
                f"parameter vector has shape {values.shape}, manifest predicts ({expected},)"
            )
        if not np.isfinite(values).all():
            raise NumericError("non-finite model parameter")

    def with_values(self, values):
        return ParamVector(values, self.manifest)


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


def _apply_activation(name, s):
    if name == "identity":
        return s
    if name == "relu":
        return np.maximum(s, 0.0)
    return np.tanh(s)


def _activation_grad(name, s, a):
    # derivative wrt the pre-activation; relu uses 0 at exactly 0
    if name == "identity":
        return np.ones_like(s)
    if name == "relu":
        return (s > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward_cache(model, features):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.manifest[0].in_dim:
        raise ShapeError(
            f"layer 0 expects in_dim {model.manifest[0].in_dim}, features have {x.shape[1]}"
        )
    acts = [x]
    preacts = []
    for w, b in unflatten(model):
        s = acts[-1] @ w.T + b
        preacts.append(s)
        acts.append(_apply_activation(model.manifest[len(preacts) - 1].activation, s))
    return acts, preacts


def forward(model, features):
    """Logits for a batch of feature rows. Pure; no mutation."""
    acts, _ = _forward_cache(model, features)
    return acts[-1]


def _deltas(model, acts, preacts, dz):
    """Per-layer output deltas: row i of ``deltas[l]`` is d(loss_i)/d(s_l)
    for layer l's pre-activation s_l, given the logit gradients ``dz``."""
    layers = unflatten(model)
    deltas = [dz]
    for li in range(len(layers) - 1, 0, -1):
        w, _ = layers[li]
        prev_spec = model.manifest[li - 1]
        deltas.append(
            (deltas[-1] @ w)
            * _activation_grad(prev_spec.activation, preacts[li - 1], acts[li])
        )
    return deltas[::-1]


def _raise_at_row(bad, indices):
    row = int(np.flatnonzero(bad).min())
    raise NumericError(
        f"non-finite loss or gradient for sample index {int(indices[row])}",
        sample_index=int(indices[row]),
    )


@dataclass(frozen=True)
class BatchBackward:
    """One batch's backward pass, kept per layer rather than per sample.

    ``acts[l]`` is the input of layer l (B x in_dim) and ``deltas[l]`` the
    derivative of each row's loss with respect to that layer's
    pre-activation (B x out_dim). ``dsigma`` holds each row's temperature
    derivative when the pass used a temperature-scaled loss.
    """

    manifest: tuple
    losses: np.ndarray
    acts: tuple
    deltas: tuple
    dsigma: np.ndarray | None = None

    def grad_sum(self, weights=None):
        """Flat ``sum_i weights[i] * g_i``; unit weights when None.

        Per layer this is ``(d_l * w)^T a_l`` for the weights and the
        column sums of ``d_l * w`` for the bias.
        """
        chunks = []
        for a, d in zip(self.acts, self.deltas):
            if weights is not None:
                d = d * weights[:, None]
            chunks += [(d.T @ a).ravel(), d.sum(axis=0)]
        return np.concatenate(chunks)

    def dots(self, v):
        """``<g_i, v>`` for every row i, as a length-B array.

        Per layer, with V_l and v_b the weight and bias blocks of v, this
        is ``((d_l @ V_l) * a_l).sum(1) + d_l @ v_b``.
        """
        expected = param_count(self.manifest)
        if v.shape != (expected,):
            raise ShapeError(f"vector has shape {v.shape}, parameter count is {expected}")
        out = np.zeros(self.losses.size)
        for (v_w, v_b), a, d in zip(_layer_blocks(self.manifest, v), self.acts, self.deltas):
            out += ((d @ v_w) * a).sum(axis=1) + d @ v_b
        return out


def batch_backward(model, batch, sigma=None):
    """Per-sample losses and the per-layer factors of their gradients.

    With ``sigma``, one effective temperature per row, the loss is the
    temperature-scaled cross-entropy and the result carries each row's
    d(loss)/d(sigma). A row whose loss, temperature derivative or
    parameter gradient is not finite raises NumericError naming its
    sample index, as ``per_sample_backward`` does.
    """
    acts, preacts = _forward_cache(model, batch.features)
    dsigma = None
    if sigma is None:
        sample_losses, dz = losses_mod.cross_entropy_batch(acts[-1], batch.labels)
    else:
        sample_losses, dz, dsigma = losses_mod.temperature_ce_batch(
            acts[-1], batch.labels, sigma
        )
    deltas = _deltas(model, acts, preacts, dz)
    ok = np.isfinite(sample_losses)
    if dsigma is not None:
        ok &= np.isfinite(dsigma)
    for a, d in zip(acts, deltas):
        # outer(d[i], a[i]) is all finite exactly when max|d[i]| * max|a[i]| is
        ok &= np.isfinite(np.abs(d).max(axis=1) * np.abs(a).max(axis=1))
    if not ok.all():
        _raise_at_row(~ok, batch.indices)
    return BatchBackward(model.manifest, sample_losses, tuple(acts[:-1]), tuple(deltas), dsigma)


def per_sample_grads_from_dz(model, acts, preacts, dz):
    """Backpropagate per-row output gradients to per-sample parameter rows."""
    b = dz.shape[0]
    rows = []
    for a, d in zip(acts, _deltas(model, acts, preacts, dz)):
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
    acts, preacts = _forward_cache(model, batch.features)
    sample_losses, dz = losses_mod.cross_entropy_batch(acts[-1], batch.labels)
    grads = per_sample_grads_from_dz(model, acts, preacts, dz)
    bad = ~(np.isfinite(sample_losses) & np.isfinite(grads).all(axis=1))
    if bad.any():
        _raise_at_row(bad, batch.indices)
    return sample_losses, grads
