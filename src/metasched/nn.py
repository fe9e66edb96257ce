"""Dense feedforward networks over a flat parameter vector.

Parameters live in one float64 array ordered layer by layer, row-major
weight matrix then bias. The per-sample backward pass is vectorized:
activations are cached on the forward pass and each layer's per-sample
weight gradient is the outer product of that sample's output delta with
its input activation. A naive one-sample-at-a-time loop is kept in the
test suite as an oracle for this path.
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


def unflatten(model):
    """Per-layer (W, b) views into the flat vector. Round-trips exactly."""
    out = []
    pos = 0
    for spec in model.manifest:
        n_w = spec.out_dim * spec.in_dim
        w = model.values[pos : pos + n_w].reshape(spec.out_dim, spec.in_dim)
        pos += n_w
        b = model.values[pos : pos + spec.out_dim]
        pos += spec.out_dim
        out.append((w, b))
    return out


def flatten(layers, manifest):
    """Inverse of unflatten: pack (W, b) pairs into a ParamVector."""
    manifest = tuple(manifest)
    if len(layers) != len(manifest):
        raise ShapeError(f"{len(layers)} layers for a {len(manifest)}-layer manifest")
    chunks = []
    for (w, b), spec in zip(layers, manifest):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != (spec.out_dim, spec.in_dim) or b.shape != (spec.out_dim,):
            raise ShapeError(
                f"layer arrays {w.shape}/{b.shape} do not match spec "
                f"{spec.out_dim}x{spec.in_dim}"
            )
        chunks.append(w.ravel())
        chunks.append(b)
    return ParamVector(np.concatenate(chunks), manifest)


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


def per_sample_grads_from_dz(model, acts, preacts, dz):
    """Backpropagate per-row output gradients to per-sample parameter rows."""
    b = dz.shape[0]
    layers = unflatten(model)
    grads = np.empty((b, param_count(model.manifest)), dtype=np.float64)
    delta = dz
    pos = grads.shape[1]
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        spec = model.manifest[li]
        n_w = spec.out_dim * spec.in_dim
        pos_b = pos - spec.out_dim
        pos_w = pos_b - n_w
        grads[:, pos_b:pos] = delta
        grads[:, pos_w:pos_b] = np.einsum("bo,bi->boi", delta, acts[li]).reshape(b, n_w)
        pos = pos_w
        if li > 0:
            prev_spec = model.manifest[li - 1]
            delta = (delta @ w) * _activation_grad(
                prev_spec.activation, preacts[li - 1], acts[li]
            )
    return grads


def per_sample_backward(model, batch):
    """Per-sample cross-entropy losses and exact per-sample parameter
    gradients.

    Row i of the gradient matrix is d(loss_i)/d(theta); the mean over rows
    equals the gradient of the unweighted mean loss.
    """
    acts, preacts = _forward_cache(model, batch.features)
    sample_losses, dz = losses_mod.cross_entropy_batch(acts[-1], batch.labels)
    grads = per_sample_grads_from_dz(model, acts, preacts, dz)
    if not np.isfinite(sample_losses).all() or not np.isfinite(grads).all():
        bad_loss = np.flatnonzero(~np.isfinite(sample_losses))
        bad_grad = np.flatnonzero(~np.isfinite(grads).all(axis=1))
        bad = np.concatenate([bad_loss, bad_grad])
        row = int(bad.min())
        raise NumericError(
            f"non-finite loss or gradient for sample index {int(batch.indices[row])}",
            sample_index=int(batch.indices[row]),
        )
    return sample_losses, grads


def temperature_backward(model, batch, mode, dps):
    """Per-sample losses, parameter gradients, and temperature gradients.

    ``mode`` names the sigma table(s) in ``dps`` that give each sample's
    effective temperature (see ``losses.resolve_sigma_batch``). Same
    contract as per_sample_backward for the first two outputs; the third
    is each sample's d(loss)/d(sigma_eff) and the fourth marks rows whose
    sigma hit the floor.
    """
    acts, preacts = _forward_cache(model, batch.features)
    sigma, clamped = losses_mod.resolve_sigma_batch(
        mode, batch.labels, batch.indices, dps
    )
    sample_losses, dz, dsigma = losses_mod.temperature_ce_batch(
        acts[-1], batch.labels, sigma
    )
    grads = per_sample_grads_from_dz(model, acts, preacts, dz)
    bad = ~(
        np.isfinite(sample_losses)
        & np.isfinite(dsigma)
        & np.isfinite(grads).all(axis=1)
    )
    if bad.any():
        row = int(np.flatnonzero(bad).min())
        raise NumericError(
            f"non-finite loss or gradient for sample index {int(batch.indices[row])}",
            sample_index=int(batch.indices[row]),
        )
    return sample_losses, grads, dsigma, clamped
