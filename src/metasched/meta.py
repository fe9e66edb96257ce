"""One-step-lookahead meta-gradients on per-instance and per-class
learning rates and on the weight-decay coefficient.

A training step writes the next model parameters as an explicit function
of the data parameters:

    theta' = theta - (lr / B) * sum_i w_eff(i) * g_i - lr * lam_wd * theta

with g_i the per-sample gradient of sample i and w_eff the instance or
class multiplier. Differentiating the meta-set loss at theta' through
this expression gives, per sampled instance,

    d L_meta / d w_i = -(lr / B) * <dL_meta/dtheta', g_i>

and for a class, the sum of its batch members' instance terms. The
per-sample gradients are treated as constants in w, which is exact for
the one-step rollout; no second-order term exists. The weight-decay
coefficient enters the rollout linearly, so

    d L_meta / d lam_wd = -lr * <dL_meta/dtheta', theta>.

A step runs one backward pass over the train batch and one over the meta
batch (``nn.batch_backward``). The meta pass gives only the mean gradient
dL_meta/dtheta'. The train pass gives the weighted gradient sum for the
rollout and, from the same cached factors, each row's dot product with
that meta gradient. No per-sample gradient matrix is built.

Data parameters are updated in place by plain SGD on these
meta-gradients and clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses as losses_mod
from . import nn
from .errors import ShapeError

META_MODES = ("instance", "class", "none")


@dataclass
class DataParamState:
    """Learnable per-instance/per-class rate multipliers, the weight-decay
    coefficient, and optional temperature tables."""

    w_inst: np.ndarray
    w_class: np.ndarray
    lam_wd: float
    mode: str = "none"
    wd_learnable: bool = False
    history_reset: bool = False
    sigma_class: np.ndarray | None = None
    sigma_inst: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in META_MODES:
            raise ValueError(f"unknown meta mode {self.mode!r}")
        if self.lam_wd < 0:
            raise ValueError("weight-decay coefficient must be non-negative")

    @classmethod
    def initial(
        cls,
        n_instances,
        n_classes,
        mode="none",
        wd_init=5e-4,
        wd_learnable=False,
        history_reset=False,
        temperature_mode=None,
    ):
        """All multipliers start at 1. Temperature tables are allocated only
        when a temperature mode is named; in joint mode the class table
        starts at 1 and the instance table at 0 so the effective starting
        temperature is 1."""
        sigma_class = sigma_inst = None
        if temperature_mode == "class":
            sigma_class = np.ones(n_classes)
        elif temperature_mode == "instance":
            sigma_inst = np.ones(n_instances)
        elif temperature_mode == "joint":
            sigma_class = np.ones(n_classes)
            sigma_inst = np.zeros(n_instances)
        elif temperature_mode is not None:
            raise ValueError(f"unknown temperature mode {temperature_mode!r}")
        return cls(
            w_inst=np.ones(n_instances),
            w_class=np.ones(n_classes),
            lam_wd=float(wd_init),
            mode=mode,
            wd_learnable=wd_learnable,
            history_reset=history_reset,
            sigma_class=sigma_class,
            sigma_inst=sigma_inst,
        )

    def copy(self):
        return replace(
            self,
            w_inst=self.w_inst.copy(),
            w_class=self.w_class.copy(),
            sigma_class=None if self.sigma_class is None else self.sigma_class.copy(),
            sigma_inst=None if self.sigma_inst is None else self.sigma_inst.copy(),
        )


@dataclass
class MetaStepReport:
    """Everything one meta step computed, for logging and verification.

    The meta-gradient maps are arrays: ``per_instance_metagrad[r]`` belongs
    to ``instance_ids[r]``, the dataset index of train-batch row r, and
    ``per_class_metagrad[j]`` to class ``class_ids[j]``. The instance map
    is filled in instance and class mode, the class map only in class
    mode for the classes present in the batch; a map the mode does not
    compute holds empty arrays. ``wd_metagrad`` is None unless the decay
    coefficient is learnable.
    """

    rollout_theta: nn.ParamVector
    meta_loss: float
    instance_ids: np.ndarray
    per_instance_metagrad: np.ndarray
    class_ids: np.ndarray
    per_class_metagrad: np.ndarray
    wd_metagrad: float | None
    clamp_count: int = 0


def effective_weights(dps, batch):
    """Per-sample multiplier under the current mode; ones in mode none."""
    if dps.mode == "instance":
        return dps.w_inst[batch.indices]
    if dps.mode == "class":
        return dps.w_class[batch.labels]
    return np.ones(batch.size)


def rollout_one_step(theta, backward, batch, dps, lr):
    """theta' as an explicit function of the data parameters.

    ``backward`` is ``nn.batch_backward`` of the batch at ``theta``. The
    meta step and a replay both step through this one expression.
    """
    if backward.losses.shape != (batch.size,):
        raise ShapeError(
            f"backward pass over {backward.losses.size} rows does not match "
            f"batch {batch.size}"
        )
    # theta - (lr/B) grad_sum - (lr lam) theta in grad_sum's buffer, one
    # operation at a time in that expression's order, so the bits match it
    new = backward.grad_sum(effective_weights(dps, batch))
    new *= lr / batch.size
    np.subtract(theta.values, new, out=new)
    new -= lr * dps.lam_wd * theta.values
    return theta.with_values(new)


def instance_metagrad(dots, lr):
    """Meta-gradient per train-batch row from ``dots[i] = <g_i,
    meta_grad>``: -(lr/B) dots[i]."""
    return -(lr / dots.size) * dots


def class_metagrad(instance_grads, labels, n_classes):
    """Meta-gradient per class present in the batch, as (classes, values):
    the sum of the members' instance meta-gradients."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    sums = np.bincount(labels, weights=instance_grads, minlength=n_classes)
    classes = np.unique(labels)
    return classes, sums[classes]


def wd_metagrad(theta, meta_grad, lr):
    """Meta-gradient on the weight-decay coefficient: -lr <meta_grad, theta>."""
    return float(-lr * (meta_grad @ theta.values))


def sgd_at(table, ids, step, floor=None):
    """In place ``table[ids] -= step``, projected onto [floor, inf) when a
    floor is given. Returns the number of rows projected. With repeated
    ids the last row wins, as with one assignment per row in order."""
    new = table[ids] - step
    clamps = 0
    if floor is not None:
        below = new < floor
        clamps = int(np.count_nonzero(below))
        new[below] = floor
    table[ids] = new
    return clamps


def apply_data_param_update(dps, report, data_lr, wd_lr):
    """SGD on the data parameters in place, with clamping at zero.

    Only entries named in the report's maps are touched; the clamp count
    is written back into the report. Plain SGD, no momentum, no decay.
    """
    clamps = 0
    if dps.mode == "instance":
        clamps += sgd_at(
            dps.w_inst, report.instance_ids, data_lr * report.per_instance_metagrad, 0.0
        )
    elif dps.mode == "class":
        clamps += sgd_at(
            dps.w_class, report.class_ids, data_lr * report.per_class_metagrad, 0.0
        )
    if dps.wd_learnable:
        new_wd = dps.lam_wd - wd_lr * report.wd_metagrad
        if new_wd < 0.0:
            new_wd = 0.0
            clamps += 1
        dps.lam_wd = new_wd
    report.clamp_count = clamps


def _update_sigma_tables(cfg, dps, batch, dsigma, data_lr):
    """In-place SGD on the temperature tables from the mean batch loss.

    Single-mode tables are projected onto [SIGMA_MIN, inf) after the
    update; in joint mode the floor is enforced at resolve time instead
    (the instance table starts at 0 and may go negative).
    """
    mode = cfg.temperature_mode
    scale = data_lr / batch.size
    clamps = 0
    if mode in ("class", "joint"):
        classes = np.unique(batch.labels)
        # one slice sum per class: np.bincount adds in another order
        sums = np.array([dsigma[batch.labels == c].sum() for c in classes])
        floor = losses_mod.SIGMA_MIN if mode == "class" else None
        clamps += sgd_at(dps.sigma_class, classes, scale * sums, floor)
    if mode in ("instance", "joint"):
        floor = losses_mod.SIGMA_MIN if mode == "instance" else None
        clamps += sgd_at(dps.sigma_inst, batch.indices, scale * dsigma, floor)
    return clamps


def meta_train_step(theta, dps, train_batch, meta_batch, lr, data_lr, wd_lr, buffers=None):
    """One full step: rollout, meta loss at theta', meta-gradients, data
    parameter update. The committed model parameters are the rollout
    itself; the data parameters seen by this step are the pre-update ones,
    and the update then changes ``dps`` in place.

    ``buffers`` is a (train, meta) pair of ``nn.PassBuffers`` for the two
    passes, or None to make one per pass. They must be two sets: the train
    pass's factors are read for the dot products after the meta pass has run.

    Returns (theta_next, dps, report).
    """
    if train_batch.size != meta_batch.size:
        raise ShapeError(
            f"train batch ({train_batch.size}) and meta batch ({meta_batch.size}) "
            "must have equal size"
        )
    train_buffers, meta_buffers = (None, None) if buffers is None else buffers
    train_pass = nn.batch_backward(theta, train_batch, buffers=train_buffers)
    theta_next = rollout_one_step(theta, train_pass, train_batch, dps, lr)

    meta_pass = nn.batch_backward(theta_next, meta_batch, buffers=meta_buffers)
    meta_grad = meta_pass.grad_sum()
    meta_grad /= meta_batch.size

    empty_ids, empty = np.empty(0, dtype=np.int64), np.empty(0)
    instance_ids, instance_grads = empty_ids, empty
    class_ids, class_grads = empty_ids, empty
    if dps.mode != "none":
        instance_ids = train_batch.indices
        instance_grads = instance_metagrad(train_pass.dots(meta_grad), lr)
    if dps.mode == "class":
        class_ids, class_grads = class_metagrad(
            instance_grads, train_batch.labels, dps.w_class.size
        )
    report = MetaStepReport(
        rollout_theta=theta_next,
        meta_loss=float(meta_pass.losses.mean()),
        instance_ids=instance_ids,
        per_instance_metagrad=instance_grads,
        class_ids=class_ids,
        per_class_metagrad=class_grads,
        wd_metagrad=wd_metagrad(theta, meta_grad, lr) if dps.wd_learnable else None,
    )
    apply_data_param_update(dps, report, data_lr, wd_lr)
    if dps.history_reset:
        dps.w_inst[:] = 1.0
        dps.w_class[:] = 1.0
    return theta_next, dps, report
