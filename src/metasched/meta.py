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

The meta pass of step t and the train pass of step t+1 both evaluate
theta_{t+1}, so a step runs one backward pass for both. Step t
(``meta_train_step``, in this order):

1. takes the train pass of its batch at theta_t, held from step t-1 (at
   an epoch's first batch and a short last one, a train-only pass runs
   instead, into the leading rows of the run's pass buffers);
2. writes the rollout theta_{t+1} from that pass's weighted gradient sum;
3. runs one joint pass at theta_{t+1} over the meta batch and the train
   batch of step t+1 (2b rows for batches of b rows; meta rows only when
   step t+1 is a short batch or in another epoch), and takes the mean
   meta gradient dL_meta/dtheta' from the meta rows. The meta rows sit
   at rows [B, B + b) of the run's buffers, and the next train rows on
   the side away from the train pass in hand: right after the meta rows,
   or right before them (a train-only pass counts as before). So the
   joint pass is one product over contiguous rows, and it writes none of
   the train pass's rows;
4. dots each train row's gradient, from the train pass's factors, with
   that meta gradient, and updates the data parameters;
5. hands on the joint pass's train rows, in place, as the train pass of
   step t+1, when every one of them is finite.

A non-finite meta row aborts step t. A non-finite row of the next train
batch leaves nothing held: step t+1 then runs its own train pass, which
aborts it, after step t has committed. No per-sample gradient matrix is
built.

Every training run binds one ``Workspace`` for the arrays its steps
write: a meta step, a replay's rollout or an optimizer step. Their
lifetimes:

- One ``nn.PassBuffers`` of 3B rows, which takes passes of up to 2B
  rows. A pass stays valid until a pass writes its rows again. A meta
  step's train pass lies before or after the meta rows, and its joint
  pass covers the meta rows and the other side, so the train rows a
  joint pass hands on, with their input rows, outlive the next step's
  joint pass. A train-only pass, the optimizer and replay steps' passes
  and evaluation use the leading rows.
- The two parameter slots hold theta_t and theta_{t+1}. Each step writes
  its result into the slot that does not hold its input, so a vector a
  step returns stays valid until the step after next, and a step that
  fails leaves its input intact. A model that must outlive that is a
  copy.
- The gradient vector holds the gradient a step sums; in a meta step,
  from step 3 on. Before that the rollout forms its decay term
  ``lr * lam_wd * theta`` there. An optimizer step forms its
  ``lam_wd * theta`` in the slot it then writes, so no array is kept for
  the decay term.

Data parameters are updated in place by plain SGD on these
meta-gradients and clamped at zero.

This module alone reads and steps the data-parameter tables. The
temperature kind is read off the tables a state holds: class, instance,
or both (joint).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses as losses_mod
from . import nn
from .errors import ShapeError

META_MODES = ("instance", "class", "none")
TEMPERATURE_MODES = ("class", "instance", "joint")


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

    @property
    def tempered(self):
        """True when the state holds a temperature table."""
        return self.sigma_class is not None or self.sigma_inst is not None

    def copy(self):
        return replace(self, **self.as_tables())

    def as_tables(self):
        """Copies of the weight, decay and temperature tables by name."""
        return {
            "w_inst": self.w_inst.copy(),
            "w_class": self.w_class.copy(),
            "lam_wd": self.lam_wd,
            "sigma_class": None if self.sigma_class is None else self.sigma_class.copy(),
            "sigma_inst": None if self.sigma_inst is None else self.sigma_inst.copy(),
        }


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

    meta_loss: float
    instance_ids: np.ndarray
    per_instance_metagrad: np.ndarray
    class_ids: np.ndarray
    per_class_metagrad: np.ndarray
    wd_metagrad: float | None
    clamp_count: int = 0


def effective_weights(dps, labels, indices):
    """Per-row rate multiplier under the meta mode; ones in mode none."""
    if dps.mode == "instance":
        return dps.w_inst[indices]
    if dps.mode == "class":
        return dps.w_class[labels]
    return np.ones(len(labels))


def effective_temperatures(dps, labels, indices):
    """Per-row effective temperature from the tables ``dps`` holds: the
    class entry of the row's label, the row's own instance entry, or in
    joint mode (both tables) their sum. Returns (sigmas, clamped) where
    clamped marks the rows below ``SIGMA_MIN``, which read the floor."""
    if dps.sigma_inst is None:
        raw = dps.sigma_class[labels]
    elif dps.sigma_class is None:
        raw = dps.sigma_inst[indices]
    else:
        raw = dps.sigma_class[labels] + dps.sigma_inst[indices]
    clamped = raw < losses_mod.SIGMA_MIN
    return np.where(clamped, losses_mod.SIGMA_MIN, raw), clamped


class Workspace:
    """The arrays a run binds once, for batches of up to ``rows`` rows;
    the module docstring gives their lifetimes.

    - ``slots``: two parameter vectors; a step writes into the one that
      does not hold its input.
    - ``grad``: the gradient a step sums, the meta gradient in a meta step
      and the mean train gradient in an optimizer step; before a meta
      step's joint pass, the rollout's scratch for its decay term.
    - ``buffers``: the pass buffers, of 3 x ``rows`` rows, which take
      passes of up to 2 x ``rows``.
    - ``features`` and ``labels``: a meta step's joint pass input, row
      for row with ``buffers``; the meta rows are the middle third.
    - ``held``: ``(batch, theta, pass, before)``, the train pass of
      ``batch`` at ``theta`` that the last joint pass left in ``buffers``,
      ``before`` the meta rows or after them; None when nothing is held,
      as after a joint pass with a non-finite train row.
    """

    def __init__(self, manifest, rows):
        size = nn.param_count(manifest)
        self.rows = rows
        self.slots = tuple(nn.ParamVector(np.zeros(size), manifest) for _ in range(2))
        self.grad = nn.ParamVector(np.zeros(size), manifest)
        self.buffers = nn.PassBuffers(manifest, 2 * rows, layer_rows=3 * rows)
        self.features = np.empty((3 * rows, manifest[0].in_dim))
        self.labels = np.empty(3 * rows, dtype=np.int64)
        self.meta_indices = np.empty(rows, dtype=np.int64)
        # one batch of views into the middle input rows per row count
        self._gather_batches = {}
        self.held = None

    def slot_after(self, theta):
        """The slot a step from ``theta`` writes: the one not holding it."""
        return self.slots[1] if theta is self.slots[0] else self.slots[0]

    def gather(self, ds, positions):
        """The meta batch of rows ``positions`` of ``ds`` (any object with
        ``features``, ``labels`` and ``indices`` arrays), taken straight
        into the joint input's middle third; the batch is valid until the
        next ``gather``. Positions must be in range: unchecked, ``take``
        writes into ``out`` with no temporary."""
        rows = len(positions)
        batch = self._gather_batches.get(rows)
        if batch is None:
            meta_rows = slice(self.rows, self.rows + rows)
            batch = nn.Batch(
                self.features[meta_rows], self.labels[meta_rows], self.meta_indices[:rows]
            )
            self._gather_batches[rows] = batch
        ds.features.take(positions, axis=0, out=batch.features, mode="clip")
        ds.labels.take(positions, out=batch.labels, mode="clip")
        ds.indices.take(positions, out=batch.indices, mode="clip")
        return batch


def rollout_one_step(theta, backward, batch, dps, lr, workspace=None):
    """theta' as an explicit function of the data parameters.

    ``backward`` is ``nn.batch_backward`` of the batch at ``theta``. The
    meta step and a replay both step through this one expression. theta'
    is written into the free slot of ``workspace`` (one is made for the
    call without it).
    """
    if backward.losses.shape != (batch.size,):
        raise ShapeError(
            f"backward pass over {backward.losses.size} rows does not match "
            f"batch {batch.size}"
        )
    if workspace is None:
        workspace = Workspace(theta.manifest, batch.size)
    slot = workspace.slot_after(theta)
    # theta - (lr/B) grad_sum - (lr lam) theta in the slot, one operation
    # at a time in that expression's order, so the bits match it
    new = backward.grad_sum(effective_weights(dps, batch.labels, batch.indices), out=slot)
    new *= lr / batch.size
    np.subtract(theta.values, new, out=new)
    # lr lam theta in ``grad``, which a meta step fills only after this
    new -= np.multiply(theta.values, lr * dps.lam_wd, out=workspace.grad.values)
    nn.require_finite(new)
    return slot


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
    # np.unique would give the same classes, but its first call imports numpy.ma
    classes = np.flatnonzero(np.bincount(labels, minlength=n_classes))
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


def update_sigma_tables(dps, batch, dsigma, data_lr):
    """In-place SGD on the temperature tables ``dps`` holds from the mean
    batch loss; returns the number of rows projected.

    A lone table is projected onto [SIGMA_MIN, inf) after the update; with
    both (joint mode) the floor is enforced by ``effective_temperatures``
    instead (the instance table starts at 0 and may go negative). Only
    the classes present in the batch are projected and counted.

    A class steps by the sum of its rows' dsigma as the slice ``.sum()``
    gives it. ``np.bincount(labels, weights=dsigma)`` adds each class's
    rows one at a time in row order, starting from 0.0. numpy's pairwise
    sum adds a run of fewer than 8 elements the same way and switches to
    8 accumulators from 8 on, so the bincount entry equals the slice sum
    bit for bit for a class with fewer than 8 rows in the batch, and only
    a class with 8 or more takes its slice sum. The whole class table
    then steps at once: an absent class's step is 0.0, which leaves its
    entry as it is.
    """
    scale = data_lr / batch.size
    joint = dps.sigma_class is not None and dps.sigma_inst is not None
    floor = None if joint else losses_mod.SIGMA_MIN
    clamps = 0
    if dps.sigma_class is not None:
        table, labels = dps.sigma_class, batch.labels
        counts = np.bincount(labels, minlength=table.size)
        steps = np.bincount(labels, weights=dsigma, minlength=table.size)
        # from 8 rows on the slice sum adds in another order
        for c in np.flatnonzero(counts >= 8):
            steps[c] = dsigma[labels == c].sum()
        steps *= scale
        table -= steps
        if floor is not None:
            below = table < floor
            below &= counts > 0
            clamps += int(np.count_nonzero(below))
            table[below] = floor
    if dps.sigma_inst is not None:
        clamps += sgd_at(dps.sigma_inst, batch.indices, scale * dsigma, floor)
    return clamps


def meta_train_step(
    theta, dps, train_batch, meta_batch, lr, data_lr, wd_lr, workspace=None, next_batch=None
):
    """One full step, in the five numbered steps of the module docstring:
    train pass, rollout, joint pass, meta-gradients and data parameter
    update, hand-off. The committed model parameters are the rollout
    itself; the data parameters seen by this step are the pre-update ones,
    and the update then changes ``dps`` in place.

    ``workspace`` is the run's ``Workspace`` (one is made for the call
    without it), and ``next_batch`` the train batch of
    the next step, or None at an epoch's last batch. The step leaves that
    batch's train pass in ``workspace.held`` for the next call, which uses
    it only when it comes from the returned theta' on that same batch
    object; any other call, a next batch of another size than the meta
    batch, and one with a non-finite row, runs its own train pass.

    Returns (theta_next, dps, report).
    """
    rows = meta_batch.size
    if train_batch.size != rows:
        raise ShapeError(
            f"train batch ({train_batch.size}) and meta batch ({rows}) must have equal size"
        )
    if workspace is None:
        workspace = Workspace(theta.manifest, rows)
    if next_batch is not None and next_batch.size != rows:
        # a short last batch takes its own pass: inside a product of
        # another row count OpenBLAS may round its rows differently
        next_batch = None

    # 1. the train pass, held by the last step or run now at [0, b): before
    # the meta rows
    held, workspace.held = workspace.held, None
    if held is not None and held[0] is train_batch and held[1] is theta:
        train_pass, before = held[2], held[3]
    else:
        train_pass = nn.batch_backward(theta, train_batch, buffers=workspace.buffers)
        before = True

    # 2. the rollout
    theta_next = rollout_one_step(theta, train_pass, train_batch, dps, lr, workspace)

    # 3. one pass at theta' over the meta rows, at [B, B + b), and the
    # next batch's, right after them or right before them: away from the
    # train pass. A meta batch from ``gather`` is already in place, and its
    # copy onto itself writes nothing
    features, labels = workspace.features, workspace.labels
    lo = mid = workspace.rows
    hi = mid + rows
    features[mid:hi] = meta_batch.features
    labels[mid:hi] = meta_batch.labels
    if next_batch is not None:
        start = hi if before else mid - rows
        features[start : start + rows] = next_batch.features
        labels[start : start + rows] = next_batch.labels
        lo, hi = min(lo, start), max(hi, start + rows)
    joint = nn.unchecked_backward(
        theta_next, features[lo:hi], labels[lo:hi], buffers=workspace.buffers, start=lo
    )
    meta_pass = joint.rows(mid - lo, mid - lo + rows)
    # the train rows may come first, but a non-finite meta row aborts the step
    bad = joint.first_bad_row()
    if bad is not None:
        meta_bad = meta_pass.first_bad_row()
        if meta_bad is not None:
            raise nn.sample_error(meta_batch.indices, meta_bad)
    meta_grad = meta_pass.grad_sum(out=workspace.grad)
    meta_grad /= rows

    # 4. the dots, the meta-gradients and the data parameter update
    empty_ids, empty = np.empty(0, dtype=np.int64), np.empty(0)
    instance_ids, instance_grads = empty_ids, empty
    class_ids, class_grads = empty_ids, empty
    if dps.mode != "none":
        instance_ids = train_batch.indices
        instance_grads = instance_metagrad(train_pass.dots(workspace.grad), lr)
    if dps.mode == "class":
        class_ids, class_grads = class_metagrad(
            instance_grads, train_batch.labels, dps.w_class.size
        )
    report = MetaStepReport(
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

    # 5. the next batch's train pass, in place, when all its rows are finite
    if next_batch is not None and bad is None:
        held = joint.rows(start - lo, start - lo + rows)
        workspace.held = (next_batch, theta_next, held, start < mid)
    return theta_next, dps, report
