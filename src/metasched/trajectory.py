"""Per-epoch snapshots of the data parameters.

A trajectory records every data parameter at each epoch end so a learned
schedule can be averaged across folds and replayed as fixed multipliers.
In memory every table is a dense array. Only the file is sparse: it holds
an `inst` row for each instance weight that differs from its initial
value 1, and an absent row reads back as 1. Class tables, the decay
coefficient, and temperature tables are written densely.

Interchange format: comma-separated `epoch,kind,id,value` rows with kind
in {inst, class, wd, sigma_inst, sigma_class}, read through the shared
`csvrows.read_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvrows import read_rows
from .errors import ConfigError

COLUMNS = ("epoch", "kind", "id", "value")


def _copy(table):
    return None if table is None else table.copy()


@dataclass
class EpochSnapshot:
    epoch: int
    w_inst: np.ndarray
    w_class: np.ndarray
    lam_wd: float
    sigma_class: np.ndarray | None = None
    sigma_inst: np.ndarray | None = None

    def as_tables(self):
        """Copies of this epoch's weight tables, suitable for replay."""
        return {
            "w_inst": self.w_inst.copy(),
            "w_class": self.w_class.copy(),
            "lam_wd": self.lam_wd,
            "sigma_class": _copy(self.sigma_class),
            "sigma_inst": _copy(self.sigma_inst),
        }


@dataclass
class TrajectoryLog:
    n_instances: int
    n_classes: int
    snapshots: list = field(default_factory=list)

    @property
    def epochs(self):
        return len(self.snapshots)

    def record(self, dps):
        """Append an epoch-end snapshot of the data-parameter state."""
        if dps.w_inst.size != self.n_instances or dps.w_class.size != self.n_classes:
            raise ValueError("data-parameter dimensions do not match the trajectory")
        snap = EpochSnapshot(
            epoch=len(self.snapshots),
            w_inst=dps.w_inst.copy(),
            w_class=dps.w_class.copy(),
            lam_wd=float(dps.lam_wd),
            sigma_class=_copy(dps.sigma_class),
            sigma_inst=_copy(dps.sigma_inst),
        )
        self.snapshots.append(snap)
        return snap

    def snapshot(self, epoch):
        if not 0 <= epoch < len(self.snapshots):
            raise ValueError(
                f"epoch {epoch} outside recorded range [0, {len(self.snapshots)})"
            )
        return self.snapshots[epoch]

    def to_csv(self, path):
        lines = [",".join(COLUMNS)]
        for snap in self.snapshots:
            e = snap.epoch
            nonunit = np.flatnonzero(snap.w_inst != 1.0)
            for i, v in zip(nonunit.tolist(), snap.w_inst[nonunit].tolist()):
                lines.append(f"{e},inst,{i},{v!r}")
            for c, v in enumerate(snap.w_class.tolist()):
                lines.append(f"{e},class,{c},{v!r}")
            lines.append(f"{e},wd,0,{snap.lam_wd!r}")
            if snap.sigma_class is not None:
                for c, v in enumerate(snap.sigma_class.tolist()):
                    lines.append(f"{e},sigma_class,{c},{v!r}")
            if snap.sigma_inst is not None:
                for i, v in enumerate(snap.sigma_inst.tolist()):
                    lines.append(f"{e},sigma_inst,{i},{v!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, n_instances, n_classes):
        """Read a trajectory file into dense per-epoch tables.

        Each epoch's snapshot starts at its first row, which may not come
        before the first row of the epoch preceding it. ``csvrows.read_rows``
        checks the file, header and field counts; a row with a non-numeric
        or non-finite value, a negative or skipped epoch, an unknown kind,
        or an id outside its table raises ConfigError naming the file and
        line here.
        """
        log = cls(n_instances=n_instances, n_classes=n_classes)
        sizes = {
            "inst": n_instances,
            "class": n_classes,
            "wd": 1,
            "sigma_inst": n_instances,
            "sigma_class": n_classes,
        }
        snapshots = log.snapshots
        for lineno, parts in read_rows(path, COLUMNS):
            kind = parts[1]
            if kind not in sizes:
                raise ConfigError(f"{path} line {lineno}: unknown trajectory kind {kind!r}")
            try:
                e, ident, value = int(parts[0]), int(parts[2]), float(parts[3])
            except ValueError:
                raise ConfigError(
                    f"{path} line {lineno}: non-numeric field in {','.join(parts)!r}"
                ) from None
            if e < 0:
                raise ConfigError(f"{path} line {lineno}: negative epoch {e}")
            if not 0 <= ident < sizes[kind]:
                raise ConfigError(
                    f"{path} line {lineno}: {kind} id {ident} outside [0, {sizes[kind]})"
                )
            if not math.isfinite(value):
                raise ConfigError(f"{path} line {lineno}: non-finite value {parts[3]!r}")
            if e > len(snapshots):
                raise ConfigError(
                    f"{path} line {lineno}: epoch {e} before any row of epoch "
                    f"{len(snapshots)}"
                )
            if e == len(snapshots):
                snapshots.append(
                    EpochSnapshot(
                        epoch=e,
                        w_inst=np.ones(n_instances),
                        w_class=np.ones(n_classes),
                        lam_wd=0.0,
                    )
                )
            snap = snapshots[e]
            if kind == "inst":
                snap.w_inst[ident] = value
            elif kind == "class":
                snap.w_class[ident] = value
            elif kind == "wd":
                snap.lam_wd = value
            elif kind == "sigma_class":
                if snap.sigma_class is None:
                    snap.sigma_class = np.ones(n_classes)
                snap.sigma_class[ident] = value
            else:
                if snap.sigma_inst is None:
                    snap.sigma_inst = np.zeros(n_instances)
                snap.sigma_inst[ident] = value
        return log


def _fold_mean(tables, masks, counts, fill):
    """Per-instance mean over the folds whose mask covers the instance,
    summed fold by fold; instances no fold covers read ``fill``."""
    out = np.zeros(counts.size)
    for table, mask in zip(tables, masks):
        out[mask] += table[mask]
    covered = counts > 0
    out[covered] /= counts[covered]
    out[~covered] = fill
    return out


def average_trajectories(logs, memberships=None):
    """Fold-average per-epoch trajectories into one schedule.

    ``memberships[f]`` lists the instance indices that were trainable in
    fold f; an instance's weight is averaged over exactly those folds.
    Class tables, the decay coefficient, and temperature tables average
    over all folds. With memberships None every fold counts everywhere.
    """
    if not logs:
        raise ValueError("no trajectories to average")
    n_instances = logs[0].n_instances
    n_classes = logs[0].n_classes
    n_epochs = logs[0].epochs
    for log in logs:
        if (log.n_instances, log.n_classes, log.epochs) != (
            n_instances,
            n_classes,
            n_epochs,
        ):
            raise ValueError("trajectories differ in shape or epoch count")
    if memberships is None:
        counts = np.full(n_instances, len(logs), dtype=np.float64)
        masks = [np.ones(n_instances, dtype=bool) for _ in logs]
    else:
        if len(memberships) != len(logs):
            raise ValueError("one membership set per trajectory required")
        masks = []
        for member in memberships:
            mask = np.zeros(n_instances, dtype=bool)
            mask[np.asarray(member, dtype=np.int64)] = True
            masks.append(mask)
        counts = np.sum(masks, axis=0).astype(np.float64)
    out = TrajectoryLog(n_instances=n_instances, n_classes=n_classes)
    for e in range(n_epochs):
        snaps = [log.snapshots[e] for log in logs]
        sigma_class = sigma_inst = None
        if snaps[0].sigma_class is not None:
            sigma_class = np.mean([s.sigma_class for s in snaps], axis=0)
        if snaps[0].sigma_inst is not None:
            sigma_inst = _fold_mean([s.sigma_inst for s in snaps], masks, counts, 0.0)
        out.snapshots.append(
            EpochSnapshot(
                epoch=e,
                w_inst=_fold_mean([s.w_inst for s in snaps], masks, counts, 1.0),
                w_class=np.mean([s.w_class for s in snaps], axis=0),
                lam_wd=float(np.mean([s.lam_wd for s in snaps])),
                sigma_class=sigma_class,
                sigma_inst=sigma_inst,
            )
        )
    return out
