"""Per-epoch snapshots of the data parameters.

A trajectory records every data parameter at each epoch end so a learned
schedule can be averaged across folds and replayed as fixed multipliers.
In memory every table is a dense array. Only the file is sparse: it holds
an `inst` row for each instance weight that differs from its initial
value 1, and an absent row reads back as 1. Class tables, the decay
coefficient, and temperature tables are written densely.

Interchange format: comma-separated `epoch,kind,id,value` rows with kind
in {inst, class, wd, sigma_inst, sigma_class}. A clean file is parsed in
blocks of lines by `csvrows.read_blocks` and checked with array operations;
any fault sends it back through the row reader `csvrows.read_rows`, which
names the file and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvrows import read_blocks, read_rows
from .errors import ConfigError

COLUMNS = ("epoch", "kind", "id", "value")
KINDS = ("inst", "class", "wd", "sigma_inst", "sigma_class")
# one byte wider than the longest kind, so a longer name is never cut to a valid one
ROW_DTYPE = np.dtype([("e", "i8"), ("k", "S12"), ("i", "i8"), ("v", "f8")])


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
        # one epoch's text at a time: the whole file's would be the run's peak
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for snap in self.snapshots:
                e = snap.epoch
                lines = []
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
                fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, n_instances, n_classes):
        """Read a trajectory file into dense per-epoch tables.

        Each epoch's snapshot starts at its first row, which may not come
        before the first row of the epoch preceding it; the last row for an
        entry wins. The file is parsed in blocks; when a block does not
        parse or fails a check, what was built is dropped and the row reader
        reads the file again and raises ConfigError naming the file and line.
        """
        try:
            return cls._from_blocks(path, n_instances, n_classes)
        except (OSError, ValueError):
            return cls._from_rows(path, n_instances, n_classes)

    @classmethod
    def _from_blocks(cls, path, n_instances, n_classes):
        """``from_csv`` in blocks: ValueError or OSError on any fault."""
        log = cls(n_instances=n_instances, n_classes=n_classes)
        snapshots = log.snapshots
        names = np.array(KINDS, dtype=ROW_DTYPE["k"])
        sizes = np.array([n_instances, n_classes, 1, n_instances, n_classes])
        for rows in read_blocks(path, COLUMNS, ROW_DTYPE):
            e, ident, value = rows["e"], rows["i"], rows["v"]
            code = np.full(e.size, -1)
            for c, name in enumerate(names):
                code[rows["k"] == name] = c
            if not (code >= 0).all():
                raise ValueError("unknown trajectory kind")
            # an epoch may begin one past the highest epoch of the rows before it
            reach = np.maximum.accumulate(np.append(len(snapshots) - 1, e[:-1]))
            if not (
                (e >= 0).all()
                and (e <= reach + 1).all()
                and (ident >= 0).all()
                and (ident < sizes[code]).all()
                and np.isfinite(value).all()
            ):
                raise ValueError("trajectory row out of range")
            for epoch in range(len(snapshots), int(e.max()) + 1):
                snapshots.append(
                    EpochSnapshot(
                        epoch=epoch,
                        w_inst=np.ones(n_instances),
                        w_class=np.ones(n_classes),
                        lam_wd=0.0,
                    )
                )
            # grouped by (epoch, kind) with file order kept per id, so
            # keeping the last row of each id keeps the row that wins
            key = e * len(KINDS) + code
            order = np.lexsort((ident, key))
            key, ident, value = key[order], ident[order], value[order]
            last = np.append((key[1:] != key[:-1]) | (ident[1:] != ident[:-1]), True)
            key, ident, value = key[last], ident[last], value[last]
            starts = np.flatnonzero(np.append(True, key[1:] != key[:-1])).tolist()
            for lo, hi in zip(starts, starts[1:] + [key.size]):
                epoch, c = divmod(int(key[lo]), len(KINDS))
                snap, ids, values = snapshots[epoch], ident[lo:hi], value[lo:hi]
                kind = KINDS[c]
                if kind == "inst":
                    snap.w_inst[ids] = values
                elif kind == "class":
                    snap.w_class[ids] = values
                elif kind == "wd":
                    snap.lam_wd = float(values[-1])
                elif kind == "sigma_class":
                    if snap.sigma_class is None:
                        snap.sigma_class = np.ones(n_classes)
                    snap.sigma_class[ids] = values
                else:
                    if snap.sigma_inst is None:
                        snap.sigma_inst = np.zeros(n_instances)
                    snap.sigma_inst[ids] = values
        return log

    @classmethod
    def _from_rows(cls, path, n_instances, n_classes):
        """``from_csv`` one row at a time: ``csvrows.read_rows`` checks the
        file, header and field counts; a row with a non-numeric or
        non-finite value, a negative or skipped epoch, an unknown kind, or
        an id outside its table raises ConfigError naming the file and line.
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


def average_trajectories(logs, memberships):
    """Fold-average per-epoch trajectories into one schedule.

    ``memberships[f]`` lists the instance indices that were trainable in
    fold f; an instance's weight is averaged over exactly those folds.
    Class tables, the decay coefficient, and temperature tables average
    over all folds.
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
