"""Per-epoch snapshots of the data parameters.

A trajectory records every data parameter at each epoch end so a learned
schedule can be averaged across folds and replayed as fixed multipliers.
Each snapshot is a ``meta.DataParamState`` and its position in the log is
its epoch. In memory every table is a dense, read-only array, and a table
that did not change since the previous epoch is that epoch's array, so a
table a run never writes costs one array for the whole log. A write into
a snapshot raises; code that needs writable tables takes ``as_tables()``
or ``copy()``. Only the file is sparse: it holds an `inst` row for each
instance weight that differs from its initial value 1, and an absent row
reads back as 1. Class tables, the decay coefficient, and temperature
tables are written densely, ``csvrows.WRITE_LINES`` entries to a chunk of
text. A decay row must not be negative.

Interchange format: comma-separated `epoch,kind,id,value` rows with kind
in {inst, class, wd, sigma_inst, sigma_class}. A clean file is parsed in
blocks of lines by `csvrows.read_blocks` and checked with array operations;
any fault sends it back through the row reader `csvrows.read_rows`, which
names the file and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .csvrows import WRITE_LINES, read_blocks, read_rows
from .errors import ConfigError
from .meta import DataParamState

COLUMNS = ("epoch", "kind", "id", "value")
KINDS = ("inst", "class", "wd", "sigma_inst", "sigma_class")
# the array fields of a snapshot
TABLES = ("w_inst", "w_class", "sigma_class", "sigma_inst")
# one byte wider than the longest kind, so a longer name is never cut to a valid one
ROW_DTYPE = np.dtype([("e", "i8"), ("k", "S12"), ("i", "i8"), ("v", "f8")])


def _put(snap, kind, ids, values, n_instances, n_classes):
    """Write rows of one kind into ``snap``. The decay takes the last
    value; a temperature table is made at its initial values when a row
    first names it."""
    if kind == "inst":
        snap.w_inst[ids] = values
    elif kind == "class":
        snap.w_class[ids] = values
    elif kind == "wd":
        snap.lam_wd = float(np.atleast_1d(values)[-1])
    elif kind == "sigma_class":
        if snap.sigma_class is None:
            snap.sigma_class = np.ones(n_classes)
        snap.sigma_class[ids] = values
    else:
        if snap.sigma_inst is None:
            snap.sigma_inst = np.zeros(n_instances)
        snap.sigma_inst[ids] = values


def _text(epoch, kind, values, ids=None):
    """The file lines of one table, at most WRITE_LINES per string;
    ``ids[j]`` names ``values[j]``, which default to entries 0, 1, ..."""
    for lo in range(0, len(values), WRITE_LINES):
        chunk = values[lo : lo + WRITE_LINES].tolist()
        names = range(lo, lo + len(chunk)) if ids is None else ids[lo : lo + len(chunk)].tolist()
        yield "".join(f"{epoch},{kind},{i},{v!r}\n" for i, v in zip(names, chunk))


def _same_bits(a, b):
    """Whether two tables hold the same values bit for bit: ``==`` alone
    takes -0.0 for 0.0, which the file writes apart."""
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@dataclass
class TrajectoryLog:
    n_instances: int
    n_classes: int
    snapshots: list = field(default_factory=list)

    @property
    def epochs(self):
        return len(self.snapshots)

    def record(self, dps):
        """Append the epoch-end data-parameter state. A table that is
        read-only is kept as it is, one equal to the previous snapshot's is
        that array, and any other is stored as a read-only copy."""
        if dps.w_inst.size != self.n_instances or dps.w_class.size != self.n_classes:
            raise ValueError("data-parameter dimensions do not match the trajectory")
        self._append(dps, owned=False)

    def _append(self, dps, owned):
        """``record``; ``owned`` tables belong to no one else, so a changed
        one is frozen in place instead of copied."""
        last = self.snapshots[-1] if self.snapshots else None
        tables = {}
        for name in TABLES:
            table = getattr(dps, name)
            previous = None if last is None else getattr(last, name)
            if table is not None and table.flags.writeable:
                if previous is not None and _same_bits(table, previous):
                    table = previous
                else:
                    if not owned:
                        table = table.copy()
                    table.flags.writeable = False
            tables[name] = table
        self.snapshots.append(replace(dps, **tables))

    def snapshot(self, epoch):
        if not 0 <= epoch < len(self.snapshots):
            raise ValueError(
                f"epoch {epoch} outside recorded range [0, {len(self.snapshots)})"
            )
        return self.snapshots[epoch]

    def to_csv(self, path):
        # written a chunk of lines at a time: an epoch's text as one list
        # of lines would be the run's peak
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for e, snap in enumerate(self.snapshots):
                nonunit = np.flatnonzero(snap.w_inst != 1.0)
                fh.writelines(_text(e, "inst", snap.w_inst[nonunit], nonunit))
                fh.writelines(_text(e, "class", snap.w_class))
                fh.write(f"{e},wd,0,{float(snap.lam_wd)!r}\n")
                for kind in ("sigma_class", "sigma_inst"):
                    if getattr(snap, kind) is not None:
                        fh.writelines(_text(e, kind, getattr(snap, kind)))

    @classmethod
    def from_csv(cls, path, n_instances, n_classes):
        """Read a trajectory file into dense per-epoch tables.

        Each epoch's snapshot starts at its first row, which may not come
        before the first row of the epoch preceding it; the last row for an
        entry wins. The file is parsed in blocks; when a block does not
        parse or fails a check, what was built is dropped and the row reader
        reads the file again and raises ConfigError naming the file and line.
        The tables are read-only, and an epoch's table equal to the
        previous epoch's is that array.
        """
        try:
            read = cls._from_blocks(path, n_instances, n_classes)
        except (OSError, ValueError):
            read = cls._from_rows(path, n_instances, n_classes)
        log = cls(n_instances=n_instances, n_classes=n_classes)
        for snap in read.snapshots:
            log._append(snap, owned=True)
        return log

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
                and (value[code == KINDS.index("wd")] >= 0).all()
            ):
                raise ValueError("trajectory row out of range")
            for _ in range(len(snapshots), int(e.max()) + 1):
                snapshots.append(DataParamState.initial(n_instances, n_classes, wd_init=0.0))
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
                _put(
                    snapshots[epoch], KINDS[c], ident[lo:hi], value[lo:hi],
                    n_instances, n_classes,
                )
        return log

    @classmethod
    def _from_rows(cls, path, n_instances, n_classes):
        """``from_csv`` one row at a time: ``csvrows.read_rows`` checks the
        file, header and field counts; a row with a non-numeric or
        non-finite value, a negative or skipped epoch, an unknown kind, or
        an id outside its table raises ConfigError naming the file and line.
        """
        log = cls(n_instances=n_instances, n_classes=n_classes)
        sizes = dict(zip(KINDS, (n_instances, n_classes, 1, n_instances, n_classes)))
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
            if kind == "wd" and value < 0:
                raise ConfigError(f"{path} line {lineno}: negative weight decay {parts[3]!r}")
            if e > len(snapshots):
                raise ConfigError(
                    f"{path} line {lineno}: epoch {e} before any row of epoch "
                    f"{len(snapshots)}"
                )
            if e == len(snapshots):
                snapshots.append(DataParamState.initial(n_instances, n_classes, wd_init=0.0))
            _put(snapshots[e], kind, ident, value, n_instances, n_classes)
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
    fold f; an instance's weight and instance temperature are averaged
    over exactly those folds. Class tables and the decay coefficient
    average over all folds.
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
            # an instance no fold trains keeps its start: joint offset 0, else 1
            fill = 1.0 if sigma_class is None else 0.0
            sigma_inst = _fold_mean([s.sigma_inst for s in snaps], masks, counts, fill)
        out._append(
            DataParamState(
                w_inst=_fold_mean([s.w_inst for s in snaps], masks, counts, 1.0),
                w_class=np.mean([s.w_class for s in snaps], axis=0),
                lam_wd=float(np.mean([s.lam_wd for s in snaps])),
                sigma_class=sigma_class,
                sigma_inst=sigma_inst,
            ),
            owned=True,
        )
    return out
