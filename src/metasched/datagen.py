"""Synthetic classification data with stable instance identity.

Datasets keep their original instance indices through every split and
corruption, so per-instance learning rates, fold membership, and
clean/corrupt diagnostics all key off the same ids. Label corruption is
recorded in a manifest; meta and test views always carry true labels.

Both splits carve one stratified order: each class's rows, permuted by
the split seed, give their first rows to test, the next to meta and the
rest to train (the pool, under k-fold). ``holdout_split`` returns
(train, meta, test) and can carve meta and test from some classes only,
as personalization does with the classes of one superclass
(``superclass_members``); ``kfold_split`` returns (pool, test, folds),
dealing the pool into stratified folds. Both take plain sizes and a
seed. The rules a run's sizes obey live in ``config.validate_config``; a
split raises ConfigError only for what the data decides: a class too
small to carve, or a fold left empty.

File formats: dataset rows `index,label,true_label,f0..f{d-1}`,
corruption manifest rows `index,original,assigned` after a
`# noise_fraction=... seed=... n_population=...` line (left out when the
noise fraction is unknown), superclass map
rows `class,superclass`, all with a header line. The loaders read them
through `csvrows.read_rows`, so a missing file or a malformed row raises
ConfigError naming the file and line.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .csvrows import WRITE_LINES, read_rows
from .errors import ConfigError

DATASET_COLUMNS = ("index", "label", "true_label")  # then f0..f{d-1}
MANIFEST_COLUMNS = ("index", "original", "assigned")
SUPERCLASS_COLUMNS = ("class", "superclass")


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    true_labels: np.ndarray
    indices: np.ndarray
    n_classes: int
    superclass_map: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(
            self, "true_labels", np.asarray(self.true_labels, dtype=np.int64)
        )
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.true_labels.shape != (n,):
            raise ValueError("labels and true_labels must have one entry per row")
        if self.indices.shape != (n,):
            raise ValueError("indices must have one entry per row")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def digest(self):
        """sha256 of the arrays' bytes in C order; a contiguous array is
        hashed from its own buffer, with no copy."""
        h = hashlib.sha256()
        for a in (self.features, self.labels, self.true_labels, self.indices):
            h.update(np.ascontiguousarray(a))
        return h.hexdigest()

    def subset(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        return replace(
            self,
            features=self.features[positions],
            labels=self.labels[positions],
            true_labels=self.true_labels[positions],
            indices=self.indices[positions],
        )

    def restore_true_labels(self):
        return replace(self, labels=self.true_labels.copy())


@dataclass(frozen=True, eq=False)
class CorruptionManifest:
    """Exact record of every label draw, self-assignments included: draw r
    gave instance ``index[r]``, labelled ``original[r]``, the label
    ``assigned[r]``. The three are int64 arrays."""

    index: np.ndarray
    original: np.ndarray
    assigned: np.ndarray
    noise_fraction: float
    seed: int
    n_population: int

    def __post_init__(self):
        for name in ("index", "original", "assigned"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    @cached_property
    def corrupt_indices(self):
        """Instances whose assigned label actually differs from the original."""
        return self.index[self.assigned != self.original]

    @property
    def effective_flip_fraction(self):
        if self.n_population == 0:
            return 0.0
        return len(self.corrupt_indices) / self.n_population


def make_blobs(n_classes, per_class, dim, spread, seed):
    """Gaussian clusters with class means on a randomly rotated regular
    simplex of pairwise distance 4*spread; cluster noise std spread**2, so
    shrinking spread separates the classes.

    The features are built in place: the noise is drawn, scaled, and each
    class mean added to its class's contiguous rows. Addition commutes, so
    the bits are those of ``means[labels] + spread**2 * noise``, and no
    array but the result is the features' size.
    """
    if n_classes < 2:
        raise ConfigError("need at least 2 classes")
    if per_class < 1:
        raise ConfigError("need at least 1 sample per class")
    if dim < max(2, n_classes - 1):
        raise ConfigError(
            f"dim {dim} too small to hold a {n_classes}-vertex simplex "
            f"(need >= {max(2, n_classes - 1)})"
        )
    if not (math.isfinite(spread) and spread > 0):
        raise ConfigError(f"spread must be a positive finite number, got {spread!r}")
    rng = np.random.default_rng(seed)
    centered = np.eye(n_classes) - 1.0 / n_classes
    u, s, _ = np.linalg.svd(centered)
    verts = u[:, : n_classes - 1] * s[: n_classes - 1]  # pairwise distance sqrt(2)
    verts *= 4.0 * spread / np.sqrt(2.0)
    means = np.zeros((n_classes, dim))
    means[:, : n_classes - 1] = verts
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    means = means @ q.T
    n = n_classes * per_class
    labels = np.repeat(np.arange(n_classes), per_class)
    features = rng.standard_normal((n, dim))
    features *= spread**2
    for c in range(n_classes):
        features[c * per_class : (c + 1) * per_class] += means[c]
    return LabeledDataset(
        features=features,
        labels=labels,
        true_labels=labels.copy(),
        indices=np.arange(n),
        n_classes=n_classes,
    )


def corrupt_labels(ds, p, seed):
    """Independently with probability p, replace each label by a uniform
    draw over all classes (the draw may equal the original)."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("noise fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    drawn = np.flatnonzero(rng.random(ds.n) < p)
    assigned = rng.integers(0, ds.n_classes, size=ds.n)[drawn]
    manifest = CorruptionManifest(ds.indices[drawn], ds.labels[drawn], assigned, p, seed, ds.n)
    labels = ds.labels.copy()
    labels[drawn] = assigned
    return replace(ds, labels=labels), manifest


def _stratified_order(ds, rng):
    """Per-class permuted positions, listed by true label."""
    return [rng.permutation(np.flatnonzero(ds.true_labels == c)) for c in range(ds.n_classes)]


def _carve(ds, rng, classes, test_per_class, meta_per_class):
    """Sorted (test, meta, rest) positions of ``ds``. Each class in
    ``classes`` gives the first ``test_per_class`` positions of its
    permuted order to test, the next ``meta_per_class`` to meta and the
    rest, which must keep one, to rest; any other class goes whole to rest."""
    need = test_per_class + meta_per_class
    test_pos, meta_pos, rest_pos = [], [], []
    for c, order in enumerate(_stratified_order(ds, rng)):
        if c not in classes:
            rest_pos.append(order)
            continue
        if need >= order.size:
            raise ConfigError(
                f"class {c} has {order.size} instances, cannot carve "
                f"{need} for meta/test and keep any for training"
            )
        test_pos.append(order[:test_per_class])
        meta_pos.append(order[test_per_class:need])
        rest_pos.append(order[need:])
    return tuple(np.sort(np.concatenate(pos)) for pos in (test_pos, meta_pos, rest_pos))


def holdout_split(ds, meta_per_class, test_per_class, seed, classes=None):
    """(train, meta, test): disjoint stratified views, meta and test with
    true labels. Only ``classes`` (by default every class) give rows to
    meta and test; any other class goes whole to train."""
    rng = np.random.default_rng(seed)
    if classes is None:
        classes = range(ds.n_classes)
    test_pos, meta_pos, rest_pos = _carve(ds, rng, classes, test_per_class, meta_per_class)
    return (
        ds.subset(rest_pos),
        ds.subset(meta_pos).restore_true_labels(),
        ds.subset(test_pos).restore_true_labels(),
    )


def kfold_split(ds, test_per_class, k, seed):
    """(pool, test, folds): a stratified test view with true labels, and
    the rest as a pool dealt into ``k`` stratified folds of sorted pool
    positions. Class c deals the j-th row of its permuted order to fold
    j % k."""
    rng = np.random.default_rng(seed)
    test_pos, _, rest_pos = _carve(ds, rng, range(ds.n_classes), test_per_class, 0)
    pool = ds.subset(rest_pos)
    orders = _stratified_order(pool, rng)
    # class c fills folds 0 .. n_c - 1: past the largest pool a fold
    # would hold no row
    largest = max(order.size for order in orders)
    if k > largest:
        raise ConfigError(
            f"split.k = {k} exceeds the largest class pool ({largest} "
            "instances), so some fold would be empty"
        )
    positions = np.concatenate(orders)
    fold_of = np.concatenate([np.arange(order.size) % k for order in orders])
    folds = tuple(np.sort(positions[fold_of == f]) for f in range(k))
    return pool, ds.subset(test_pos).restore_true_labels(), folds


def fold_view(pool, folds, f):
    """(train, meta) for fold f: train keeps the pool labels as given
    (possibly corrupted); meta is the held-out fold with true labels."""
    if not 0 <= f < len(folds):
        raise ConfigError(f"fold {f} outside [0, {len(folds)})")
    held = folds[f]
    rest = np.sort(np.concatenate([folds[j] for j in range(len(folds)) if j != f]))
    return pool.subset(rest), pool.subset(held).restore_true_labels()


def assign_superclasses(ds, n_super):
    """Group classes into contiguous equal blocks of superclasses."""
    k = ds.n_classes
    if n_super < 1 or k % n_super != 0:
        raise ConfigError(f"{k} classes do not divide into {n_super} superclasses")
    mapping = {c: c * n_super // k for c in range(k)}
    return replace(ds, superclass_map=mapping)


def superclass_members(ds, target):
    """The sorted classes ``ds``'s superclass map puts in ``target``."""
    if ds.superclass_map is None:
        raise ConfigError("dataset has no superclass map")
    members = tuple(sorted(c for c, s in ds.superclass_map.items() if s == target))
    if not members:
        known = sorted(set(ds.superclass_map.values()))
        raise ConfigError(f"unknown superclass {target!r} (have {known})")
    return members


def save_dataset(ds, path):
    """Write ``ds`` as a dataset CSV file. ``load_dataset`` reads no file
    without rows or features, so such a dataset raises ValueError."""
    if ds.n == 0 or ds.dim == 0:
        raise ValueError(
            f"cannot save a dataset of {ds.n} rows and {ds.dim} features: "
            "the file format needs at least one of each"
        )
    lines = [",".join(DATASET_COLUMNS + tuple(f"f{j}" for j in range(ds.dim)))]
    for p in range(ds.n):
        feats = ",".join(repr(float(v)) for v in ds.features[p])
        lines.append(f"{ds.indices[p]},{ds.labels[p]},{ds.true_labels[p]},{feats}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path):
    """The dataset in the CSV file at ``path``. A malformed row, or a file
    with no data rows or no feature column, raises ConfigError naming the
    file (and the line where there is one)."""
    indices, labels, true_labels, rows, line_of = [], [], [], [], {}
    for lineno, parts in read_rows(path, DATASET_COLUMNS, extra_columns=True):
        try:
            idx, label, true_label = (int(v) for v in parts[:3])
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: non-integer index or label") from None
        try:
            row = [float(v) for v in parts[3:]]
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: non-numeric feature") from None
        if not all(math.isfinite(v) for v in row):
            raise ConfigError(f"{path} line {lineno}: non-finite feature")
        if label < 0 or true_label < 0:
            raise ConfigError(f"{path} line {lineno}: negative label")
        if idx in line_of:
            raise ConfigError(
                f"{path} line {lineno}: duplicate instance index {idx} "
                f"(first on line {line_of[idx]})"
            )
        line_of[idx] = lineno
        indices.append(idx)
        labels.append(label)
        true_labels.append(true_label)
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if not rows[0]:
        raise ConfigError(
            f"{path}: no feature column, expected header {','.join(DATASET_COLUMNS)},f0,..."
        )
    # learned tables are sized by the row count and indexed by instance id
    for idx, lineno in line_of.items():
        if not 0 <= idx < len(indices):
            raise ConfigError(
                f"{path} line {lineno}: instance index {idx} outside [0, {len(indices)})"
            )
    true_arr = np.array(true_labels, dtype=np.int64)
    n_classes = int(true_arr.max()) + 1
    # the class count comes from the true labels; a noisy label names one of them
    for idx, label in zip(indices, labels):
        if label >= n_classes:
            raise ConfigError(
                f"{path} line {line_of[idx]}: label {label} outside [0, {n_classes})"
            )
    return LabeledDataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        true_labels=true_arr,
        indices=np.array(indices, dtype=np.int64),
        n_classes=n_classes,
    )


def save_manifest(manifest, path):
    """Write ``manifest`` as a manifest CSV file, ``WRITE_LINES`` entries
    at a time."""
    columns = (manifest.index, manifest.original, manifest.assigned)
    with open(path, "w", encoding="utf-8") as fh:
        # a manifest read without a metadata line has no noise fraction to write
        if not math.isnan(manifest.noise_fraction):
            fh.write(
                f"# noise_fraction={manifest.noise_fraction!r} seed={manifest.seed} "
                f"n_population={manifest.n_population}\n"
            )
        fh.write(",".join(MANIFEST_COLUMNS) + "\n")
        for lo in range(0, manifest.index.size, WRITE_LINES):
            rows = zip(*(column[lo : lo + WRITE_LINES].tolist() for column in columns))
            fh.write("".join(f"{i},{o},{a}\n" for i, o, a in rows))


def _int_row(path, lineno, fields):
    try:
        values = tuple(int(v) for v in fields)
    except ValueError:
        values = None
    if values is None or min(values) < 0:
        raise ConfigError(
            f"{path} line {lineno}: expected non-negative integers, got {','.join(fields)!r}"
        )
    return values


def _manifest_metadata(path, lineno, text):
    """(noise_fraction, seed, n_population) from the line save_manifest writes."""
    fields = dict(token.partition("=")[::2] for token in text[1:].split())
    try:
        out = (
            float(fields.pop("noise_fraction")),
            int(fields.pop("seed")),
            int(fields.pop("n_population")),
        )
    except (KeyError, ValueError):
        out = None
    if out is None or fields or not 0.0 <= out[0] <= 1.0 or out[2] < 0:
        raise ConfigError(
            f"{path} line {lineno}: malformed manifest metadata {text!r}, expected "
            "'# noise_fraction=<p in [0, 1]> seed=<int> n_population=<int >= 0>'"
        )
    return out


def load_manifest(path, ds=None):
    """The corruption manifest at ``path``.

    ``ds`` is the dataset the manifest describes. Each row must then name
    one of its instances, hold labels in [0, n_classes), and assign the
    label the dataset holds for that instance. A run directory's own
    ``manifest.csv`` is read without a dataset.
    """
    label_of = None if ds is None else dict(zip(ds.indices.tolist(), ds.labels.tolist()))
    noise_fraction, seed, n_population = float("nan"), 0, 0
    entries, line_of = [], {}
    for lineno, fields in read_rows(path, MANIFEST_COLUMNS, comments=True):
        if fields[0].startswith("#"):
            noise_fraction, seed, n_population = _manifest_metadata(path, lineno, fields[0])
            continue
        entry = _int_row(path, lineno, fields)
        index, original, assigned = entry
        if index in line_of:
            raise ConfigError(
                f"{path} line {lineno}: duplicate instance index {index} "
                f"(first on line {line_of[index]})"
            )
        if label_of is not None:
            if index not in label_of:
                raise ConfigError(
                    f"{path} line {lineno}: instance index {index} is not in the "
                    f"dataset ({ds.n} rows)"
                )
            for name, label in (("original", original), ("assigned", assigned)):
                if label >= ds.n_classes:
                    raise ConfigError(
                        f"{path} line {lineno}: {name} label {label} outside "
                        f"[0, {ds.n_classes})"
                    )
            if assigned != label_of[index]:
                raise ConfigError(
                    f"{path} line {lineno}: assigned label {assigned} differs from the "
                    f"dataset's label {label_of[index]} for instance {index}"
                )
        if max(entry) >= 2**63:
            raise ConfigError(f"{path} line {lineno}: {max(entry)} does not fit a 64-bit integer")
        line_of[index] = lineno
        entries.append(entry)
    columns = np.array(entries, dtype=np.int64).reshape(-1, 3)
    return CorruptionManifest(*columns.T, noise_fraction, seed, n_population)


def save_superclass_map(mapping, path):
    lines = [",".join(SUPERCLASS_COLUMNS)]
    for c in sorted(mapping):
        lines.append(f"{c},{mapping[c]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_superclass_map(path, n_classes):
    """class -> superclass for a dataset of ``n_classes`` classes."""
    mapping, line_of = {}, {}
    for lineno, fields in read_rows(path, SUPERCLASS_COLUMNS):
        c, superclass = _int_row(path, lineno, fields)
        if c >= n_classes:
            raise ConfigError(f"{path} line {lineno}: class {c} outside [0, {n_classes})")
        if c in line_of:
            raise ConfigError(
                f"{path} line {lineno}: duplicate class {c} (first on line {line_of[c]})"
            )
        line_of[c] = lineno
        mapping[c] = superclass
    return mapping
