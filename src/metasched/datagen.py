"""Synthetic classification data with stable instance identity.

Datasets keep their original instance indices through every split and
corruption, so per-instance learning rates, fold membership, and
clean/corrupt diagnostics all key off the same ids. Label corruption is
recorded in a manifest; meta and test views always carry true labels.

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

import numpy as np

from .csvrows import read_rows
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
    class_names: tuple
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
    def n_classes(self):
        return len(self.class_names)

    @property
    def digest(self):
        h = hashlib.sha256()
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        h.update(self.true_labels.tobytes())
        h.update(self.indices.tobytes())
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


@dataclass(frozen=True)
class CorruptionManifest:
    """Exact record of every label draw, self-assignments included."""

    entries: tuple
    noise_fraction: float
    seed: int
    n_population: int

    @property
    def corrupt_indices(self):
        """Instances whose assigned label actually differs from the original."""
        return np.array(
            [e[0] for e in self.entries if e[2] != e[1]], dtype=np.int64
        )

    @property
    def effective_flip_fraction(self):
        if self.n_population == 0:
            return 0.0
        return len(self.corrupt_indices) / self.n_population


def make_blobs(n_classes, per_class, dim, spread, seed):
    """Gaussian clusters with class means on a randomly rotated regular
    simplex of pairwise distance 4*spread; cluster noise std spread**2, so
    shrinking spread separates the classes.
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
    if spread <= 0:
        raise ConfigError("spread must be positive")
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
    features = means[labels] + spread**2 * rng.standard_normal((n, dim))
    return LabeledDataset(
        features=features,
        labels=labels.copy(),
        true_labels=labels.copy(),
        indices=np.arange(n),
        class_names=tuple(f"c{c}" for c in range(n_classes)),
    )


def corrupt_labels(ds, p, seed):
    """Independently with probability p, replace each label by a uniform
    draw over all classes (the draw may equal the original)."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("noise fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    drawn = rng.random(ds.n) < p
    assigned = rng.integers(0, ds.n_classes, size=ds.n)
    labels = ds.labels.copy()
    entries = []
    for pos in np.flatnonzero(drawn):
        entries.append((int(ds.indices[pos]), int(labels[pos]), int(assigned[pos])))
        labels[pos] = assigned[pos]
    manifest = CorruptionManifest(
        entries=tuple(entries), noise_fraction=p, seed=seed, n_population=ds.n
    )
    return replace(ds, labels=labels), manifest


@dataclass(frozen=True)
class SplitSpec:
    kind: str = "holdout"
    meta_per_class: int = 20
    test_per_class: int = 100
    k: int = 5
    seed: int = 0
    target_superclass: int | None = None

    def __post_init__(self):
        if self.kind not in ("holdout", "kfold"):
            raise ConfigError(f"unknown split kind {self.kind!r}")
        if self.meta_per_class < 0 or self.test_per_class < 0:
            raise ConfigError("split sizes must be non-negative")
        if self.kind == "kfold" and self.k < 2:
            raise ConfigError("k-fold splitting needs k >= 2")


@dataclass(frozen=True)
class HoldoutSplits:
    train: LabeledDataset
    meta: LabeledDataset
    test: LabeledDataset


@dataclass(frozen=True)
class KFoldSplits:
    pool: LabeledDataset
    test: LabeledDataset
    folds: tuple  # position arrays into pool


def _stratified_order(ds, rng):
    """Per-class permuted position lists, keyed by true label."""
    by_class = {}
    for c in range(ds.n_classes):
        positions = np.flatnonzero(ds.true_labels == c)
        by_class[c] = rng.permutation(positions)
    return by_class


def _carve(ds, rng, classes, test_per_class, meta_per_class):
    """Sorted (test, meta, rest) positions of ``ds``. Each class in
    ``classes`` gives the first ``test_per_class`` positions of its
    permuted order to test, the next ``meta_per_class`` to meta and the
    rest, which must keep one, to rest; any other class goes whole to rest."""
    by_class = _stratified_order(ds, rng)
    need = test_per_class + meta_per_class
    test_pos, meta_pos, rest_pos = [], [], []
    for c in range(ds.n_classes):
        order = by_class[c]
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


def split(ds, spec):
    """Disjoint stratified views; meta and test always carry true labels."""
    rng = np.random.default_rng(spec.seed)
    meta_per_class = spec.meta_per_class if spec.kind == "holdout" else 0
    test_pos, meta_pos, rest_pos = _carve(
        ds, rng, range(ds.n_classes), spec.test_per_class, meta_per_class
    )
    test = ds.subset(test_pos).restore_true_labels()
    if spec.kind == "holdout":
        meta = ds.subset(meta_pos).restore_true_labels()
        return HoldoutSplits(train=ds.subset(rest_pos), meta=meta, test=test)
    pool = ds.subset(rest_pos)
    fold_lists = [[] for _ in range(spec.k)]
    pool_by_class = _stratified_order(pool, rng)
    for c in range(pool.n_classes):
        for j, pos in enumerate(pool_by_class[c]):
            fold_lists[j % spec.k].append(pos)
    folds = tuple(np.sort(np.array(f, dtype=np.int64)) for f in fold_lists)
    return KFoldSplits(pool=pool, test=test, folds=folds)


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


@dataclass(frozen=True)
class PersonalizationSplits:
    full_train: LabeledDataset
    biased_train: LabeledDataset
    meta: LabeledDataset
    test: LabeledDataset
    target_classes: tuple


def personalization_split(ds, target, meta_per_class, test_per_class, seed):
    """Carve meta/test from the target superclass only; full_train keeps
    every class, biased_train only the target classes."""
    if ds.superclass_map is None:
        raise ConfigError("dataset has no superclass map")
    target_classes = tuple(
        sorted(c for c, s in ds.superclass_map.items() if s == target)
    )
    if not target_classes:
        known = sorted(set(ds.superclass_map.values()))
        raise ConfigError(f"unknown superclass {target!r} (have {known})")
    rng = np.random.default_rng(seed)
    test_pos, meta_pos, train_pos = _carve(
        ds, rng, target_classes, test_per_class, meta_per_class
    )
    full_train = ds.subset(train_pos)
    biased_pos = np.flatnonzero(np.isin(full_train.true_labels, target_classes))
    return PersonalizationSplits(
        full_train=full_train,
        biased_train=full_train.subset(biased_pos),
        meta=ds.subset(meta_pos).restore_true_labels(),
        test=ds.subset(test_pos).restore_true_labels(),
        target_classes=target_classes,
    )


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
        class_names=tuple(f"c{c}" for c in range(n_classes)),
    )


def save_manifest(manifest, path):
    # a manifest read without a metadata line has no noise fraction to write
    lines = []
    if not math.isnan(manifest.noise_fraction):
        lines.append(
            f"# noise_fraction={manifest.noise_fraction!r} seed={manifest.seed} "
            f"n_population={manifest.n_population}"
        )
    lines.append(",".join(MANIFEST_COLUMNS))
    for idx, original, assigned in manifest.entries:
        lines.append(f"{idx},{original},{assigned}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
        line_of[index] = lineno
        entries.append(entry)
    return CorruptionManifest(
        entries=tuple(entries),
        noise_fraction=noise_fraction,
        seed=seed,
        n_population=n_population,
    )


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
