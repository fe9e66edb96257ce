"""Synthetic blobs, label corruption, splitting, personalization."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasched.datagen import (
    CorruptionManifest,
    LabeledDataset,
    SplitSpec,
    assign_superclasses,
    corrupt_labels,
    fold_view,
    load_dataset,
    load_manifest,
    load_superclass_map,
    make_blobs,
    personalization_split,
    save_dataset,
    save_manifest,
    save_superclass_map,
    split,
)
from metasched.errors import ConfigError


def class_means(ds):
    return np.stack(
        [ds.features[ds.true_labels == c].mean(axis=0) for c in range(ds.n_classes)]
    )


def nearest_mean_accuracy(features, labels, means):
    d2 = ((features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == labels).mean())


def test_same_seed_identical_bytes():
    a = make_blobs(4, 30, 8, 0.7, seed=11)
    b = make_blobs(4, 30, 8, 0.7, seed=11)
    assert a.digest == b.digest
    c = make_blobs(4, 30, 8, 0.7, seed=12)
    assert a.digest != c.digest


def test_tiny_spread_is_perfectly_separable():
    ds = make_blobs(5, 40, 8, 1e-3, seed=0)
    acc = nearest_mean_accuracy(ds.features, ds.true_labels, class_means(ds))
    assert acc == 1.0


def test_class_means_sit_on_scaled_simplex():
    # noise std is spread**2, so at spread 0.1 the empirical means recover
    # the simplex geometry to ~1e-3
    spread = 0.1
    ds = make_blobs(4, 500, 6, spread, seed=3)
    means = class_means(ds)
    for a in range(4):
        for b in range(a + 1, 4):
            dist = np.linalg.norm(means[a] - means[b])
            assert abs(dist - 4.0 * spread) < 5e-3


def test_nearest_mean_tracks_monte_carlo_bayes_rate():
    ds = make_blobs(3, 200, 4, 1.0, seed=5)
    means = class_means(ds)
    acc = nearest_mean_accuracy(ds.features, ds.true_labels, means)

    # fresh draws from the same cluster shape: mean + spread^2 * noise
    rng = np.random.default_rng(9001)
    per = 100_000 // 3
    labels = np.repeat(np.arange(3), per)
    fresh = means[labels] + 1.0 * rng.standard_normal((labels.size, 4))
    bayes = nearest_mean_accuracy(fresh, labels, means)
    assert abs(acc - bayes) <= 0.03


def test_make_blobs_validation():
    with pytest.raises(ConfigError):
        make_blobs(1, 10, 4, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_blobs(3, 0, 4, 1.0, seed=0)
    with pytest.raises(ConfigError, match="simplex"):
        make_blobs(10, 10, 8, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_blobs(3, 10, 4, 0.0, seed=0)


def test_corrupt_p_zero_is_noop():
    ds = make_blobs(3, 20, 4, 0.5, seed=1)
    out, manifest = corrupt_labels(ds, 0.0, seed=2)
    assert out.digest == ds.digest
    assert manifest.entries == ()
    assert manifest.effective_flip_fraction == 0.0


def test_corrupt_p_one_flips_about_two_thirds():
    ds = make_blobs(3, 1000, 4, 0.5, seed=1)
    out, manifest = corrupt_labels(ds, 1.0, seed=2)
    assert len(manifest.entries) == 3000  # every instance drawn
    frac = np.mean(out.labels != out.true_labels)
    assert abs(frac - 2.0 / 3.0) <= 0.03
    assert manifest.effective_flip_fraction == frac


def test_manifest_matches_actual_label_changes():
    ds = make_blobs(4, 50, 6, 0.5, seed=1)
    out, manifest = corrupt_labels(ds, 0.3, seed=7)
    changed = set(out.indices[out.labels != out.true_labels].tolist())
    assert changed == set(manifest.corrupt_indices.tolist())
    for _, original, assigned in manifest.entries:
        assert 0 <= assigned < 4
        assert 0 <= original < 4


def test_manifest_replay_and_inversion():
    ds = make_blobs(4, 50, 6, 0.5, seed=1)
    out, _ = corrupt_labels(ds, 0.4, seed=7)
    assert out.restore_true_labels().digest == ds.digest


def test_split_determinism():
    ds = make_blobs(5, 60, 6, 0.8, seed=2)
    spec = SplitSpec(kind="holdout", meta_per_class=10, test_per_class=15, seed=4)
    a, b = split(ds, spec), split(ds, spec)
    assert np.array_equal(a.train.indices, b.train.indices)
    assert np.array_equal(a.meta.indices, b.meta.indices)
    assert np.array_equal(a.test.indices, b.test.indices)


def test_holdout_is_stratified_and_disjoint():
    ds = make_blobs(5, 60, 6, 0.8, seed=2)
    spec = SplitSpec(kind="holdout", meta_per_class=10, test_per_class=15, seed=4)
    parts = split(ds, spec)
    for view, per in ((parts.meta, 10), (parts.test, 15), (parts.train, 35)):
        counts = np.bincount(view.true_labels, minlength=5)
        assert np.array_equal(counts, np.full(5, per))
    pools = [set(parts.train.indices), set(parts.meta.indices), set(parts.test.indices)]
    assert not (pools[0] & pools[1]) and not (pools[0] & pools[2])
    assert not (pools[1] & pools[2])
    assert pools[0] | pools[1] | pools[2] == set(ds.indices)


def test_holdout_infeasible_sizes_rejected():
    ds = make_blobs(3, 20, 4, 0.8, seed=2)
    with pytest.raises(ConfigError):
        split(ds, SplitSpec(kind="holdout", meta_per_class=10, test_per_class=10, seed=0))


def test_kfold_partitions_the_pool():
    ds = make_blobs(5, 20, 6, 0.8, seed=2)  # N=100
    spec = SplitSpec(kind="kfold", test_per_class=0, k=5, seed=4)
    parts = split(ds, spec)
    sizes = [f.size for f in parts.folds]
    assert sizes == [20] * 5
    all_pos = np.sort(np.concatenate(parts.folds))
    assert np.array_equal(all_pos, np.arange(parts.pool.n))
    for i in range(5):
        for j in range(i + 1, 5):
            assert not set(parts.folds[i]) & set(parts.folds[j])


def test_each_instance_trains_in_k_minus_one_folds():
    ds = make_blobs(4, 15, 6, 0.8, seed=2)
    spec = SplitSpec(kind="kfold", test_per_class=5, k=3, seed=4)
    parts = split(ds, spec)
    seen = {int(idx): 0 for idx in parts.pool.indices}
    for f in range(3):
        train, meta = fold_view(parts.pool, parts.folds, f)
        for idx in train.indices:
            seen[int(idx)] += 1
        assert not set(train.indices) & set(meta.indices)
    assert set(seen.values()) == {2}
    with pytest.raises(ConfigError):
        fold_view(parts.pool, parts.folds, 3)


def test_meta_and_test_labels_stay_clean():
    ds = make_blobs(5, 60, 6, 0.8, seed=2)
    noisy, _ = corrupt_labels(ds, 0.5, seed=9)
    parts = split(noisy, SplitSpec(kind="holdout", meta_per_class=10, test_per_class=10, seed=4))
    assert np.array_equal(parts.meta.labels, parts.meta.true_labels)
    assert np.array_equal(parts.test.labels, parts.test.true_labels)
    # train keeps the corruption
    assert np.any(parts.train.labels != parts.train.true_labels)

    kparts = split(noisy, SplitSpec(kind="kfold", test_per_class=10, k=4, seed=4))
    for f in range(4):
        _, meta = fold_view(kparts.pool, kparts.folds, f)
        assert np.array_equal(meta.labels, meta.true_labels)


def test_assign_superclasses_blocks_and_divisibility():
    ds = make_blobs(10, 5, 12, 0.8, seed=2)
    grouped = assign_superclasses(ds, 2)
    assert grouped.superclass_map == {c: 0 if c < 5 else 1 for c in range(10)}
    with pytest.raises(ConfigError):
        assign_superclasses(ds, 3)


def test_personalization_target_filter():
    ds = assign_superclasses(make_blobs(10, 30, 12, 0.8, seed=2), 2)
    parts = personalization_split(ds, 1, meta_per_class=5, test_per_class=5, seed=3)
    assert parts.target_classes == (5, 6, 7, 8, 9)
    assert set(parts.biased_train.true_labels.tolist()) == {5, 6, 7, 8, 9}
    assert set(parts.meta.labels.tolist()) <= {5, 6, 7, 8, 9}
    assert set(parts.test.labels.tolist()) <= {5, 6, 7, 8, 9}
    # non-target classes keep every instance in full_train
    for c in range(5):
        assert (parts.full_train.true_labels == c).sum() == 30


def test_personalization_degenerate_target_is_full_train():
    ds = assign_superclasses(make_blobs(4, 30, 6, 0.8, seed=2), 1)
    parts = personalization_split(ds, 0, meta_per_class=5, test_per_class=5, seed=3)
    assert parts.biased_train.digest == parts.full_train.digest


@pytest.mark.parametrize("seed", [3, 11])
def test_personalization_over_every_class_carves_as_holdout(seed):
    ds = assign_superclasses(make_blobs(4, 30, 6, 0.8, seed=2), 1)
    parts = personalization_split(ds, 0, meta_per_class=4, test_per_class=6, seed=seed)
    holdout = split(ds, SplitSpec(kind="holdout", meta_per_class=4, test_per_class=6, seed=seed))
    for got, want in [
        (parts.test, holdout.test),
        (parts.meta, holdout.meta),
        (parts.full_train, holdout.train),
    ]:
        assert np.array_equal(got.indices, want.indices)
        assert got.digest == want.digest


def test_personalization_errors():
    plain = make_blobs(4, 30, 6, 0.8, seed=2)
    with pytest.raises(ConfigError, match="superclass map"):
        personalization_split(plain, 0, 5, 5, seed=3)
    ds = assign_superclasses(plain, 2)
    with pytest.raises(ConfigError, match="unknown superclass"):
        personalization_split(ds, 7, 5, 5, seed=3)


def test_dataset_file_round_trip(tmp_path):
    ds, _ = corrupt_labels(make_blobs(3, 12, 5, 0.8, seed=6), 0.5, seed=1)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "index,label,true_label,f0,f1,f2,f3,f4"
    back = load_dataset(path)
    assert back.digest == ds.digest


def test_dataset_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("idx,label,true_label,f0\n")
    with pytest.raises(ConfigError, match="line 1: expected header index,label,true_label"):
        load_dataset(path)
    path.write_text("\n\n")
    with pytest.raises(ConfigError, match="no header line"):
        load_dataset(path)
    path.write_bytes(b"index,label,true_label,f0\n0,0,0,\xff\n")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        load_dataset(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,label,true_label,f0,f1\n", "no data rows"),
        ("index,label,true_label,f0\n\n\n", "no data rows"),
        ("index,label,true_label\n", "no data rows"),
        ("index,label,true_label\n0,0,0\n1,1,1\n", "no feature column"),
    ],
)
def test_dataset_loader_rejects_empty_or_featureless_file(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"data\.csv: {message}"):
        load_dataset(path)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
def test_save_dataset_rejects_no_rows_or_no_features(tmp_path, shape):
    n = shape[0]
    ds = LabeledDataset(np.zeros(shape), np.zeros(n), np.zeros(n), np.arange(n), ("c0",))
    path = tmp_path / "data.csv"
    with pytest.raises(ValueError, match=f"{shape[0]} rows and {shape[1]} features"):
        save_dataset(ds, path)
    assert not path.exists()


def test_dataset_loader_rejects_duplicate_index(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("index,label,true_label,f0\n0,0,0,1.0\n1,1,1,2.0\n0,1,1,3.0\n")
    with pytest.raises(ConfigError, match=r"data\.csv line 4: duplicate instance index 0"):
        load_dataset(path)


def test_dataset_loader_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("index,label,true_label,f0\n0,0,0,1.0\n99999,1,1,2.0\n")
    with pytest.raises(ConfigError, match=r"data\.csv line 3: instance index 99999 outside"):
        load_dataset(path)
    path.write_text("index,label,true_label,f0\n-1,0,0,1.0\n1,1,1,2.0\n")
    with pytest.raises(ConfigError, match="line 2: instance index -1"):
        load_dataset(path)


def test_manifest_file_round_trip(tmp_path):
    ds = make_blobs(3, 40, 5, 0.8, seed=6)
    _, manifest = corrupt_labels(ds, 0.35, seed=8)
    path = tmp_path / "manifest.csv"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert back.entries == manifest.entries
    assert back.noise_fraction == manifest.noise_fraction
    assert back.seed == manifest.seed
    assert back.n_population == manifest.n_population


ROUND_TRIPS = {"deadline": None, "derandomize": True, "max_examples": 100}


@settings(**ROUND_TRIPS)
@given(data=st.data())
def test_dataset_save_load_is_bit_exact(data):
    n = data.draw(st.integers(1, 12))
    dim = data.draw(st.integers(1, 4))
    true_labels = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    # the loader counts classes from the true labels; a noisy label names one of them
    labels = data.draw(
        st.lists(st.integers(0, max(true_labels)), min_size=n, max_size=n)
    )
    values = st.floats(allow_nan=False, allow_infinity=False)
    features = data.draw(st.lists(values, min_size=n * dim, max_size=n * dim))
    ds = LabeledDataset(
        features=np.reshape(features, (n, dim)),
        labels=labels,
        true_labels=true_labels,
        indices=data.draw(st.permutations(range(n))),
        class_names=tuple(f"c{c}" for c in range(max(true_labels) + 1)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
    for name in ("features", "labels", "true_labels", "indices"):
        a, b = getattr(ds, name), getattr(back, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert back.class_names == ds.class_names


@st.composite
def manifests(draw):
    """A manifest as corrupt_labels makes it, or with no metadata line."""
    index = st.integers(0, 10**6)
    label = st.integers(0, 9)
    entries = draw(
        st.lists(st.tuples(index, label, label), max_size=12, unique_by=lambda e: e[0])
    )
    if draw(st.booleans()):
        return CorruptionManifest(
            entries=tuple(entries),
            noise_fraction=draw(st.floats(0.0, 1.0)),
            seed=draw(st.integers(-(2**63), 2**63)),
            n_population=draw(st.integers(0, 10**6)),
        )
    return CorruptionManifest(tuple(entries), float("nan"), 0, 0)


def manifest_fields(manifest):
    return (
        manifest.entries,
        repr(manifest.noise_fraction),
        manifest.seed,
        manifest.n_population,
    )


@settings(**ROUND_TRIPS)
@given(manifest=manifests())
def test_manifest_save_load_keeps_entries_and_metadata(manifest):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.csv")
        if math.isnan(manifest.noise_fraction):
            # a manifest loaded from a file that has no metadata line
            rows = [f"{i},{o},{a}" for i, o, a in manifest.entries]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(["index,original,assigned", *rows]) + "\n")
            assert manifest_fields(load_manifest(path)) == manifest_fields(manifest)
        save_manifest(manifest, path)
        back = load_manifest(path)
    assert manifest_fields(back) == manifest_fields(manifest)


def test_superclass_file_round_trip(tmp_path):
    mapping = {c: c // 5 for c in range(10)}
    path = tmp_path / "super.csv"
    save_superclass_map(mapping, path)
    assert load_superclass_map(path, 10) == mapping
    path.write_text("cls,super\n")
    with pytest.raises(ConfigError):
        load_superclass_map(path, 10)


def test_subset_keeps_original_indices():
    ds = make_blobs(3, 20, 4, 0.8, seed=1)
    sub = ds.subset(np.array([5, 17, 40]))
    assert np.array_equal(sub.indices, [5, 17, 40])
    assert np.array_equal(sub.features, ds.features[[5, 17, 40]])
