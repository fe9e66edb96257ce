"""End-to-end CLI: subcommand pipeline, exit codes, override handling."""

import json
import math
from pathlib import Path

import pytest

from metasched import nn
from metasched.cli import main
from metasched.config import KEY_MAP, RunConfig, load_config
from metasched.datagen import load_dataset

DATA_OVERRIDES = [
    "--override", "data.classes=3",
    "--override", "data.per_class=14",
    "--override", "data.dim=4",
    "--override", "split.meta_per_class=2",
    "--override", "split.test_per_class=2",
    "--override", "train.batch_size=8",
    "--override", "train.epochs=3",
    "--override", "model.hidden=8",
]


def test_generate_corrupt_train_analyze_pipeline(tmp_path, capsys):
    data = tmp_path / "data.csv"
    noisy = tmp_path / "noisy.csv"
    man = tmp_path / "manifest.csv"
    run_dir = tmp_path / "run"

    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4",
        "--spread", "0.8", "--seed", "5", "--out", str(data),
    ]) == 0
    assert load_dataset(data).n == 42

    assert main([
        "corrupt", "--data", str(data), "--p", "0.4", "--seed", "6",
        "--out", str(noisy), "--manifest-out", str(man),
    ]) == 0
    assert "effective flip fraction" in capsys.readouterr().out

    assert main([
        "train",
        "--override", f"data.path={noisy}",
        "--override", f"data.manifest={man}",
        "--override", "meta.mode=instance",
        *DATA_OVERRIDES,
        "--seed", "3",
        "--out", str(run_dir),
    ]) == 0
    metrics = (run_dir / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 3
    # file-borne corruption keeps its provenance
    assert json.loads(metrics[-1])["w_corrupt_mean"] is not None
    assert (run_dir / "manifest.csv").exists()

    assert main(["analyze", "--run", str(run_dir)]) == 0
    report = json.loads((run_dir / "analysis.json").read_text())
    assert 0.0 <= report["separation"]["auc"] <= 1.0
    assert "rate_accuracy_correlation" in report


def test_gradcheck_reports_and_exit_code(capsys):
    assert main(["gradcheck", "--trials", "5", "--seed", "3"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 6
    assert all("PASS" in line for line in lines)

    assert main(["gradcheck", "--trials", "5", "--target", "per_sample_grad"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 1 and lines[0].startswith("per_sample_grad:")


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--config", "{missing}"],
        ["train", "--override", "data.path={missing}"],
        ["train", "--override", "data.path={data}", "--override", "data.manifest={missing}",
         *DATA_OVERRIDES],
        ["train", "--override", "data.path={data}", "--override", "data.superclass_file={missing}"],
        ["replay", *DATA_OVERRIDES, "--trajectory", "{missing}"],
        ["corrupt", "--data", "{missing}", "--p", "0.1", "--out", "{data}", "--manifest-out", "{data}"],
    ],
    ids=["config", "data.path", "data.manifest", "data.superclass_file", "trajectory", "corrupt"],
)
def test_missing_input_file_names_the_path(tmp_path, capsys, argv):
    data = tmp_path / "data.csv"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4", "--out", str(data),
    ]) == 0
    missing = tmp_path / "absent" / "input.csv"
    capsys.readouterr()
    assert main([arg.format(missing=missing, data=data) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cannot read" in err and str(missing) in err


def test_bad_override_is_validation_error(capsys):
    assert main(["train", "--override", "train.lr=-1", *DATA_OVERRIDES]) == 1
    assert "positive" in capsys.readouterr().err


FLOAT_KEYS = [
    key for key, (name, _) in KEY_MAP.items() if isinstance(getattr(RunConfig(), name), float)
]
# optimizer hyperparameters, each with an optimizer that reads it
OPTIM_KEYS = {"optim.beta": "momentum", "optim.eps": "adam", "optim.lookahead_alpha": "lookahead_sgd"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [*FLOAT_KEYS, *OPTIM_KEYS])
def test_non_finite_float_is_validation_error(tmp_path, capsys, key, value):
    optimizer = OPTIM_KEYS.get(key, "sgd")
    code = main([
        "train", *DATA_OVERRIDES,
        "--override", f"train.optimizer={optimizer}",
        "--override", "lr_drop.epoch=0",
        "--override", f"{key}={value}",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {key}: expected a finite number, got {value!r}\n"
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


def test_overflowing_lr_drop_is_validation_error(tmp_path, capsys):
    code = main([
        "train", *DATA_OVERRIDES,
        "--override", "lr_drop.epoch=1",
        "--override", "lr_drop.factor=1e-320",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: lr_drop.factor 1e-320 is too small: the dropped rate "
        "train.lr / lr_drop.factor is not finite\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate-data", "--seed", "-1", "--out", "{tmp}/data.csv"],
        ["corrupt", "--data", "{tmp}/data.csv", "--p", "0.2", "--seed", "-1",
         "--out", "{tmp}/noisy.csv", "--manifest-out", "{tmp}/manifest.csv"],
        ["train", *DATA_OVERRIDES, "--seed", "-5"],
        ["kfold", *DATA_OVERRIDES, "--seed", "-5"],
        ["replay", *DATA_OVERRIDES, "--seed", "-5", "--trajectory", "{tmp}/trajectory.csv"],
        ["gradcheck", "--seed", "-1"],
    ],
)
def test_negative_seed_flag_is_validation_error(tmp_path, capsys, argv):
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: argument --seed: must be at least 0, got -")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "key", ["seed.data", "seed.init", "seed.shuffle", "noise.seed", "split.seed"]
)
def test_negative_seed_override_is_validation_error(tmp_path, capsys, key):
    argv = ["train", *DATA_OVERRIDES, "--override", f"{key}=-1", "--out", str(tmp_path / "run")]
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err == f"error: {key}: expected a non-negative seed, got -1\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("spread", ["nan", "inf"])
def test_non_finite_spread_is_validation_error(tmp_path, capsys, spread):
    data = tmp_path / "data.csv"
    code = main(["generate-data", "--spread", spread, "--out", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: spread must be a positive finite number, got {spread}\n"
    assert not data.exists()


def test_non_finite_float_in_config_file_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs = 1\ntemperature.lr = inf\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: temperature.lr: expected a finite number, got 'inf'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["train"],
        ["train", "--override", "data.n_superclasses=3",
         "--override", "personalization.target=0"],
        ["kfold", "--override", "split.kind=kfold"],
    ],
    ids=["holdout", "personalization", "kfold"],
)
def test_empty_test_split_is_validation_error(tmp_path, capsys, argv):
    # overrides apply in order, so this one replaces the 2 in DATA_OVERRIDES
    overrides = [*DATA_OVERRIDES, "--override", "split.test_per_class=0"]
    overrides += ["--override", "train.epochs=1", "--out", str(tmp_path / "run")]
    code = main([*argv, *overrides])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "split.test_per_class" in err
    assert not (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--override", "data.n_superclasses=3",
         "--override", "personalization.target=0"],
        ["kfold", "--override", "split.kind=kfold"],
    ],
    ids=["personalization", "kfold"],
)
def test_negative_meta_split_is_validation_error(tmp_path, capsys, argv):
    # a personalization run used to train on rows of its own test split
    overrides = [*DATA_OVERRIDES, "--override", "split.meta_per_class=-3"]
    code = main([*argv, *overrides, "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: split.meta_per_class must be >= 0, got -3\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["kfold", "--override", "split.kind=kfold", "--override", "data.n_superclasses=2",
          "--override", "personalization.target=0"], "personalization.target"),
        (["train", "--override", "personalization.train_subset=biased"],
         "personalization.train_subset"),
    ],
    ids=["target-under-kfold", "biased-without-target"],
)
def test_ignored_personalization_key_is_validation_error(tmp_path, capsys, argv, key):
    run_dir = tmp_path / "run"
    assert main([*argv, *DATA_OVERRIDES, "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {key}")
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        ["data.superclass_file={smap}"],
        ["data.superclass_file={smap}", "personalization.target=0"],
        ["data.path={data}", "data.superclass_file={smap}", "data.n_superclasses=3"],
    ],
    ids=["file-without-data", "file-without-data-with-target", "file-and-count"],
)
def test_unread_superclass_source_is_validation_error(tmp_path, capsys, overrides):
    # a superclass file maps the classes of a dataset file, and a run reads
    # one superclass source; the check runs before any data is read
    data, smap = tmp_path / "data.csv", tmp_path / "super.csv"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4",
        "--superclasses", "3", "--superclass-out", str(smap), "--out", str(data),
    ]) == 0
    capsys.readouterr()
    argv = ["train", *DATA_OVERRIDES, "--out", str(tmp_path / "run")]
    for item in overrides:
        argv += ["--override", item.format(data=data, smap=smap)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: data.superclass_file")
    assert not (tmp_path / "run").exists()


def test_synthetic_dim_too_small_for_its_classes_is_validation_error(tmp_path, capsys):
    # ten classes need data.dim >= 9; the check runs before any data is made
    run_dir = tmp_path / "run"
    assert main(["train", "--override", "data.dim=5", "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: data.dim: ")
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "command",
    ["generate-data", "analyze", "train", "replay", "kfold"],
)
def test_unwritable_output_path_is_validation_error(tmp_path, capsys, monkeypatch, command):
    data, run_dir = tmp_path / "data.csv", tmp_path / "run"
    argv = ["generate-data", "--classes", "3", "--per-class", "14", "--dim", "4"]
    if command == "generate-data":
        out = tmp_path / "missing" / "x.csv"
        argv += ["--out", str(out)]
    else:
        assert main([*argv, "--out", str(data)]) == 0
        if command == "analyze":
            assert main(["train", *DATA_OVERRIDES, "--out", str(run_dir)]) == 0
            out = tmp_path / "missing" / "a.json"
            argv = ["analyze", "--run", str(run_dir), "--out", str(out)]
        else:
            flags = ["--override", f"data.path={data}", *DATA_OVERRIDES]
            if command == "replay":
                assert main(["train", *flags, "--out", str(run_dir)]) == 0
                flags += ["--trajectory", str(run_dir / "trajectory.csv")]
            elif command == "kfold":
                flags += ["--override", "split.kind=kfold"]
            out = data  # an existing file where the run directory should go
            argv = [command, *flags, "--out", str(out)]

            # the run directory is made before the first step, so none runs
            def no_pass(*args, **kwargs):
                raise AssertionError("a training pass ran before the output check")

            monkeypatch.setattr(nn, "batch_backward", no_pass)
            monkeypatch.setattr(nn, "unchecked_backward", no_pass)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {out}: ")


@pytest.mark.parametrize(
    "second_index, message",
    [("0", "duplicate instance index 0"), ("99999", "instance index 99999 outside")],
)
def test_bad_dataset_index_is_validation_error(tmp_path, capsys, second_index, message):
    data = tmp_path / "data.csv"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "30", "--dim", "4",
        "--spread", "0.8", "--seed", "5", "--out", str(data),
    ]) == 0
    lines = data.read_text().splitlines()
    lines[2] = second_index + lines[2][lines[2].index(","):]
    data.write_text("\n".join(lines) + "\n")
    code = main(["train", "--override", f"data.path={data}", *DATA_OVERRIDES])
    assert code == 1
    assert f"line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        (0, "7.5", "non-integer index or label"),
        (1, "cat", "non-integer index or label"),
        (2, "", "non-integer index or label"),
        (1, "-1", "negative label"),
        (1, "7", "label 7 outside [0, 3)"),
        (3, "abc", "non-numeric feature"),
        (4, "nan", "non-finite feature"),
        (6, "-inf", "non-finite feature"),
        # a row appended to the run's corruption manifest or superclass map
        ("manifest", "0,1", "expected index,original,assigned, got '0,1'"),
        ("manifest", "7,x,1", "expected non-negative integers, got '7,x,1'"),
        ("manifest", "-1,0,1", "expected non-negative integers"),
        ("manifest", "5,1,2", "duplicate instance index 5 (first on line 3)"),
        ("manifest", "# noise_fraction=0.3 seed=x", "malformed manifest metadata"),
        ("manifest", "99999,0,1", "instance index 99999 is not in the dataset (600 rows)"),
        ("manifest", "7,3,0", "original label 3 outside [0, 3)"),
        ("manifest", "7,0,5", "assigned label 5 outside [0, 3)"),
        ("manifest", "7,0,2", "assigned label 2 differs from the dataset's label 0 for instance 7"),
        ("superclass", "1", "expected class,superclass, got '1'"),
        ("superclass", "1,x", "expected non-negative integers, got '1,x'"),
        ("superclass", "9,1", "class 9 outside [0, 3)"),
        ("superclass", "0,1", "duplicate class 0 (first on line 2)"),
    ],
)
def test_bad_dataset_field_is_validation_error(tmp_path, capsys, field, value, message):
    data = tmp_path / "data.csv"
    files = {"manifest": tmp_path / "manifest.csv", "superclass": tmp_path / "super.csv"}
    assert main([
        "generate-data", "--classes", "3", "--per-class", "200", "--dim", "4",
        "--spread", "0.8", "--seed", "5", "--superclasses", "3",
        "--superclass-out", str(files["superclass"]), "--out", str(data),
    ]) == 0
    files["manifest"].write_text(
        "# noise_fraction=0.0 seed=0 n_population=600\nindex,original,assigned\n5,0,0\n"
    )
    if isinstance(field, int):
        path, lines = data, data.read_text().splitlines()
        # row 300 of 600: a bad feature here used to land in the test split and train
        parts = lines[300].split(",")
        parts[field] = value
        lines[300] = ",".join(parts)
        lineno = 301
    else:
        path, lines = files[field], files[field].read_text().splitlines()
        lines.append(value)
        lineno = len(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([
        "train", "--override", f"data.path={data}",
        "--override", f"data.manifest={files['manifest']}",
        "--override", f"data.superclass_file={files['superclass']}",
        *DATA_OVERRIDES,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path} line {lineno}: {message}" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,label,true_label,f0,f1,f2,f3\n", "no data rows"),
        ("index,label,true_label\n0,0,0\n1,1,1\n", "no feature column"),
    ],
)
def test_empty_or_featureless_dataset_is_validation_error(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    data.write_text(text)
    capsys.readouterr()
    assert main(["train", "--override", f"data.path={data}", *DATA_OVERRIDES]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{data}: {message}" in err


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,1", "expected epoch,class,acc, got '0,1'"),
        ("0,1,high", "expected epoch,class,acc"),
        ("x,1,0.5", "expected epoch,class,acc"),
        ("0,1,0.5,2", "expected epoch,class,acc"),
        ("0,99,0.5", "class 99 outside [0, 3)"),
        ("99,0,0.5", "epoch 99 outside [0, 3)"),
        ("-4,2,0.1", "epoch -4 outside [0, 3)"),
        ("2,1,0.5", "second row for epoch 2, class 1"),
    ],
)
def test_bad_class_meta_acc_row_is_validation_error(tmp_path, capsys, row, message):
    run_dir = tmp_path / "run"
    assert main([
        "train", "--override", "meta.mode=class", *DATA_OVERRIDES, "--out", str(run_dir),
    ]) == 0
    acc_path = run_dir / "class_meta_acc.csv"
    lines = acc_path.read_text().splitlines()
    acc_path.write_text("\n".join(lines + [row]) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{acc_path} line {len(lines) + 1}: {message}" in err


def train_with_manifest(tmp_path, manifest_rows):
    """Run dir of a 3-epoch instance run on a 42-row file whose manifest is
    ``manifest_rows(labels)``, given each instance's label by index."""
    data = tmp_path / "data.csv"
    man = tmp_path / "manifest.csv"
    run_dir = tmp_path / "run"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4",
        "--spread", "0.8", "--seed", "5", "--out", str(data),
    ]) == 0
    ds = load_dataset(data)
    labels = dict(zip(ds.indices.tolist(), ds.labels.tolist()))
    man.write_text("\n".join(manifest_rows(labels)) + "\n")
    assert main([
        "train",
        "--override", f"data.path={data}",
        "--override", f"data.manifest={man}",
        "--override", "meta.mode=instance",
        *DATA_OVERRIDES,
        "--out", str(run_dir),
    ]) == 0
    return run_dir


def no_corrupt_row(labels):
    return [
        "# noise_fraction=0.0 seed=0 n_population=42",
        "index,original,assigned",
        f"5,{labels[5]},{labels[5]}",
    ]


def no_clean_row(labels):
    return [
        "# noise_fraction=1.0 seed=0 n_population=42",
        "index,original,assigned",
        *(f"{i},{(c + 1) % 3},{c}" for i, c in labels.items()),
    ]


# an empty population's weight statistics are null, with no warning on the way
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("manifest_rows", [no_corrupt_row, no_clean_row])
def test_analyze_without_both_populations_reports_no_separation(tmp_path, manifest_rows):
    run_dir = train_with_manifest(tmp_path, manifest_rows)
    assert main(["analyze", "--run", str(run_dir)]) == 0
    report = json.loads((run_dir / "analysis.json").read_text())
    assert report["separation"] is None
    with open(run_dir / "metrics.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    empty = "w_clean" if manifest_rows is no_clean_row else "w_corrupt"
    kept = "w_corrupt" if manifest_rows is no_clean_row else "w_clean"
    for record in records:
        assert record[f"{empty}_mean"] is None and record[f"{empty}_std"] is None
        assert isinstance(record[f"{kept}_mean"], float)


def test_manifest_without_metadata_survives_train_and_analyze(tmp_path):
    run_dir = train_with_manifest(
        tmp_path,
        lambda labels: ["index,original,assigned", f"5,{(labels[5] + 1) % 3},{labels[5]}"],
    )
    assert (run_dir / "manifest.csv").read_text().startswith("index,original,assigned\n")
    assert main(["analyze", "--run", str(run_dir)]) == 0
    report = json.loads((run_dir / "analysis.json").read_text())
    assert report["separation"]["n_corrupt"] == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n_classes": 3', "malformed JSON"),
        ('{"n_classes": 3}', "expected a non-negative integer n_instances, got None"),
        ('{"n_instances": 42}', "expected a non-negative integer n_classes, got None"),
    ],
)
def test_bad_run_info_is_validation_error(tmp_path, capsys, text, message):
    run_dir = tmp_path / "run"
    assert main(["train", *DATA_OVERRIDES, "--out", str(run_dir)]) == 0
    info_path = run_dir / "run_info.json"
    info_path.write_text(text)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"error: {info_path}: {message}" in err


@pytest.mark.parametrize(
    "indices, message",
    [
        ([999999], "train_indices entry 999999 is not an integer in [0, 42)"),
        ([-1], "train_indices entry -1 is not an integer in [0, 42)"),
        ([0, "x"], "train_indices entry 'x' is not an integer in [0, 42)"),
        ([1.7], "train_indices entry 1.7 is not an integer in [0, 42)"),
        ([True], "train_indices entry True is not an integer in [0, 42)"),
        ("0,1", "expected a list of train_indices, got '0,1'"),
    ],
    ids=["too-large", "negative", "string", "float", "bool", "not-a-list"],
)
def test_bad_train_indices_in_run_info_is_validation_error(tmp_path, capsys, indices, message):
    run_dir = tmp_path / "run"
    overrides = [*DATA_OVERRIDES, "--override", "noise.p=0.3", "--override", "train.epochs=1"]
    assert main(["train", *overrides, "--out", str(run_dir)]) == 0
    info_path = run_dir / "run_info.json"
    info = json.loads(info_path.read_text())
    info["train_indices"] = indices
    info_path.write_text(json.dumps(info))
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"error: {info_path}: {message}\n"
    assert not (run_dir / "analysis.json").exists()


@pytest.mark.parametrize(
    "damage, message",
    [
        (None, None),
        ("missing", "cannot read {path}"),
        ("truncated", "{path}: malformed JSON"),
        ("short", "{path}: not a saved model: parameter vector has shape (66,), "
                  "manifest predicts (67,)"),
    ],
)
def test_bad_model_file_is_validation_error(tmp_path, capsys, damage, message):
    data = tmp_path / "data.csv"
    run_dir = tmp_path / "run"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4", "--out", str(data),
    ]) == 0
    assert main(["train", *DATA_OVERRIDES, "--out", str(run_dir)]) == 0
    model_path = run_dir / "model.json"
    if damage == "missing":
        model_path.unlink()
    elif damage == "truncated":
        model_path.write_text(model_path.read_text()[:40])
    elif damage == "short":
        payload = json.loads(model_path.read_text())
        payload["values"].pop()
        model_path.write_text(json.dumps(payload))
    capsys.readouterr()
    argv = ["analyze", "--run", str(run_dir), "--hessian-top", "2", "--data", str(data)]
    if damage is None:
        assert main(argv) == 0
        return
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error: " + message.format(path=model_path) in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bad_gradcheck_trials_is_validation_error(capsys, count):
    assert main(["gradcheck", "--trials", count]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: argument --trials: must be at least 1, got {count}"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--hessian-top", "-1"], "argument --hessian-top: must be at least 0, got -1"),
        (["--hessian-top", "68"], "--hessian-top 68: m must lie in [1, 67]"),
        (["--hessian-top", "2", "--sample-size", "0"],
         "argument --sample-size: must be at least 1, got 0"),
        (["--hessian-top", "2", "--data", "{wide}"],
         "{wide}: 5 features and 3 classes; the model in {model} takes 4 and predicts 3"),
        (["--hessian-top", "2", "--data", "{more}"],
         "{more}: 4 features and 4 classes; the model in {model} takes 4 and predicts 3"),
    ],
    ids=["negative-top", "top-above-parameter-count", "zero-sample", "feature-width",
         "more-classes"],
)
def test_bad_probe_flag_is_validation_error(tmp_path, capsys, flags, message):
    files = {"data": tmp_path / "data.csv", "wide": tmp_path / "wide.csv",
             "more": tmp_path / "more.csv"}
    run_dir = tmp_path / "run"
    for name, classes, dim in (("data", "3", "4"), ("wide", "3", "5"), ("more", "4", "4")):
        assert main([
            "generate-data", "--classes", classes, "--per-class", "14", "--dim", dim,
            "--out", str(files[name]),
        ]) == 0
    assert main(["train", *DATA_OVERRIDES, "--out", str(run_dir)]) == 0  # 67 parameters
    capsys.readouterr()
    flags = [f.format(**files) for f in flags]
    assert main(["analyze", "--run", str(run_dir), "--data", str(files["data"]), *flags]) == 1
    message = message.format(**files, model=run_dir / "model.json")
    assert capsys.readouterr().err.splitlines()[-1] == "error: " + message


def test_probe_of_default_size_model_writes_a_finite_eigenvalue(tmp_path, capsys):
    data, run_dir = tmp_path / "data.csv", tmp_path / "run"
    assert main([
        "generate-data", "--classes", "10", "--per-class", "8", "--out", str(data),
    ]) == 0
    assert main([
        "train", "--override", f"data.path={data}", "--override", "train.epochs=1",
        "--override", "split.meta_per_class=1", "--override", "split.test_per_class=1",
        "--out", str(run_dir),
    ]) == 0
    capsys.readouterr()
    argv = ["analyze", "--run", str(run_dir), "--hessian-top", "1", "--data", str(data)]
    assert main(argv) == 0  # 5,898 parameters
    assert capsys.readouterr().err == ""
    probe = json.loads((run_dir / "analysis.json").read_text())["hessian_top_eigs"]
    assert len(probe["values"]) == 1 and math.isfinite(probe["values"][0])
    assert probe["sample_size"] == 80


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_returns_numeric_exit(capsys):
    code = main(["train", "--override", "train.lr=1e150", *DATA_OVERRIDES])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_override_beats_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("train.lr = 0.1\ntrain.epochs = 2\n")
    run_dir = tmp_path / "run"
    assert main([
        "train", "--config", str(cfg_file),
        "--override", "train.lr=0.25",
        *DATA_OVERRIDES,
        "--seed", "9",
        "--out", str(run_dir),
    ]) == 0
    saved = load_config(run_dir / "config.cfg")
    assert saved.lr == 0.25
    assert (saved.seed_data, saved.seed_init, saved.seed_shuffle) == (9, 10, 11)


def test_env_var_provides_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("METASCHED_OUT", str(tmp_path))
    assert main(["train", *DATA_OVERRIDES]) == 0
    out_line = capsys.readouterr().out
    assert str(tmp_path) in out_line
    made = list(tmp_path.iterdir())
    assert len(made) == 1 and made[0].name.startswith("train-")
    assert (made[0] / "metrics.jsonl").exists()


def test_replay_subcommand_consumes_no_meta(tmp_path):
    run_dir = tmp_path / "base"
    assert main([
        "train", "--override", "meta.mode=instance", "--override", "noise.p=0.3",
        *DATA_OVERRIDES, "--seed", "4", "--out", str(run_dir),
    ]) == 0
    replay_dir = tmp_path / "replay"
    assert main([
        "replay", "--override", "noise.p=0.3", *DATA_OVERRIDES,
        "--seed", "4",
        "--trajectory", str(run_dir / "trajectory.csv"),
        "--out", str(replay_dir),
    ]) == 0
    info = json.loads((replay_dir / "run_info.json").read_text())
    assert info["counters"]["meta_samples_consumed"] == 0
    assert info["counters"]["meta_grad_evals"] == 0


def test_replay_of_temperature_run_is_validation_error(tmp_path, capsys):
    run_dir = tmp_path / "base"
    temperature = ["--override", "formulation=temperature", "--override", "temperature.mode=class"]
    assert main(["train", *temperature, *DATA_OVERRIDES, "--out", str(run_dir)]) == 0
    capsys.readouterr()
    code = main([
        "replay", *temperature, *DATA_OVERRIDES,
        "--trajectory", str(run_dir / "trajectory.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "replay needs formulation = meta" in err


def test_replay_of_temperature_trajectory_under_meta_config_is_validation_error(
    monkeypatch, capsys
):
    # a temperature run's trajectory holds sigma tables and no learned
    # rates: replaying it under a meta config would train plain SGD
    monkeypatch.delenv("METASCHED_OUT", raising=False)
    monkeypatch.chdir(Path(__file__).parent / "golden")
    code = main([
        "replay", "--config", "plain.cfg", "--override", "meta.mode=instance",
        "--trajectory", "ref/temperature_joint/trajectory.csv",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "trajectory holds temperature tables" in err


@pytest.mark.parametrize("command", ["replay", "analyze"])
def test_bad_trajectory_row_is_validation_error(tmp_path, capsys, command):
    run_dir = tmp_path / "base"
    assert main([
        "train", "--override", "meta.mode=instance", *DATA_OVERRIDES, "--out", str(run_dir),
    ]) == 0
    trajectory = run_dir / "trajectory.csv"
    lines = trajectory.read_text().splitlines()
    lines.insert(2, "0,inst,99999,0.5")
    trajectory.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    if command == "replay":
        argv = ["replay", *DATA_OVERRIDES, "--trajectory", str(trajectory)]
    else:
        argv = ["analyze", "--run", str(run_dir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{trajectory} line 3: inst id 99999 outside" in err


def test_negative_weight_decay_in_trajectory_is_validation_error(tmp_path, capsys):
    run_dir = tmp_path / "base"
    assert main([
        "train", "--override", "meta.mode=instance", *DATA_OVERRIDES, "--out", str(run_dir),
    ]) == 0
    trajectory = run_dir / "trajectory.csv"
    lines = trajectory.read_text().splitlines()
    lines.append("2,wd,0,-0.5")
    trajectory.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([
        "replay", *DATA_OVERRIDES, "--trajectory", str(trajectory),
        "--out", str(tmp_path / "replay"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {trajectory} line {len(lines)}: negative weight decay '-0.5'\n"
    assert not (tmp_path / "replay").exists()


def test_kfold_subcommand_with_candidates(tmp_path):
    out_dir = tmp_path / "kf"
    assert main([
        "kfold",
        "--override", "split.kind=kfold",
        "--override", "split.k=2",
        "--override", "meta.mode=instance",
        "--override", "noise.p=0.3",
        *DATA_OVERRIDES,
        "--candidate", "train.lr=0.2",
        "--candidate", "train.lr=0.02",
        "--out", str(out_dir),
    ]) == 0
    info = json.loads((out_dir / "kfold_info.json").read_text())
    assert len(info["candidate_scores"]) == 2
    assert info["heldout_acc"] == max(info["candidate_scores"])
    assert (out_dir / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["none", "instance"])
def test_kfold_with_an_empty_fold_is_validation_error(tmp_path, capsys, mode):
    # 14 rows per class less 2 test rows leave pools of 12: fold 12 is empty
    code = main([
        "kfold", *DATA_OVERRIDES,
        "--override", "split.kind=kfold",
        "--override", "split.k=13",
        "--override", f"meta.mode={mode}",
        "--out", str(tmp_path / "kf"),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: split.k = 13 exceeds the largest class pool (12 instances), "
        "so some fold would be empty\n"
    )
    assert not (tmp_path / "kf").exists()


def test_negative_superclass_count_is_validation_error(tmp_path, capsys):
    argv = ["train", *DATA_OVERRIDES, "--override", "data.n_superclasses=-1"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: data.n_superclasses must be >= 0, got -1\n"
    assert not (tmp_path / "run").exists()


def test_generate_data_with_superclasses(tmp_path):
    data = tmp_path / "d.csv"
    smap = tmp_path / "s.csv"
    assert main([
        "generate-data", "--classes", "4", "--per-class", "5", "--dim", "4",
        "--superclasses", "2", "--superclass-out", str(smap), "--out", str(data),
    ]) == 0
    assert smap.read_text().splitlines()[0] == "class,superclass"
    assert len(smap.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--superclasses", "2"], "--superclasses"),
        (["--superclass-out", "{smap}"], "--superclass-out"),
    ],
    ids=["count-without-file", "file-without-count"],
)
def test_generate_data_superclass_flag_alone_is_validation_error(tmp_path, capsys, flags, flag):
    # the dataset CSV has no superclass column, so a map goes to its own file
    data, smap = tmp_path / "d.csv", tmp_path / "s.csv"
    argv = ["generate-data", "--classes", "4", "--per-class", "5", "--dim", "4"]
    argv += [f.format(smap=smap) for f in flags] + ["--out", str(data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "overrides, message, reads_data",
    [
        # generated data has a known class count: the config check refuses it
        (["data.n_superclasses=2"],
         "data.n_superclasses: 3 classes do not divide into 2 superclasses", False),
        (["data.n_superclasses=3", "personalization.target=5"],
         "personalization.target: unknown superclass 5 (have [0, 1, 2])", True),
    ],
    ids=["indivisible", "unknown-target"],
)
def test_superclass_error_names_its_key(
    tmp_path, capsys, monkeypatch, overrides, message, reads_data
):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    if not reads_data:
        monkeypatch.setattr("metasched.harness.prepare_data", _no_data)
    run_dir = tmp_path / "run"
    argv = ["train", "--config", "plain.cfg", *(f"--override={o}" for o in overrides)]
    assert main([*argv, "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not run_dir.exists()


def test_indivisible_superclasses_of_a_dataset_file_name_the_key(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main([
        "generate-data", "--classes", "3", "--per-class", "14", "--dim", "4", "--out", str(data),
    ]) == 0
    capsys.readouterr()
    argv = ["train", *DATA_OVERRIDES, "--override", f"data.path={data}"]
    argv += ["--override", "data.n_superclasses=2", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: data.n_superclasses: 3 classes do not divide into 2 superclasses\n"
    assert not (tmp_path / "run").exists()


def _no_data(*args, **kwargs):
    raise AssertionError("data prepared for a config that should have been rejected")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["train", "--config", "plain.cfg", "--override", "optim.beta=0.5"], "optim.beta"),
        (
            ["train", "--config", "plain.cfg", "--override", "train.optimizer=momentum",
             "--override", "optim.beta1=0.5"],
            "optim.beta1",
        ),
        (["train", "--config", "instance.cfg", "--override", "optim.beta=0.5"], "optim.beta"),
        (
            ["replay", "--config", "plain.cfg", "--override", "optim.beta=0.5",
             "--trajectory", "ref/instance/trajectory.csv"],
            "optim.beta",
        ),
    ],
)
def test_hyperparameter_the_optimizer_does_not_take_is_validation_error(
    tmp_path, capsys, monkeypatch, argv, key
):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    monkeypatch.setattr("metasched.harness.prepare_data", _no_data)
    monkeypatch.setattr("metasched.harness.prepare_replay_bundle", _no_data)
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: train.optimizer = ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_replay_under_another_optimizer_is_validation_error(tmp_path, capsys, monkeypatch):
    # replay steps by the SGD rollout: an adam replay used to be the sgd one
    monkeypatch.chdir(Path(__file__).parent / "golden")
    code = main([
        "replay", "--config", "plain.cfg", "--override", "train.optimizer=adam",
        "--trajectory", "ref/instance/trajectory.csv", "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "train.optimizer = sgd" in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["train.optimizer=adam"], "train.optimizer = sgd"),
        (["formulation=temperature"], "replay needs formulation = meta"),
    ],
    ids=["adam", "temperature"],
)
def test_replay_refuses_its_config_before_preparing_data(
    tmp_path, capsys, monkeypatch, overrides, message
):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    monkeypatch.setattr("metasched.harness.prepare_replay_bundle", _no_data)
    code = main([
        "replay", "--config", "plain.cfg", *(f"--override={o}" for o in overrides),
        "--trajectory", "ref/instance/trajectory.csv", "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_kfold_config_replays(tmp_path, monkeypatch):
    # the saved config writes every key: it must stay valid for replay
    monkeypatch.chdir(Path(__file__).parent / "golden")
    kfold_dir = tmp_path / "kfold"
    assert main(["kfold", "--config", "kfold.cfg", "--out", str(kfold_dir)]) == 0
    assert main([
        "replay", "--config", str(kfold_dir / "config.cfg"),
        "--trajectory", str(kfold_dir / "trajectory.csv"), "--out", str(tmp_path / "replay"),
    ]) == 0
    assert (tmp_path / "replay" / "model.json").exists()
