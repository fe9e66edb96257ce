"""End-to-end CLI: subcommand pipeline, exit codes, override handling.

Every refusal (a run the CLI ends with exit 1 or 2) is a row of
``REFUSALS``, and ``check_refusal`` checks every row.
"""

import ast
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest

from metasched.cli import main
from metasched.config import KEY_MAP, RunConfig, load_config
from metasched.datagen import load_dataset

GOLDEN = Path(__file__).parent / "golden"
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


def test_generate_data_with_superclasses(tmp_path):
    data = tmp_path / "d.csv"
    smap = tmp_path / "s.csv"
    assert main([
        "generate-data", "--classes", "4", "--per-class", "5", "--dim", "4",
        "--superclasses", "2", "--superclass-out", str(smap), "--out", str(data),
    ]) == 0
    assert smap.read_text().splitlines()[0] == "class,superclass"
    assert len(smap.read_text().splitlines()) == 5


def test_kfold_config_replays(tmp_path, monkeypatch):
    # the saved config writes every key: it must stay valid for replay
    monkeypatch.chdir(GOLDEN)
    kfold_dir = tmp_path / "kfold"
    assert main(["kfold", "--config", "kfold.cfg", "--out", str(kfold_dir)]) == 0
    assert main([
        "replay", "--config", str(kfold_dir / "config.cfg"),
        "--trajectory", str(kfold_dir / "trajectory.csv"), "--out", str(tmp_path / "replay"),
    ]) == 0
    assert (tmp_path / "replay" / "model.json").exists()


def test_probe_reads_the_saved_model(tmp_path):
    paths = make(tmp_path, dataset(), trained())
    argv = ["analyze", "--run", "{run}", "--hessian-top", "2", "--data", "{data}"]
    assert main([arg.format(**paths) for arg in argv]) == 0


# Refusals. Each row is collected under the name of the test it came from
# (``test``) and that test's param id (``id``, None for a test without
# parameters). To add a refusal, add a row: its inputs come from the
# builders below, and check_refusal checks it like every other row.


@dataclass(frozen=True)
class Refusal:
    test: str
    id: str | None
    argv: list
    # the last stderr line less its tag ("error: ", or "numeric failure: "
    # for code 2); argv and err are format templates over {tmp}, {out},
    # {golden} and the names that the inputs make
    err: str
    inputs: tuple = ()
    code: int = 1
    before: str | None = None  # a key of BEFORE: a step the refusal comes before


def _never(*args, **kwargs):
    raise AssertionError("reached a step that the refusal should come before")


BEFORE = {
    "data": ("metasched.harness.prepare_data", "metasched.harness.prepare_replay_bundle"),
    "pass": ("metasched.nn.batch_backward", "metasched.nn.unchecked_backward"),
}


def dataset(name="data", classes=3, per_class=14, dim=4, superclasses=0):
    """Input: a generated dataset {name}, and its superclass map {smap}."""
    def build(paths):
        made = {name: paths["tmp"] / f"{name}.csv"}
        argv = ["generate-data", "--classes", str(classes), "--per-class", str(per_class),
                "--dim", str(dim), "--out", str(made[name])]
        if superclasses:
            made["smap"] = paths["tmp"] / "super.csv"
            argv += ["--superclasses", str(superclasses), "--superclass-out", str(made["smap"])]
        assert main(argv) == 0
        return made
    return build


def trained(*overrides):
    """Input: the directory {run} of a 3-epoch run, with its {trajectory},
    {info}, {model}, {acc} and {run_manifest} files; an override may name
    {data}."""
    def build(paths):
        run = paths["tmp"] / "run"
        flags = [f"--override={o.format(**paths)}" for o in overrides]
        assert main(["train", *DATA_OVERRIDES, *flags, "--out", str(run)]) == 0
        return {"run": run, "trajectory": run / "trajectory.csv", "info": run / "run_info.json",
                "model": run / "model.json", "acc": run / "class_meta_acc.csv",
                "run_manifest": run / "manifest.csv"}
    return build


def written(name, text):
    """Input: a file {name} that holds ``text``."""
    def build(paths):
        (paths["tmp"] / name).write_text(text)
        return {name: paths["tmp"] / name}
    return build


def damaged(name, edit):
    """Input: the file {name} of an earlier input, rewritten as
    ``edit(text)``, or deleted where that is None."""
    def build(paths):
        text = edit(paths[name].read_text())
        if text is None:
            paths[name].unlink()
        else:
            paths[name].write_text(text)
        return {}
    return build


def make(tmp_path, *inputs):
    """{tmp}, {out}, {golden} and the names the inputs make, in order."""
    paths = {"tmp": tmp_path, "out": tmp_path / "out", "golden": GOLDEN}
    for build in inputs:
        paths.update(build(paths))
    return paths


def appended(line):
    return lambda text: text + line + "\n"


def with_line(lineno, line, insert=False):
    """An edit that replaces line ``lineno``, or inserts ``line`` there."""
    def edit(text):
        lines = text.splitlines()
        lines[lineno - 1: lineno - 1 + (not insert)] = [line]
        return "\n".join(lines) + "\n"
    return edit


def with_field(lineno, column, value):
    """An edit that sets one comma-separated field of line ``lineno``."""
    def edit(text):
        fields = text.splitlines()[lineno - 1].split(",")
        fields[column] = value
        return with_line(lineno, ",".join(fields))(text)
    return edit


def json_with(**items):
    return lambda text: json.dumps({**json.loads(text), **items})


def bad_field(where, value, message, tail=""):
    """A train run refused for ``value`` in a dataset field (``where`` is
    its column) or appended to the manifest or the superclass map; the
    old test's id shows the start of the message, ``tail`` its rest."""
    if isinstance(where, int):
        # row 300 of 600: a bad feature there used to land in the test split and train
        name, lineno, edit = "data", 301, with_field(301, where, value)
    else:
        name = "manifest" if where == "manifest" else "smap"
        lineno, edit = (4 if where == "manifest" else 5), appended(value)
    return Refusal(
        "test_bad_dataset_field_is_validation_error", f"{where}-{value}-{message}",
        ["train", "--override=data.path={data}", "--override=data.manifest={manifest}",
         "--override=data.superclass_file={smap}", *DATA_OVERRIDES],
        f"{{{name}}} line {lineno}: {message}{tail}",
        (dataset(per_class=200, superclasses=3), written("manifest", MANIFEST),
         damaged(name, edit)),
    )


FLOAT_KEYS = [
    key for key, (name, _) in KEY_MAP.items() if isinstance(getattr(RunConfig(), name), float)
]
# optimizer hyperparameters, each with an optimizer that reads it
OPTIM_KEYS = {"optim.beta": "momentum", "optim.eps": "adam", "optim.lookahead_alpha": "lookahead_sgd"}
MISSING = "{tmp}/absent/input.csv"
NO_FILE = "No such file or directory"
MANIFEST = "# noise_fraction=0.0 seed=0 n_population=600\nindex,original,assigned\n5,0,0\n"
PROBE = ["analyze", "--run", "{run}", "--data", "{data}", "--hessian-top"]
PERSONALIZED = ["train", "--override=data.n_superclasses=3", "--override=personalization.target=0"]
KFOLD = ["kfold", "--override=split.kind=kfold"]
PLAIN = ["--config", "{golden}/plain.cfg", "--out", "{out}"]
REPLAY = ["replay", *PLAIN, "--trajectory", "{golden}/ref/instance/trajectory.csv"]
UNREAD_SMAP = "data.superclass_file maps the classes of a dataset file; set data.path too"
NOT_SGD = "replay steps by the lookahead's SGD rollout; it needs train.optimizer = sgd"
NOT_META = ("replay needs formulation = meta: a temperature run records no rate multipliers "
            "to freeze")

REFUSALS = [
    Refusal("test_unknown_flag_is_usage_error", None, ["train", "--frobnicate"],
            "unrecognized arguments: --frobnicate"),
    *(Refusal("test_missing_input_file_names_the_path", id, argv,
              f"cannot read {what}{MISSING}: {NO_FILE}", (dataset(),))
      for id, what, argv in [
          ("config", "config ", ["train", "--config", MISSING]),
          ("data.path", "", ["train", f"--override=data.path={MISSING}"]),
          ("data.manifest", "", ["train", "--override=data.path={data}",
                                 f"--override=data.manifest={MISSING}", *DATA_OVERRIDES]),
          ("data.superclass_file", "", ["train", "--override=data.path={data}",
                                        f"--override=data.superclass_file={MISSING}"]),
          ("trajectory", "", ["replay", *DATA_OVERRIDES, "--trajectory", MISSING]),
          ("corrupt", "", ["corrupt", "--data", MISSING, "--p", "0.1", "--out", "{data}",
                           "--manifest-out", "{data}"]),
      ]),
    # a reader names its file and the OS's reason, once
    Refusal("test_unreadable_file_names_the_os_reason_once", "config-directory",
            ["train", "--config", "{tmp}"], "cannot read config {tmp}: Is a directory"),
    Refusal("test_unreadable_file_names_the_os_reason_once", "run-info",
            ["analyze", "--run", "{tmp}"], f"cannot read {{tmp}}/run_info.json: {NO_FILE}"),
    Refusal("test_bad_override_is_validation_error", None,
            ["train", "--override", "train.lr=-1", *DATA_OVERRIDES],
            "train.lr: learning rates must be positive, got -1.0", before="data"),
    *(Refusal("test_non_finite_float_is_validation_error", f"{key}-{value}",
              ["train", *DATA_OVERRIDES, f"--override=train.optimizer={OPTIM_KEYS.get(key, 'sgd')}",
               "--override=lr_drop.epoch=0", f"--override={key}={value}", "--out", "{out}"],
              f"{key}: expected a finite number, got {value!r}", before="data")
      for key in [*FLOAT_KEYS, *OPTIM_KEYS] for value in ["nan", "inf", "-inf"]),
    Refusal("test_overflowing_lr_drop_is_validation_error", None,
            ["train", *DATA_OVERRIDES, "--override=lr_drop.epoch=1",
             "--override=lr_drop.factor=1e-320", "--out", "{out}"],
            "lr_drop.factor 1e-320 is too small: the dropped rate train.lr / lr_drop.factor "
            "is not finite", before="data"),
    *(Refusal("test_negative_seed_flag_is_validation_error", f"argv{i}", argv,
              f"argument --seed: must be at least 0, got {argv[argv.index('--seed') + 1]}")
      for i, argv in enumerate([
          ["generate-data", "--seed", "-1", "--out", "{tmp}/data.csv"],
          ["corrupt", "--data", "{tmp}/data.csv", "--p", "0.2", "--seed", "-1",
           "--out", "{tmp}/noisy.csv", "--manifest-out", "{tmp}/manifest.csv"],
          ["train", *DATA_OVERRIDES, "--seed", "-5"],
          ["kfold", *DATA_OVERRIDES, "--seed", "-5"],
          ["replay", *DATA_OVERRIDES, "--seed", "-5", "--trajectory", "{tmp}/trajectory.csv"],
          ["gradcheck", "--seed", "-1"],
      ])),
    *(Refusal("test_negative_seed_override_is_validation_error", key,
              ["train", *DATA_OVERRIDES, f"--override={key}=-1", "--out", "{out}"],
              f"{key}: expected a non-negative seed, got -1", before="data")
      for key in ["seed.data", "seed.init", "seed.shuffle", "noise.seed", "split.seed"]),
    *(Refusal("test_non_finite_spread_is_validation_error", spread,
              ["generate-data", "--spread", spread, "--out", "{tmp}/data.csv"],
              f"argument --spread: must be a positive finite number, got {spread}")
      for spread in ["nan", "inf"]),
    # generate-data and corrupt name the flag they refuse
    *(Refusal("test_generate_data_and_corrupt_refusals_name_their_flag", id,
              [*argv, "--out", "{out}"], err, (dataset(),))
      for id, argv, err in [
          ("classes", ["generate-data", "--classes", "1"],
           "argument --classes: must be at least 2, got 1"),
          ("per-class", ["generate-data", "--per-class", "0"],
           "argument --per-class: must be at least 1, got 0"),
          ("dim", ["generate-data", "--classes", "10", "--dim", "3"],
           "--dim: dim 3 too small to hold a 10-vertex simplex (need >= 9)"),
          ("spread", ["generate-data", "--spread", "-1"],
           "argument --spread: must be a positive finite number, got -1"),
          ("superclasses", ["generate-data", "--superclasses", "-1", "--superclass-out", "{tmp}/s"],
           "--superclasses: 10 classes do not divide into -1 superclasses"),
          ("p", ["corrupt", "--data", "{data}", "--p", "1.5", "--manifest-out", "{tmp}/m.csv"],
           "argument --p: must lie in [0, 1], got 1.5"),
      ]),
    # the dataset CSV has no superclass column, so a map goes to its own file
    *(Refusal("test_generate_data_superclass_flag_alone_is_validation_error", id,
              ["generate-data", "--classes", "4", "--per-class", "5", "--dim", "4", *flags,
               "--out", "{tmp}/d.csv"],
              f"{flags[0]}: give --superclasses and --superclass-out together")
      for id, flags in [("count-without-file", ["--superclasses", "2"]),
                        ("file-without-count", ["--superclass-out", "{tmp}/s.csv"])]),
    # two outputs on one path would leave only the one written last
    *(Refusal("test_two_outputs_on_one_path_is_validation_error", id,
              [*argv, "--out", "{tmp}/x.csv", flag, second],
              f"--out and {flag} name one file: {second}", (dataset(),))
      for id, argv, flag, second in [
          ("corrupt", ["corrupt", "--data", "{data}", "--p", "0.5"], "--manifest-out",
           "{tmp}/x.csv"),
          ("corrupt-other-spelling", ["corrupt", "--data", "{data}", "--p", "0.5"],
           "--manifest-out", "{tmp}/./x.csv"),
          ("generate-data", ["generate-data", "--superclasses", "1"], "--superclass-out",
           "{tmp}/x.csv"),
      ]),
    Refusal("test_non_finite_float_in_config_file_names_the_file", None,
            ["train", "--config", "{cfg}", "--out", "{out}"],
            "{cfg}: temperature.lr: expected a finite number, got 'inf'",
            (written("cfg", "train.epochs = 1\ntemperature.lr = inf\n"),), before="data"),
    # overrides apply in order, so the last split.test_per_class wins
    *(Refusal("test_empty_test_split_is_validation_error", id,
              [*argv, *DATA_OVERRIDES, "--override=split.test_per_class=0",
               "--override=train.epochs=1", "--out", "{out}"],
              "split.test_per_class must be >= 1: no test split, no accuracy", before="data")
      for id, argv in [("holdout", ["train"]), ("personalization", PERSONALIZED),
                       ("kfold", KFOLD)]),
    # a personalization run used to train on rows of its own test split
    *(Refusal("test_negative_meta_split_is_validation_error", id,
              [*argv, *DATA_OVERRIDES, "--override=split.meta_per_class=-3", "--out", "{out}"],
              "split.meta_per_class must be >= 0, got -3", before="data")
      for id, argv in [("personalization", PERSONALIZED), ("kfold", KFOLD)]),
    Refusal("test_ignored_personalization_key_is_validation_error", "target-under-kfold",
            [*KFOLD, "--override=data.n_superclasses=2", "--override=personalization.target=0",
             *DATA_OVERRIDES, "--out", "{out}"],
            "personalization.target reroutes a holdout split; k-fold splitting does not read it",
            before="data"),
    Refusal("test_ignored_personalization_key_is_validation_error", "biased-without-target",
            ["train", "--override=personalization.train_subset=biased", *DATA_OVERRIDES,
             "--out", "{out}"],
            "personalization.train_subset = biased needs personalization.target", before="data"),
    # a superclass file maps the classes of a dataset file, and a run reads
    # one superclass source
    *(Refusal("test_unread_superclass_source_is_validation_error", id,
              ["train", *DATA_OVERRIDES, "--override=data.superclass_file={smap}",
               *(f"--override={o}" for o in overrides), "--out", "{out}"],
              err, (dataset(superclasses=3),), before="data")
      for id, overrides, err in [
          ("file-without-data", [], UNREAD_SMAP),
          ("file-without-data-with-target", ["personalization.target=0"], UNREAD_SMAP),
          ("file-and-count", ["data.path={data}", "data.n_superclasses=3"],
           "data.superclass_file: choose one superclass source, the file or "
           "data.n_superclasses"),
      ]),
    # ten classes need data.dim >= 9
    Refusal("test_synthetic_dim_too_small_for_its_classes_is_validation_error", None,
            ["train", "--override=data.dim=5", "--out", "{out}"],
            "data.dim: must be >= data.classes - 1, got 5", before="data"),
    Refusal("test_negative_superclass_count_is_validation_error", None,
            ["train", *DATA_OVERRIDES, "--override=data.n_superclasses=-1", "--out", "{out}"],
            "data.n_superclasses must be >= 0, got -1", before="data"),
    # generated data has a known class count: the config check refuses it
    Refusal("test_superclass_error_names_its_key", "indivisible",
            ["train", *PLAIN, "--override=data.n_superclasses=2"],
            "data.n_superclasses: 3 classes do not divide into 2 superclasses", before="data"),
    Refusal("test_superclass_error_names_its_key", "unknown-target",
            ["train", *PLAIN, "--override=data.n_superclasses=3",
             "--override=personalization.target=5"],
            "personalization.target: unknown superclass 5 (have [0, 1, 2])"),
    Refusal("test_indivisible_superclasses_of_a_dataset_file_name_the_key", None,
            ["train", *DATA_OVERRIDES, "--override=data.path={data}",
             "--override=data.n_superclasses=2", "--out", "{out}"],
            "data.n_superclasses: 3 classes do not divide into 2 superclasses", (dataset(),)),
    # 14 rows per class less 2 test rows leave pools of 12: fold 12 is empty
    *(Refusal("test_kfold_with_an_empty_fold_is_validation_error", mode,
              [*KFOLD, *DATA_OVERRIDES, "--override=split.k=13", f"--override=meta.mode={mode}",
               "--out", "{out}"],
              "split.k = 13 exceeds the largest class pool (12 instances), so some fold would "
              "be empty")
      for mode in ["none", "instance"]),
    *(Refusal("test_hyperparameter_the_optimizer_does_not_take_is_validation_error",
              f"argv{i}-{key}", argv, f"{key}: train.optimizer = {optimizer} takes no such "
              "hyperparameter", before="data")
      for i, (argv, key, optimizer) in enumerate([
          (["train", *PLAIN, "--override=optim.beta=0.5"], "optim.beta", "sgd"),
          (["train", *PLAIN, "--override=train.optimizer=momentum", "--override=optim.beta1=0.5"],
           "optim.beta1", "momentum"),
          (["train", "--config", "{golden}/instance.cfg", "--override=optim.beta=0.5",
            "--out", "{out}"], "optim.beta", "sgd"),
          ([*REPLAY, "--override=optim.beta=0.5"], "optim.beta", "sgd"),
      ])),
    # replay steps by the SGD rollout: an adam replay used to be the sgd one
    Refusal("test_replay_under_another_optimizer_is_validation_error", None,
            [*REPLAY, "--override=train.optimizer=adam"], NOT_SGD, before="data"),
    *(Refusal("test_replay_refuses_its_config_before_preparing_data", id,
              [*REPLAY, f"--override={override}"], err, before="data")
      for id, override, err in [("adam", "train.optimizer=adam", NOT_SGD),
                                ("temperature", "formulation=temperature", NOT_META)]),
    Refusal("test_replay_of_temperature_run_is_validation_error", None,
            ["replay", "--override=formulation=temperature", "--override=temperature.mode=class",
             *DATA_OVERRIDES, "--trajectory", "{trajectory}"],
            NOT_META, (trained("formulation=temperature", "temperature.mode=class"),),
            before="data"),
    # a temperature run's trajectory holds sigma tables and no learned
    # rates: replaying it under a meta config would train plain SGD
    Refusal("test_replay_of_temperature_trajectory_under_meta_config_is_validation_error", None,
            ["replay", "--config", "{golden}/plain.cfg", "--override=meta.mode=instance",
             "--trajectory", "{golden}/ref/temperature_joint/trajectory.csv"],
            "trajectory holds temperature tables: replay needs the rate multipliers of a "
            "formulation = meta run"),
    *(Refusal("test_bad_trajectory_row_is_validation_error", command, argv,
              "{trajectory} line 3: inst id 99999 outside [0, 42)",
              (trained("meta.mode=instance"),
               damaged("trajectory", with_line(3, "0,inst,99999,0.5", insert=True))))
      for command, argv in [
          ("replay", ["replay", *DATA_OVERRIDES, "--trajectory", "{trajectory}"]),
          ("analyze", ["analyze", "--run", "{run}"]),
      ]),
    Refusal("test_negative_weight_decay_in_trajectory_is_validation_error", None,
            ["replay", *DATA_OVERRIDES, "--trajectory", "{trajectory}", "--out", "{out}"],
            "{trajectory} line 104: negative weight decay '-0.5'",
            (trained("meta.mode=instance"), damaged("trajectory", appended("2,wd,0,-0.5")))),
    Refusal("test_unwritable_output_path_is_validation_error", "generate-data",
            ["generate-data", "--classes", "3", "--per-class", "14", "--dim", "4",
             "--out", "{tmp}/missing/x.csv"],
            f"{{tmp}}/missing/x.csv: {NO_FILE}"),
    Refusal("test_unwritable_output_path_is_validation_error", "analyze",
            ["analyze", "--run", "{run}", "--out", "{tmp}/missing/a.json"],
            f"{{tmp}}/missing/a.json: {NO_FILE}", (trained(),)),
    # an existing file where the run directory should go: no step runs
    *(Refusal("test_unwritable_output_path_is_validation_error", command,
              [command, "--override=data.path={data}", *DATA_OVERRIDES, *flags, "--out", "{data}"],
              "{data}: File exists", (dataset(), *inputs), before="pass")
      for command, flags, inputs in [
          ("train", [], ()),
          ("replay", ["--trajectory", "{trajectory}"], (trained("data.path={data}"),)),
          ("kfold", ["--override=split.kind=kfold"], ()),
      ]),
    *(Refusal("test_bad_dataset_index_is_validation_error", f"{value}-{message}",
              ["train", "--override=data.path={data}", *DATA_OVERRIDES],
              f"{{data}} line 3: {message}{tail}",
              (dataset(per_class=30), damaged("data", with_field(3, 0, value))))
      for value, message, tail in [
          ("0", "duplicate instance index 0", " (first on line 2)"),
          ("99999", "instance index 99999 outside", " [0, 90)"),
      ]),
    *(bad_field(*case) for case in [
        (0, "7.5", "non-integer index or label"),
        (1, "cat", "non-integer index or label"),
        (2, "", "non-integer index or label"),
        (1, "-1", "negative label"),
        (1, "7", "label 7 outside [0, 3)"),
        (3, "abc", "non-numeric feature"),
        (4, "nan", "non-finite feature"),
        (6, "-inf", "non-finite feature"),
        ("manifest", "0,1", "expected index,original,assigned, got '0,1'"),
        ("manifest", "7,x,1", "expected non-negative integers, got '7,x,1'"),
        ("manifest", "-1,0,1", "expected non-negative integers", ", got '-1,0,1'"),
        ("manifest", "5,1,2", "duplicate instance index 5 (first on line 3)"),
        ("manifest", "# noise_fraction=0.3 seed=x", "malformed manifest metadata",
         " '# noise_fraction=0.3 seed=x', expected '# noise_fraction=<p in [0, 1]> "
         "seed=<int> n_population=<int >= 0>'"),
        ("manifest", "99999,0,1", "instance index 99999 is not in the dataset (600 rows)"),
        ("manifest", "7,3,0", "original label 3 outside [0, 3)"),
        ("manifest", "7,0,5", "assigned label 5 outside [0, 3)"),
        ("manifest", "7,0,2", "assigned label 2 differs from the dataset's label 0 for instance 7"),
        ("superclass", "1", "expected class,superclass, got '1'"),
        ("superclass", "1,x", "expected non-negative integers, got '1,x'"),
        ("superclass", "9,1", "class 9 outside [0, 3)"),
        ("superclass", "0,1", "duplicate class 0 (first on line 2)"),
    ]),
    *(Refusal("test_empty_or_featureless_dataset_is_validation_error", f"{text}-{message}",
              ["train", "--override=data.path={data}", *DATA_OVERRIDES],
              f"{{data}}: {message}{tail}", (written("data", text),))
      for text, message, tail in [
          ("index,label,true_label,f0,f1,f2,f3\n", "no data rows", ""),
          ("index,label,true_label\n0,0,0\n1,1,1\n", "no feature column",
           ", expected header index,label,true_label,f0,..."),
      ]),
    *(Refusal("test_bad_class_meta_acc_row_is_validation_error", f"{row}-{message}",
              ["analyze", "--run", "{run}"], f"{{acc}} line 11: {message}{tail}",
              (trained("meta.mode=class"), damaged("acc", appended(row))))
      for row, message, tail in [
          ("0,1", "expected epoch,class,acc, got '0,1'", ""),
          ("0,1,high", "expected epoch,class,acc", ", got '0,1,high'"),
          ("x,1,0.5", "expected epoch,class,acc", ", got 'x,1,0.5'"),
          ("0,1,0.5,2", "expected epoch,class,acc", ", got '0,1,0.5,2'"),
          ("0,99,0.5", "class 99 outside [0, 3)", ""),
          ("99,0,0.5", "epoch 99 outside [0, 3)", ""),
          ("-4,2,0.1", "epoch -4 outside [0, 3)", ""),
          ("2,1,0.5", "second row for epoch 2, class 1", ""),
      ]),
    # a manifest's columns are int64 arrays
    Refusal("test_manifest_entry_past_int64_is_validation_error", None,
            ["analyze", "--run", "{run}"],
            "{run_manifest} line 3: 9223372036854775808 does not fit a 64-bit integer",
            (trained("noise.p=0.3"),
             damaged("run_manifest", with_line(3, "9223372036854775808,0,1", insert=True)))),
    *(Refusal("test_bad_run_info_is_validation_error", f"{text}-{message}",
              ["analyze", "--run", "{run}"], f"{{info}}: {message}{tail}",
              (trained(), damaged("info", lambda _, text=text: text)))
      for text, message, tail in [
          ('{"n_classes": 3', "malformed JSON",
           ": Expecting ',' delimiter: line 1 column 16 (char 15)"),
          ('{"n_classes": 3}', "expected a non-negative integer n_instances, got None", ""),
          ('{"n_instances": 42}', "expected a non-negative integer n_classes, got None", ""),
      ]),
    *(Refusal("test_bad_train_indices_in_run_info_is_validation_error", id,
              ["analyze", "--run", "{run}"], f"{{info}}: {message}",
              (trained("noise.p=0.3", "train.epochs=1"),
               damaged("info", json_with(train_indices=indices))))
      for id, indices, message in [
          ("too-large", [999999], "train_indices entry 999999 is not an integer in [0, 42)"),
          ("negative", [-1], "train_indices entry -1 is not an integer in [0, 42)"),
          ("string", [0, "x"], "train_indices entry 'x' is not an integer in [0, 42)"),
          ("float", [1.7], "train_indices entry 1.7 is not an integer in [0, 42)"),
          ("bool", [True], "train_indices entry True is not an integer in [0, 42)"),
          ("not-a-list", "0,1", "expected a list of train_indices, got '0,1'"),
      ]),
    # the 3-class model has 67 parameters
    *(Refusal("test_bad_model_file_is_validation_error", id, [*PROBE, "2"], err,
              (dataset(), trained(), damaged("model", edit)))
      for id, edit, err in [
          ("missing-cannot read {path}", lambda text: None, f"cannot read {{model}}: {NO_FILE}"),
          ("truncated-{path}: malformed JSON", lambda text: text[:40],
           "{model}: malformed JSON: Unterminated string starting at: line 1 column 38 "
           "(char 37)"),
          ("short-{path}: not a saved model: parameter vector has shape (66,), "
           "manifest predicts (67,)", json_with(values=[0.0] * 66),
           "{model}: not a saved model: parameter vector has shape (66,), "
           "manifest predicts (67,)"),
          ("non-integer-dims", json_with(manifest=[[4.0, 8, "relu"], [8, 3, "identity"]]),
           "{model}: not a saved model: layer dims must be integers, got "
           "[[4.0, 8, 'relu'], [8, 3, 'identity']]"),
      ]),
    *(Refusal("test_bad_probe_flag_is_validation_error", id, [*PROBE, *flags], err,
              (dataset(), dataset("wide", dim=5), dataset("more", classes=4), trained()))
      for id, flags, err in [
          ("negative-top", ["-1"], "argument --hessian-top: must be at least 0, got -1"),
          ("top-above-parameter-count", ["68"], "--hessian-top 68: m must lie in [1, 67]"),
          ("zero-sample", ["2", "--sample-size", "0"],
           "argument --sample-size: must be at least 1, got 0"),
          ("feature-width", ["2", "--data", "{wide}"],
           "{wide}: 5 features and 3 classes; the model in {model} takes 4 and predicts 3"),
          ("more-classes", ["2", "--data", "{more}"],
           "{more}: 4 features and 4 classes; the model in {model} takes 4 and predicts 3"),
      ]),
    Refusal("test_bad_probe_flag_is_validation_error", "no-data",
            ["analyze", "--run", "{run}", "--hessian-top", "2"],
            "--hessian-top needs --data for the probe sample", (trained(),)),
    *(Refusal("test_bad_gradcheck_trials_is_validation_error", count,
              ["gradcheck", "--trials", count],
              f"argument --trials: must be at least 1, got {count}")
      for count in ["0", "-3"]),
    Refusal("test_divergence_returns_numeric_exit", None,
            ["train", "--override=train.lr=1e150", *DATA_OVERRIDES],
            "non-finite loss or gradient for sample index 4 (aborted in epoch 0; last complete "
            "epoch -1)", code=2),
]


def check_refusal(row, tmp_path, capsys, monkeypatch):
    """Run ``row``'s argv on its inputs: it must exit with ``row.code``,
    print one tagged stderr line (after argparse's usage lines) with the
    row's text, leave no file behind, and reach no step it comes before."""
    monkeypatch.delenv("METASCHED_OUT", raising=False)
    paths = make(tmp_path, *row.inputs)
    for target in BEFORE.get(row.before, ()):
        monkeypatch.setattr(target, _never)
    left = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    with warnings.catch_warnings():
        if row.code == 2:  # a diverging run overflows on its way to the check
            warnings.simplefilter("ignore", RuntimeWarning)
        code = main([arg.format(**paths) for arg in row.argv])
    err = capsys.readouterr().err
    assert code == row.code, err
    assert err.endswith("\n")
    *usage, last = err.splitlines()
    if row.err.startswith(("argument ", "unrecognized arguments")):
        assert usage and usage[0].startswith("usage: metasched ")
        assert all(line.startswith(" ") for line in usage[1:])
    else:
        assert usage == []
    assert last == ("numeric failure: " if row.code == 2 else "error: ") + row.err.format(**paths)
    assert sorted(tmp_path.rglob("*")) == left


def _test_of(rows):
    """The test collected under one name: its rows, by their ids."""
    if rows[0].id is None:
        return lambda tmp_path, capsys, monkeypatch: check_refusal(
            rows[0], tmp_path, capsys, monkeypatch
        )

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(row, tmp_path, capsys, monkeypatch):
        check_refusal(row, tmp_path, capsys, monkeypatch)
    return test


for _name in dict.fromkeys(row.test for row in REFUSALS):
    globals()[_name] = _test_of([row for row in REFUSALS if row.test == _name])


def test_only_the_checker_expects_a_refusal():
    """A new refusal is a row of REFUSALS: no function here but the
    checker compares what ``main`` returns with a non-zero exit code."""
    def from_main(node, names=()):
        if isinstance(node, ast.Name):
            return node.id in names
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "main"

    offenders = set()
    for fn in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "check_refusal":
            continue
        nodes = list(ast.walk(fn))
        names = {getattr(target, "id", None) for node in nodes if isinstance(node, ast.Assign)
                 and from_main(node.value) for target in node.targets}
        offenders |= {
            fn.name for node in nodes if isinstance(node, ast.Compare)
            and from_main(node.left, names)
            and any(isinstance(c, ast.Constant) and c.value != 0 for c in node.comparators)
        }
    assert sorted(offenders) == []
