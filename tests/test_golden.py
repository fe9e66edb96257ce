"""Golden runs: fixed-seed outputs of tiny configs against committed references.

Each case runs one CLI command from ``tests/golden`` (config paths there
are relative to it) and compares the deterministic outputs with
``tests/golden/ref/<case>/``: per-epoch ``metrics.jsonl``,
``trajectory.csv`` row by row, ``model.json``, and the step counters of
``run_info.json`` (a k-fold run writes ``kfold_info.json`` in place of
metrics, model and run info). Counters agree exactly. Floats agree to
1e-9 relative to the largest magnitude in their field, so a change of
BLAS build or summation order passes and a change of behaviour does not.

Regenerate the references only when outputs change by design, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from metasched.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-9

CASES = {
    "plain": ["train", "--config", "plain.cfg"],
    "instance": ["train", "--config", "instance.cfg"],
    "class_wd": ["train", "--config", "class_wd.cfg"],
    "temperature_joint": ["train", "--config", "temperature_joint.cfg"],
    # batches of 64 over 4 classes: most class sums run over 8 or more rows
    "temperature_class": ["train", "--config", "temperature_class.cfg"],
    "kfold": ["kfold", "--config", "kfold.cfg"],
    "files": ["train", "--config", "files.cfg"],
    # reads the instance run's committed schedule back from disk
    "replay": [
        "replay", "--config", "instance.cfg",
        "--trajectory", os.path.join("ref", "instance", "trajectory.csv"),
    ],
}
COMPARED = ("metrics.jsonl", "trajectory.csv", "model.json", "run_info.json", "kfold_info.json")


def _run(argv, out_dir):
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        code = main([*argv, "--out", str(out_dir)])
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"


def _close(got, ref, what):
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    assert got.shape == ref.shape, f"{what}: shape {got.shape} != {ref.shape}"
    scale = np.abs(ref).max() if ref.size else 0.0
    bad = np.abs(got - ref) > RTOL * scale
    assert not bad.any(), (
        f"{what}: {int(bad.sum())} value(s) off, first at {np.argwhere(bad)[0].tolist()}: "
        f"{got[bad][0]!r} vs {ref[bad][0]!r}"
    )


def _compare_records(got, ref, what):
    """Lists of flat dicts: same keys and None pattern, floats per key."""
    assert len(got) == len(ref), f"{what}: {len(got)} records, reference has {len(ref)}"
    assert all(set(a) == set(b) for a, b in zip(got, ref)), f"{what}: keys differ"
    for key in sorted(ref[0]):
        g = [rec[key] for rec in got]
        r = [rec[key] for rec in ref]
        assert [v is None for v in g] == [v is None for v in r], f"{what}: {key} None pattern"
        numeric = [(a, b) for a, b in zip(g, r) if b is not None]
        if numeric:
            _close([a for a, _ in numeric], [b for _, b in numeric], f"{what}: {key}")


def _metrics(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _trajectory(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], [tuple(r[:3]) for r in rows[1:]], [float(r[3]) for r in rows[1:]]


def _compare(name, got_path, ref_path):
    what = f"{os.path.basename(os.path.dirname(ref_path))}/{name}"
    if name == "metrics.jsonl":
        _compare_records(_metrics(got_path), _metrics(ref_path), what)
    elif name == "trajectory.csv":
        g_head, g_keys, g_vals = _trajectory(got_path)
        r_head, r_keys, r_vals = _trajectory(ref_path)
        assert g_head == r_head and g_keys == r_keys, f"{what}: rows differ"
        _close(g_vals, r_vals, what)
    elif name == "model.json":
        with open(got_path, encoding="utf-8") as fg, open(ref_path, encoding="utf-8") as fr:
            got, ref = json.load(fg), json.load(fr)
        assert got["manifest"] == ref["manifest"], f"{what}: manifest differs"
        _close(got["values"], ref["values"], what)
    elif name == "run_info.json":
        with open(got_path, encoding="utf-8") as fg, open(ref_path, encoding="utf-8") as fr:
            got, ref = json.load(fg), json.load(fr)
        assert got["counters"] == ref["counters"], f"{what}: counters differ"
    else:
        with open(got_path, encoding="utf-8") as fg, open(ref_path, encoding="utf-8") as fr:
            got, ref = json.load(fg), json.load(fr)
        assert got["k"] == ref["k"], f"{what}: k differs"
        _close(got["candidate_scores"], ref["candidate_scores"], f"{what}: candidate_scores")
        _close([got["heldout_acc"]], [ref["heldout_acc"]], f"{what}: heldout_acc")


@pytest.mark.parametrize("case", list(CASES))
def test_golden_run_matches_reference(tmp_path, case):
    _run(CASES[case], tmp_path)
    ref_dir = os.path.join(GOLDEN, "ref", case)
    names = sorted(os.listdir(ref_dir))
    assert names == sorted(n for n in COMPARED if os.path.exists(tmp_path / n))
    for name in names:
        _compare(name, str(tmp_path / name), os.path.join(ref_dir, name))


def test_replay_under_mode_none_is_the_plain_run(tmp_path):
    """The instance run's schedule replayed under plain.cfg (meta.mode =
    none) steps with unit weights: the model is the plain reference's, and
    the weight statistics report the ones applied, not the schedule's."""
    trajectory = os.path.join("ref", "instance", "trajectory.csv")
    _run(["replay", "--config", "plain.cfg", "--trajectory", trajectory], tmp_path)
    plain = os.path.join(GOLDEN, "ref", "plain")
    _compare("model.json", str(tmp_path / "model.json"), os.path.join(plain, "model.json"))
    got = _metrics(tmp_path / "metrics.jsonl")
    want = _metrics(os.path.join(plain, "metrics.jsonl"))
    assert [r["test_acc"] for r in got] == [r["test_acc"] for r in want]
    for record in got:
        assert (record["w_clean_mean"], record["w_clean_std"]) == (1.0, 0.0)
        assert (record["w_corrupt_mean"], record["w_corrupt_std"]) == (1.0, 0.0)


def regenerate():
    """Rewrite every reference from the current code."""
    for case in CASES:
        ref_dir = os.path.join(GOLDEN, "ref", case)
        with tempfile.TemporaryDirectory() as tmp:
            _run(CASES[case], tmp)
            os.makedirs(ref_dir, exist_ok=True)
            for name in COMPARED:
                if os.path.exists(os.path.join(tmp, name)):
                    shutil.copy(os.path.join(tmp, name), os.path.join(ref_dir, name))
        print(f"wrote {ref_dir}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
