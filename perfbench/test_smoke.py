"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks the result schema, that every metric BENCHMARK.json names is
reported with its unit, and the output checks. No wall-clock bound.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
TINY = ("data.per_class=130", "train.epochs=2", "model.hidden=8,8")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny(name):
    workload = run.WORKLOADS[name]
    return replace(workload, overrides=workload.overrides + TINY)


def test_benchmark_json_matches_runner():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    names = [w["name"] for w in BENCHMARK["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in [*e2e.values(), *layers.values()])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_reported(name, trace):
    result, detail = run.measure(name, _tiny(name), seed=5, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], [r["problems"] for r in detail["reps"]]
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    for key in ("numpy", "blas", "python", "nproc", "git_revision", *run.THREAD_VARS):
        assert key in detail["env"]
    json.dumps(result)


def test_layer_counts_follow_the_workload():
    result, _ = run.measure(
        "noisy-instance", _tiny("noisy-instance"), seed=5, seconds=0, trace=True
    )
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # instance mode computes instance, class and decay maps and uses one
    assert metrics["meta.maps_used_ratio"] == pytest.approx(1 / 3)
    assert metrics["nn.per_sample_backward.calls_per_step"] == 2
    assert metrics["nn.temperature_backward.us_per_step"] == 0


def _write_outputs(out_dir, test_acc=0.5):
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"epoch": 0, "train_acc": 0.5, "test_acc": test_acc}) + "\n")
    for name in ("model.json", "run_info.json"):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("{}\n")
    with open(os.path.join(out_dir, "trajectory.csv"), "w", encoding="utf-8") as fh:
        fh.write("epoch,kind,id,value\n0,class,0,1.0\n")


def test_output_check(tmp_path):
    good = str(tmp_path / "good")
    _write_outputs(good)
    assert run.check_outputs(good, 1, set()) == []
    assert run.check_outputs(good, 2, set())

    nan = str(tmp_path / "nan")
    _write_outputs(nan, test_acc=float("nan"))
    assert run.check_outputs(nan, 1, set())

    for name in ("model.json", "trajectory.csv"):
        broken = str(tmp_path / f"broken-{name}")
        _write_outputs(broken)
        with open(os.path.join(broken, name), "a", encoding="utf-8") as fh:
            fh.write("not,parseable\n")
        assert run.check_outputs(broken, 1, set())

    missing = str(tmp_path / "missing")
    _write_outputs(missing)
    os.remove(os.path.join(missing, "run_info.json"))
    assert run.check_outputs(missing, 1, set())


def test_differing_repetitions_fail():
    reps = [
        {"problems": [], "test_acc": 0.9, "corrupt_auc": 0.8, "clamp_events": clamps}
        for clamps in (3, 3, 4)
    ]
    run._check_determinism(reps)
    assert [bool(r["problems"]) for r in reps] == [False, False, True]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy-instance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
