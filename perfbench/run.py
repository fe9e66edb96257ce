"""metasched benchmark: one workload, repeated in fresh child processes.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each repetition is one closed-loop training run in a fresh ``child.py``
process, with the workload seed fed to ``config.with_seeds``. The parent
reads the child's ``os.wait4`` resource usage (peak RSS, CPU time), checks
the run outputs, and keeps starting repetitions until ``--seconds`` would
be exceeded (at least 3, or 4 with ``--trace 1``). With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics (medians over
repetitions); with ``--trace 1`` traced and untraced repetitions
alternate and the metrics are the per-layer ones. The line before it
records the environment and every repetition.

The exit code is 0 when every repetition passed its output check and 1
otherwise; 2 when the checkout has no ``src/metasched`` to measure.
``--workload all`` runs every workload in turn and prints one
``workload metric value unit`` line per metric instead of JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
HARD_LIMIT_S = 170.0
TRAJECTORY_KINDS = ("inst", "class", "wd", "sigma_inst", "sigma_class")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# values a repetition must reproduce exactly: runs are seed-deterministic
DETERMINISTIC = ("test_acc", "corrupt_auc", "clamp_events")


@dataclass(frozen=True)
class Workload:
    """Config overrides of one workload; ``replay`` workloads retrain on a
    dense schedule the runner generates from the seed."""

    overrides: tuple
    replay: bool = False


_NOISY = ("noise.p=0.4",)
WORKLOADS = {
    "noisy-instance": Workload(_NOISY + ("meta.mode=instance",)),
    "wide-class": Workload(
        _NOISY
        + (
            "meta.mode=class",
            "meta.wd_learnable=true",
            "model.hidden=256,256",
            "train.batch_size=128",
            "train.epochs=4",
        )
    ),
    "temperature-joint": Workload(
        _NOISY
        + (
            "formulation=temperature",
            "temperature.mode=joint",
            "data.per_class=1280",
            "train.epochs=20",
        )
    ),
    "replay-dense": Workload(
        _NOISY
        + ("meta.mode=instance", "data.classes=10", "data.per_class=1280", "train.epochs=20"),
        replay=True,
    ),
}

E2E_UNITS = {
    "samples_per_s": "samples/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "mean_test_acc": "fraction",
    "corrupt_auc": "fraction",
    "success_rate": "fraction",
}
LAYER_UNITS = {
    "nn.per_sample_backward.us_per_step": "us/step",
    "nn.per_sample_backward.calls_per_step": "calls/step",
    "nn.per_sample_backward.minflt_per_call": "faults/call",
    "nn.grad_rows_per_step": "rows/step",
    "nn.grad_matrix_mb_per_step": "MB/step",
    "nn.temperature_backward.us_per_step": "us/step",
    "losses.temperature_ce_batch.us_per_step": "us/step",
    "losses.resolve_sigma_batch.us_per_step": "us/step",
    "optim.step.us_per_step": "us/step",
    "meta.meta_train_step.self_us_per_step": "us/step",
    "meta.rollout_one_step.us_per_step": "us/step",
    "meta.instance_metagrad.us_per_step": "us/step",
    "meta.class_metagrad.us_per_step": "us/step",
    "meta.wd_metagrad.us_per_step": "us/step",
    "meta.apply_data_param_update.us_per_step": "us/step",
    "meta.maps_used_ratio": "fraction",
    "meta.clamp_events_per_step": "events/step",
    "harness.loop_self_us_per_step": "us/step",
    "harness.eval_ms_per_epoch": "ms/epoch",
    "harness.write_run_outputs_ms": "ms",
    "harness.minflt_per_step": "faults/step",
    "trajectory.record_ms_per_epoch": "ms/epoch",
    "trajectory.to_csv_ms": "ms",
    "trajectory.from_csv_ms": "ms",
    "trajectory.rows_parsed": "count",
    "datagen.make_blobs_ms": "ms",
    "datagen.corrupt_labels_ms": "ms",
    "datagen.split_ms": "ms",
    "harness.prepare_data_ms": "ms",
    "trace_overhead_pct": "%",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def write_schedule(path, workload, seed):
    """Dense replay schedule: every instance non-unit in every epoch.

    Generated by the runner before any child starts, so its cost never
    lands in a measured set-up time.
    """
    opts = dict(o.split("=", 1) for o in workload.overrides)
    n_classes = int(opts["data.classes"])
    n_instances = n_classes * int(opts["data.per_class"])
    epochs = int(opts["train.epochs"])
    # salted so the schedule stream differs from the run's own seeded streams
    rng = np.random.default_rng([seed, 0x5C4ED])
    weights = rng.uniform(0.25, 1.75, size=(epochs, n_instances))
    weights[weights == 1.0] = 1.5
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,kind,id,value\n")
        for e in range(epochs):
            fh.writelines(f"{e},inst,{i},{v!r}\n" for i, v in enumerate(weights[e].tolist()))
            fh.writelines(f"{e},class,{c},1.0\n" for c in range(n_classes))
            fh.write(f"{e},wd,0,0.0005\n")


def _parse_trajectory(path):
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "epoch,kind,id,value":
            raise ValueError("unrecognized trajectory header")
        for line in fh:
            e, kind, ident, value = line.split(",")
            if kind not in TRAJECTORY_KINDS:
                raise ValueError(f"unknown trajectory kind {kind!r}")
            int(e), int(ident), float(value)


def check_outputs(out_dir, epochs, parsed_digests):
    """Problems with one run's outputs; empty when all are present, parse,
    and hold finite accuracies. ``parsed_digests`` caches trajectory files
    already parsed, keyed by content hash."""
    problems = []
    try:
        with open(os.path.join(out_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != epochs:
            problems.append(f"metrics.jsonl has {len(records)} epochs, expected {epochs}")
        for rec in records:
            for key in ("train_acc", "meta_acc", "test_acc"):
                value = rec.get(key)
                if value is not None and not math.isfinite(value):
                    problems.append(f"non-finite {key} in epoch {rec.get('epoch')}")
        for name in ("model.json", "run_info.json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                json.load(fh)
        path = os.path.join(out_dir, "trajectory.csv")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest not in parsed_digests:
            _parse_trajectory(path)
            parsed_digests.add(digest)
    except (OSError, ValueError, TypeError) as exc:
        problems.append(f"output check: {type(exc).__name__}: {exc}")
    return problems


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn_child(job_path, log_path, timeout_s):
    """Run child.py on a job file; returns (spawn time, exit code, rusage).

    The child is killed once ``timeout_s`` passes, and always reaped.
    """
    argv = [sys.executable, os.path.join(HERE, "child.py"), job_path]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    timer = threading.Timer(timeout_s, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    return t_spawn, os.waitstatus_to_exitcode(status), usage


def _log_tail(path, lines=5):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()[-lines:]
    except OSError:
        return []


def run_rep(workload, seed, traced, rep_dir, schedule, timeout_s, parsed_digests):
    """One repetition: spawn, reap, check. Returns its record."""
    out_dir = os.path.join(rep_dir, "out")
    job = {
        "root": ROOT,
        "overrides": list(workload.overrides),
        "seed": seed,
        "trace": traced,
        "schedule": schedule,
        "out_dir": out_dir,
        "report": os.path.join(rep_dir, "report.json"),
    }
    job_path = os.path.join(rep_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    log_path = os.path.join(rep_dir, "child.log")
    t_spawn, code, usage = spawn_child(job_path, log_path, timeout_s)
    rec = {"traced": traced, "exit": code, "problems": []}
    if code != 0:
        rec["problems"].append(f"child exited with {code}: {_log_tail(log_path)}")
        return rec, None
    try:
        with open(job["report"], encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        rec["problems"].append(f"no child report: {exc}")
        return rec, None
    rec["problems"] += check_outputs(out_dir, report["epochs"], parsed_digests)
    train_s = report["t_trained"] - report["t_train"]
    rec.update(
        setup_s=report["t_train"] - t_spawn,
        run_s=report["t_done"] - t_spawn,
        samples_per_s=report["samples"] / train_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        test_acc=report["test_acc"],
        mean_test_acc=report["mean_test_acc"],
        corrupt_auc=report["corrupt_auc"],
        clamp_events=report["clamp_events"],
        minflt_per_step=report["train_minflt"] / report["steps"],
    )
    if traced:
        rec["layers"] = tracer.layer_metrics(report["spans"], report)
    return rec, report["env"]


def _git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(child_env):
    env = dict(child_env or {})
    env.update({name: os.environ.get(name) for name in THREAD_VARS})
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_revision"] = _git_revision()
    return env


def measure(name, workload, seed, seconds, trace):
    """Run repetitions of one workload; returns (result, detail)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "metasched", "__init__.py")):
        raise SetupError(f"no metasched package under {os.path.join(ROOT, 'src')}")
    min_reps = 4 if trace else 3
    t_start = time.monotonic()
    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    reps, child_env, parsed = [], None, set()
    try:
        schedule = None
        if workload.replay:
            schedule = os.path.join(run_dir, "schedule.csv")
            write_schedule(schedule, workload, seed)
        rep_walls = []
        while True:
            elapsed = time.monotonic() - t_start
            typical = statistics.median(rep_walls) if rep_walls else 0.0
            if len(reps) >= min_reps and elapsed + typical > seconds:
                break
            if reps and elapsed + 2 * typical > HARD_LIMIT_S:
                break
            rep_dir = os.path.join(run_dir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            t0 = time.monotonic()
            rec, env = run_rep(
                workload,
                seed,
                trace and len(reps) % 2 == 1,
                rep_dir,
                schedule,
                max(HARD_LIMIT_S - elapsed, 1.0),
                parsed,
            )
            rep_walls.append(time.monotonic() - t0)
            child_env = child_env or env
            shutil.rmtree(rep_dir)
            reps.append(rec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    _check_determinism(reps)
    good = [r for r in reps if not r["problems"]]
    result = {
        "correct": len(good) == len(reps),
        "attempted": len(reps),
        "failed": len(reps) - len(good),
        "metrics": _metrics(good, len(reps), trace),
    }
    detail = {"workload": name, "seed": seed, "env": environment(child_env), "reps": reps}
    return result, detail


def _check_determinism(reps):
    """Runs are seed-deterministic: a repetition whose checked values differ
    from the first complete repetition's fails."""
    ref = next((r for r in reps if not r["problems"]), None)
    for rec in reps:
        if rec is ref or rec["problems"]:
            continue
        for key in DETERMINISTIC:
            if rec[key] != ref[key]:
                rec["problems"].append(f"{key} {rec[key]!r} differs from {ref[key]!r}")


def _metrics(good, attempted, trace):
    if not good:
        return {}

    def med(key, recs=good):
        return statistics.median(r[key] for r in recs)

    if trace:
        traced = [r for r in good if r["traced"]]
        plain = [r for r in good if not r["traced"]]
        if not traced or not plain:
            return {}
        layers = [r["layers"] for r in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # faults are counted on untraced runs: the tracer's own allocations add some
        values["harness.minflt_per_step"] = med("minflt_per_step", plain)
        values["trace_overhead_pct"] = (med("run_s", traced) / med("run_s", plain) - 1) * 100
        units = LAYER_UNITS
    else:
        values = {key: med(key) for key in E2E_UNITS if key != "success_rate"}
        values["success_rate"] = len(good) / attempted
        units = E2E_UNITS
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def _terminate(signum, frame):
    # unwinds through spawn_child, which kills and reaps the running child
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result, detail = measure(
                name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        for rec in detail["reps"]:
            for problem in rec["problems"]:
                print(f"perfbench: {name}: {problem}", file=sys.stderr)
        if args.workload == "all":
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        else:
            print(json.dumps(detail))
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
