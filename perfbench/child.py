"""One benchmark repetition: a single metasched training in this process.

Usage: python3 perfbench/child.py JOB.json

The job file names the checkout root, the config overrides, the workload
seed, the output directory, where to write the report, whether to trace,
and for replay workloads the schedule file. The parent spawns this script
once per repetition and reads its resource usage with ``os.wait4``; this
process reports only what the parent cannot see from outside: the
monotonic clock at the first training call and after the outputs are
written, and the values the output check compares across repetitions.

Exit codes: 0 success, 2 the program raised ``NumericError``.
"""

import json
import os
import resource
import sys
import time

import numpy as np


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import metasched
    import metasched.analysis  # noqa: F401  (the package does not import it)

    if not os.path.abspath(metasched.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"metasched imported from {metasched.__file__}, not {src}")
    return metasched


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    ms = _import_package(job["root"])
    config, harness = ms.config, ms.harness

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ms)

    cfg = config.with_seeds(config.config_from_overrides(job["overrides"]), job["seed"])
    try:
        if job["schedule"] is None:
            bundle = harness.prepare_data(cfg)
            f_train = _minflt()
            t_train = time.monotonic()
            result = harness.run_training(cfg, bundle)
        else:
            bundle = harness.prepare_replay_bundle(cfg)
            schedule = ms.trajectory.TrajectoryLog.from_csv(
                job["schedule"], bundle.n_instances, bundle.n_classes
            )
            f_train = _minflt()
            t_train = time.monotonic()
            result = harness.replay_train(cfg, schedule, bundle)
        t_trained = time.monotonic()
        f_trained = _minflt()
        harness.write_run_outputs(job["out_dir"], result)
        t_done = time.monotonic()
    except ms.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2

    w_inst = result.trajectory.snapshot(result.trajectory.epochs - 1).as_tables()["w_inst"]
    corrupt_auc = ms.analysis.separation(
        w_inst, bundle.manifest, population=bundle.train.indices
    ).auc
    report = {
        "t_train": t_train,
        "t_trained": t_trained,
        "t_done": t_done,
        "train_minflt": f_trained - f_train,
        "samples": result.counters["train_grad_evals"],
        "steps": result.counters["steps"],
        "epochs": cfg.epochs,
        "clamp_events": result.counters["clamp_events"],
        "test_acc": result.final_test_acc,
        "mean_test_acc": sum(m.test_acc for m in result.metrics) / len(result.metrics),
        "corrupt_auc": corrupt_auc,
        "mode": cfg.mode,
        "wd_learnable": cfg.wd_learnable,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_build(),
        },
        "spans": None if tracer is None else tracer.spans,
    }
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
