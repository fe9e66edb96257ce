"""Span tracing around metasched's public functions, and the per-layer
metrics computed from those spans.

The child process installs a ``Tracer`` before it calls into the program.
Each wrapped call records one span ``(parent, name, t0_ns, t1_ns, minflt,
extra)``; spans stay in memory and the child writes them out after the
timed work is done. The parent turns the span list into per-layer metrics
with ``layer_metrics``.

Symbols are patched where their callers look them up: module attributes
for functions (``harness`` calls ``nn.per_sample_backward`` and
``meta.meta_train_step`` through the module, ``meta`` calls its own
helpers through its module globals), and class attributes for the
``TrajectoryLog`` methods. A name the program no longer has is skipped,
so its metrics read 0.
"""

from __future__ import annotations

import resource
import time

# module -> public functions wrapped in it
FUNCTIONS = {
    "datagen": ("make_blobs", "corrupt_labels", "split"),
    "nn": ("forward", "per_sample_backward", "temperature_backward"),
    "losses": ("cross_entropy_batch", "temperature_ce_batch", "resolve_sigma_batch"),
    "meta": (
        "meta_train_step",
        "rollout_one_step",
        "instance_metagrad",
        "class_metagrad",
        "wd_metagrad",
        "apply_data_param_update",
        "replay_schedule",
    ),
    "optim": ("step",),
    "harness": (
        "prepare_data",
        "prepare_replay_bundle",
        "run_training",
        "replay_train",
        "write_run_outputs",
    ),
}
TRAJECTORY_METHODS = ("record", "to_csv")

GRAD_PRODUCERS = ("nn.per_sample_backward", "nn.temperature_backward")
LOOPS = ("harness.run_training", "harness.replay_train")
# direct children of a loop span that belong to epoch evaluation
EVAL_CHILDREN = ("nn.forward", "losses.cross_entropy_batch", "losses.resolve_sigma_batch")
METAGRAD_MAPS = ("meta.instance_metagrad", "meta.class_metagrad", "meta.wd_metagrad")
SLOTS = 1 << 20


def _grad_shape(args, kwargs, out):
    """(rows, columns) of the per-sample gradient matrix a producer returned."""
    return list(out[1].shape)


def _data_rows(args, kwargs, out):
    """Data rows in the trajectory file passed to ``from_csv(cls, path, ...)``."""
    path = kwargs["path"] if "path" in kwargs else args[1]
    with open(path, "rb") as fh:
        return max(sum(1 for line in fh if line.strip()) - 1, 0)


class Tracer:
    """Records a span for every call of the wrapped functions."""

    def __init__(self):
        # one up-front slot table: growing a list inside the traced region
        # would reallocate through malloc and shift the program's heap use
        self._slots = [None] * SLOTS
        self._count = 0
        self._stack = []

    @property
    def spans(self):
        return self._slots[: self._count]

    def _span(self, name, fn, measure=None):
        slots = self._slots
        stack = self._stack
        clock = time.perf_counter_ns
        usage = resource.getrusage
        who = resource.RUSAGE_SELF

        def wrapper(*args, **kwargs):
            sid = self._count
            self._count += 1
            if sid == len(slots):
                slots.extend([None] * len(slots))
            parent = stack[-1] if stack else -1
            stack.append(sid)
            f0 = usage(who).ru_minflt
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                f1 = usage(who).ru_minflt
                stack.pop()
                slots[sid] = (parent, name, t0, t1, f1 - f0, None)
            if measure is not None:
                slots[sid] = slots[sid][:5] + (measure(args, kwargs, out),)
            return out

        return wrapper

    def install(self, package):
        """Patch the package's public functions in place."""
        for mod_name, names in FUNCTIONS.items():
            module = getattr(package, mod_name)
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                full = f"{mod_name}.{name}"
                measure = _grad_shape if full in GRAD_PRODUCERS else None
                setattr(module, name, self._span(full, fn, measure))
        log_cls = package.trajectory.TrajectoryLog
        for name in TRAJECTORY_METHODS:
            fn = getattr(log_cls, name, None)
            if fn is not None:
                setattr(log_cls, name, self._span(f"trajectory.{name}", fn))
        from_csv = log_cls.__dict__.get("from_csv")
        if isinstance(from_csv, classmethod):
            wrapped = self._span("trajectory.from_csv", from_csv.__func__, _data_rows)
            log_cls.from_csv = classmethod(wrapped)


def _summarize(spans):
    """Per-name totals: calls, duration, self time, faults, extras."""
    child_ns = [0] * len(spans)
    for parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    totals = {}
    for sid, (_, name, t0, t1, flt, extra) in enumerate(spans):
        entry = totals.setdefault(
            name, {"calls": 0, "ns": 0, "self_ns": 0, "minflt": 0, "extras": []}
        )
        entry["calls"] += 1
        entry["ns"] += t1 - t0
        entry["self_ns"] += t1 - t0 - child_ns[sid]
        entry["minflt"] += flt
        if extra is not None:
            entry["extras"].append(extra)
    return totals


def layer_metrics(spans, info):
    """Per-layer metrics of one traced repetition.

    ``info`` is the child's report: ``steps``, ``epochs``, ``clamp_events``,
    ``mode`` and ``wd_learnable`` of the resolved config.
    """
    steps, epochs = info["steps"], info["epochs"]
    totals = _summarize(spans)
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "minflt": 0, "extras": []}

    def get(name):
        return totals.get(name, empty)

    def us_per_step(name):
        return get(name)["ns"] / 1e3 / steps

    def ms(name):
        return get(name)["ns"] / 1e6

    loop_ids = {sid for sid, span in enumerate(spans) if span[1] in LOOPS}
    eval_ns = sum(
        t1 - t0
        for parent, name, t0, t1, _, _ in spans
        if parent in loop_ids and name in EVAL_CHILDREN
    )
    loops = [get(name) for name in LOOPS]
    rows = cells = 0
    for name in GRAD_PRODUCERS:
        for r, c in get(name)["extras"]:
            rows += r
            cells += r * c
    psb = get("nn.per_sample_backward")
    used = {
        "meta.instance_metagrad": info["mode"] == "instance",
        "meta.class_metagrad": info["mode"] == "class",
        "meta.wd_metagrad": info["wd_learnable"],
    }
    maps_computed = sum(get(name)["calls"] for name in METAGRAD_MAPS)
    maps_used = sum(get(name)["calls"] for name in METAGRAD_MAPS if used[name])
    return {
        "nn.per_sample_backward.us_per_step": us_per_step("nn.per_sample_backward"),
        "nn.per_sample_backward.calls_per_step": psb["calls"] / steps,
        "nn.per_sample_backward.minflt_per_call": psb["minflt"] / psb["calls"]
        if psb["calls"]
        else 0.0,
        "nn.grad_rows_per_step": rows / steps,
        "nn.grad_matrix_mb_per_step": cells * 8 / 1e6 / steps,
        "nn.temperature_backward.us_per_step": us_per_step("nn.temperature_backward"),
        "losses.temperature_ce_batch.us_per_step": us_per_step("losses.temperature_ce_batch"),
        "losses.resolve_sigma_batch.us_per_step": us_per_step("losses.resolve_sigma_batch"),
        "optim.step.us_per_step": us_per_step("optim.step"),
        "meta.meta_train_step.self_us_per_step": get("meta.meta_train_step")["self_ns"]
        / 1e3
        / steps,
        "meta.rollout_one_step.us_per_step": us_per_step("meta.rollout_one_step"),
        "meta.instance_metagrad.us_per_step": us_per_step("meta.instance_metagrad"),
        "meta.class_metagrad.us_per_step": us_per_step("meta.class_metagrad"),
        "meta.wd_metagrad.us_per_step": us_per_step("meta.wd_metagrad"),
        "meta.apply_data_param_update.us_per_step": us_per_step("meta.apply_data_param_update"),
        # nothing computed means nothing wasted
        "meta.maps_used_ratio": maps_used / maps_computed if maps_computed else 1.0,
        "meta.clamp_events_per_step": info["clamp_events"] / steps,
        "harness.loop_self_us_per_step": sum(e["self_ns"] for e in loops) / 1e3 / steps,
        "harness.eval_ms_per_epoch": eval_ns / 1e6 / epochs,
        "harness.write_run_outputs_ms": ms("harness.write_run_outputs"),
        "trajectory.record_ms_per_epoch": ms("trajectory.record") / epochs,
        "trajectory.to_csv_ms": ms("trajectory.to_csv"),
        "trajectory.from_csv_ms": ms("trajectory.from_csv"),
        "trajectory.rows_parsed": sum(get("trajectory.from_csv")["extras"]),
        "datagen.make_blobs_ms": ms("datagen.make_blobs"),
        "datagen.corrupt_labels_ms": ms("datagen.corrupt_labels"),
        "datagen.split_ms": ms("datagen.split"),
        "harness.prepare_data_ms": ms("harness.prepare_data"),
    }
