"""Command-line interface.

Subcommands: generate-data, corrupt, train, kfold, replay, gradcheck,
analyze. Config files are `key = value` text (see config module); any
key can be overridden on the command line with repeated
`--override key=value` flags. Exit codes: 0 success, 1 validation
error, 2 numeric failure. When `--out` is omitted, the METASCHED_OUT
environment variable (if set) provides the output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, config as config_mod, datagen, harness
from .csvrows import read_rows
from .errors import ConfigError, NumericError
from .trajectory import TrajectoryLog


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="metasched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate-data", help="write a synthetic blobs dataset")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--per-class", type=int, default=320)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--spread", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="dataset CSV path")
    gen.add_argument("--superclasses", type=int, default=0)
    gen.add_argument("--superclass-out", default=None, help="superclass map CSV path")

    cor = sub.add_parser("corrupt", help="inject uniform label noise")
    cor.add_argument("--data", required=True)
    cor.add_argument("--p", type=float, required=True)
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--out", required=True, help="corrupted dataset CSV path")
    cor.add_argument("--manifest-out", required=True, help="manifest CSV path")

    def run_flags(p, needs_trajectory=False):
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="base seed; sets seed.data/init/shuffle to seed/seed+1/seed+2",
        )
        p.add_argument("--out", default=None, help="output directory")
        if needs_trajectory:
            p.add_argument("--trajectory", required=True, help="trajectory CSV path")

    run_flags(sub.add_parser("train", help="run one training"))
    kf = sub.add_parser("kfold", help="collect a fold-averaged trajectory")
    run_flags(kf)
    kf.add_argument(
        "--candidate",
        action="append",
        default=[],
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help="one grid candidate as comma-joined overrides (repeatable)",
    )
    run_flags(sub.add_parser("replay", help="retrain with a frozen schedule"), True)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient oracles")
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument(
        "--target",
        action="append",
        default=[],
        choices=list(analysis.CHECK_TARGETS),
        help="check only these targets (repeatable; default all)",
    )

    an = sub.add_parser("analyze", help="diagnostics over a run directory")
    an.add_argument("--run", required=True, help="run directory")
    an.add_argument("--out", default=None, help="report path (default <run>/analysis.json)")
    an.add_argument("--hessian-top", type=int, default=0, help="also probe top-m eigenvalues")
    an.add_argument("--data", default=None, help="dataset CSV for the spectrum probe")
    an.add_argument("--sample-size", type=int, default=256)
    return parser


def _load_run_config(args):
    if args.config is None:
        cfg = config_mod.config_from_overrides(args.override)
    else:
        cfg = config_mod.load_config(args.config, args.override)
    if args.seed is not None:
        cfg = config_mod.with_seeds(cfg, args.seed)
        config_mod.validate_config(cfg)
    return cfg


def _resolve_out(args, cfg, command):
    if args.out is not None:
        return args.out
    root = os.environ.get("METASCHED_OUT")
    if root:
        return os.path.join(root, f"{command}-{cfg.digest()}")
    return None


def _cmd_generate_data(args):
    ds = datagen.make_blobs(args.classes, args.per_class, args.dim, args.spread, args.seed)
    if args.superclasses:
        ds = datagen.assign_superclasses(ds, args.superclasses)
        if args.superclass_out:
            datagen.save_superclass_map(ds.superclass_map, args.superclass_out)
    datagen.save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.n_classes} classes, dim {ds.dim}) to {args.out}")
    return 0


def _cmd_corrupt(args):
    ds = datagen.load_dataset(args.data)
    corrupted, manifest = datagen.corrupt_labels(ds, args.p, args.seed)
    datagen.save_dataset(corrupted, args.out)
    datagen.save_manifest(manifest, args.manifest_out)
    print(
        f"drew {len(manifest.entries)} labels, {len(manifest.corrupt_indices)} changed "
        f"(effective flip fraction {manifest.effective_flip_fraction:.4f})"
    )
    return 0


def _cmd_train(args):
    cfg = _load_run_config(args)
    out_dir = _resolve_out(args, cfg, "train")
    result = harness.run_training(cfg, out_dir=out_dir)
    last = result.metrics[-1]
    where = f" out={out_dir}" if out_dir else ""
    print(
        f"final epoch {last.epoch}: test_acc={last.test_acc:.4f} "
        f"train_acc={last.train_acc:.4f} lam_wd={last.lam_wd:.6g}{where}"
    )
    return 0


def _cmd_kfold(args):
    cfg = _load_run_config(args)
    out_dir = _resolve_out(args, cfg, "kfold")
    grid = None
    if args.candidate:
        grid = [item.split(",") for item in args.candidate]
    report = harness.kfold_collect(cfg, grid=grid, out_dir=out_dir)
    where = f" out={out_dir}" if out_dir else ""
    print(
        f"best candidate heldout_acc={report.heldout_acc:.4f} "
        f"over {len(report.candidate_scores)} candidate(s){where}"
    )
    return 0


def _cmd_replay(args):
    cfg = _load_run_config(args)
    out_dir = _resolve_out(args, cfg, "replay")
    bundle = harness.prepare_replay_bundle(cfg)
    schedule = TrajectoryLog.from_csv(
        args.trajectory, bundle.n_instances, bundle.n_classes
    )
    result = harness.replay_train(cfg, schedule, bundle, out_dir=out_dir)
    last = result.metrics[-1]
    where = f" out={out_dir}" if out_dir else ""
    print(f"replay final test_acc={last.test_acc:.4f} train_acc={last.train_acc:.4f}{where}")
    return 0


def _cmd_gradcheck(args):
    targets = args.target or None
    reports = analysis.run_all_gradchecks(args.trials, args.seed, targets)
    all_ok = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        all_ok = all_ok and report.passed
        print(
            f"{report.target}: {status} max_rel={report.max_rel_err:.3e} "
            f"max_abs={report.max_abs_err:.3e} trials={report.trials}"
        )
    return 0 if all_ok else 1


def _load_run_info(path):
    """run_info.json of a run directory, with its table sizes checked."""
    try:
        with open(path, encoding="utf-8") as fh:
            info = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None
    for key in ("n_instances", "n_classes"):
        value = info.get(key) if isinstance(info, dict) else None
        if type(value) is not int or value < 0:
            raise ConfigError(f"{path}: expected a non-negative integer {key}, got {value!r}")
    return info


def _cmd_analyze(args):
    run_dir = args.run
    info = _load_run_info(os.path.join(run_dir, "run_info.json"))
    trajectory = TrajectoryLog.from_csv(
        os.path.join(run_dir, "trajectory.csv"),
        info["n_instances"],
        info["n_classes"],
    )
    report = {"run": run_dir, "epochs": trajectory.epochs}

    manifest_path = os.path.join(run_dir, "manifest.csv")
    if os.path.exists(manifest_path) and trajectory.epochs:
        manifest = datagen.load_manifest(manifest_path)
        tables = trajectory.snapshot(trajectory.epochs - 1).as_tables()
        population = info.get("train_indices")
        try:
            sep = analysis.separation(
                tables["w_inst"],
                manifest,
                None if population is None else np.array(population, dtype=np.int64),
            )
        except ValueError:  # no corrupt or no clean instance: no AUC to report
            report["separation"] = None
        else:
            report["separation"] = {
                "auc": sep.auc,
                "clean_mean": sep.clean_mean,
                "clean_std": sep.clean_std,
                "corrupt_mean": sep.corrupt_mean,
                "corrupt_std": sep.corrupt_std,
                "n_clean": sep.n_clean,
                "n_corrupt": sep.n_corrupt,
            }

    acc_path = os.path.join(run_dir, "class_meta_acc.csv")
    if os.path.exists(acc_path) and trajectory.epochs:
        per_epoch = {}
        for lineno, fields in read_rows(acc_path, ("epoch", "class", "acc")):
            try:
                e, c, acc = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ConfigError(
                    f"{acc_path} line {lineno}: expected epoch,class,acc, "
                    f"got {','.join(fields)!r}"
                ) from None
            if not 0 <= c < info["n_classes"]:
                raise ConfigError(
                    f"{acc_path} line {lineno}: class {c} outside [0, {info['n_classes']})"
                )
            per_epoch.setdefault(e, {})[c] = acc
        series = []
        for e in range(trajectory.epochs):
            accs = per_epoch.get(e)
            if accs is None:
                series.append(None)
                continue
            classes = sorted(accs)
            rates = trajectory.snapshot(e).w_class[classes]
            values = np.array([accs[c] for c in classes])
            keep = np.isfinite(values)
            if keep.sum() < 3:
                series.append(None)
                continue
            series.append(
                analysis.lr_performance_correlation(rates[keep], values[keep])
            )
        late = [r for r in series[6:] if r is not None]
        report["rate_accuracy_correlation"] = {
            "per_epoch": series,
            # Direction diagnostic: at this scale the meta step shifts rate
            # toward classes doing badly on the meta set, so settled noisy
            # runs sit mostly below zero here.
            "fraction_negative_after_epoch_5": (
                None if not late else float(np.mean([r < 0 for r in late]))
            ),
        }

    if args.hessian_top:
        if args.data is None:
            raise ConfigError("--hessian-top needs --data for the probe sample")
        model = harness.load_model(os.path.join(run_dir, "model.json"))
        ds = datagen.load_dataset(args.data)
        take = min(args.sample_size, ds.n)
        batch_ds = ds.subset(np.arange(take))
        from .nn import Batch

        batch = Batch(batch_ds.features, batch_ds.labels, batch_ds.indices)
        eigs, converged = analysis.hessian_top_eigs_model(model, batch, args.hessian_top)
        report["hessian_top_eigs"] = {
            "values": [float(v) for v in eigs],
            "converged": list(converged),
            "sample_size": take,
        }

    out_path = args.out or os.path.join(run_dir, "analysis.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "corrupt": _cmd_corrupt,
    "train": _cmd_train,
    "kfold": _cmd_kfold,
    "replay": _cmd_replay,
    "gradcheck": _cmd_gradcheck,
    "analyze": _cmd_analyze,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
