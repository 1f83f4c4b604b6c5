"""Command-line front end.

Subcommands: train, sweep-seeds, grid, width-sweep, gen-data.
Option precedence is explicit flag > config file > built-in default.
Exit codes: 0 success, 1 usage error, 2 runtime error. Output carries no
timestamps or timings, so identical invocations on the same run store
print identical logs. A sweep's last line tallies how its runs were
obtained (``experiments.sweep_tally``), so a resumed sweep shows as one.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .config import ModelCfg, RandomOutCfg, TrainConfig, read_config_json
from .data import synth_craters, write_cifar10_binary, write_idx_images, write_idx_labels
from .experiments import check_base_vs_randomout, grid_search, run_training, seed_sweep, sweep_tally, width_sweep
from .rng import derive_stream

DEFAULT_TAUS = "1e-14,1e-12,1e-10,1e-8,1e-6,1e-4"
DEFAULT_PS = "0.25,0.5,0.75,1.0"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _formatter(prog):
    # fixed width keeps --help output independent of the terminal
    return argparse.ArgumentDefaultsHelpFormatter(prog, width=96)


def _add_run_flags(p):
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--model", choices=["cratercnn", "mini-inception"], help="architecture")
    p.add_argument(
        "--dataset",
        metavar="SPEC",
        help="synth | idx:IMAGES,LABELS | cifar10:PATH",
    )
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="minibatch size")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--optimizer", choices=["sgd", "adam"], help="optimizer")
    p.add_argument("--randomout", action="store_true", help="enable filter resets")
    p.add_argument("--tau", type=float, help="reset threshold (needs --randomout)")
    p.add_argument("--p-active", type=float, help="active fraction of training (needs --randomout)")
    p.add_argument("--batchnorm", action="store_true", help="batchnorm condition (excludes --randomout)")
    p.add_argument("--out", metavar="DIR", default="runs", help="output directory")


def _add_jobs_flag(p):
    # no argparse default, so --help shows no machine-dependent number; _sweep_args fills it in
    p.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS, help="parallel runs (default: the CPUs this process may use)"
    )


def build_parser():
    parser = _Parser(prog="randomout", description=__doc__.splitlines()[0], formatter_class=_formatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("train", help="run one training job", formatter_class=_formatter)
    _add_run_flags(p)
    p.set_defaults(run=cmd_train, parser=p)

    p = sub.add_parser("sweep-seeds", help="paired-seed comparison of conditions", formatter_class=_formatter)
    _add_run_flags(p)
    p.add_argument("--seeds", metavar="A..B", required=True, help="half-open seed range")
    _add_jobs_flag(p)
    p.set_defaults(run=cmd_sweep_seeds, parser=p)

    p = sub.add_parser("grid", help="tau x p_active gain table", formatter_class=_formatter)
    _add_run_flags(p)
    p.add_argument("--seeds", metavar="A..B", required=True, help="half-open seed range")
    p.add_argument("--taus", default=DEFAULT_TAUS, help="comma-separated thresholds")
    p.add_argument("--ps", default=DEFAULT_PS, help="comma-separated active fractions")
    _add_jobs_flag(p)
    p.set_defaults(run=cmd_grid, parser=p)

    p = sub.add_parser("width-sweep", help="accuracy vs filter count per condition", formatter_class=_formatter)
    _add_run_flags(p)
    p.add_argument("--seeds", metavar="A..B", required=True, help="half-open seed range")
    p.add_argument("--widths", metavar="A..B", default="1..11", help="half-open width range")
    _add_jobs_flag(p)
    p.set_defaults(run=cmd_width_sweep, parser=p)

    p = sub.add_parser("gen-data", help="write fixture data files", formatter_class=_formatter)
    p.add_argument("--kind", choices=["idx", "cifar10"], default="idx", help="file format to write")
    p.add_argument("--count", type=int, default=64, help="number of examples")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", metavar="DIR", default="fixtures", help="output directory")
    p.set_defaults(run=cmd_gen_data, parser=p)
    return parser


def _parse_range(text, parser, flag):
    parts = text.split("..")
    if len(parts) != 2:
        parser.error(f"{flag} expects A..B (half-open), got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        parser.error(f"{flag} expects integer bounds, got {text!r}")
    if b <= a:
        parser.error(f"{flag} range is empty: {text!r}")
    return list(range(a, b))


def _parse_floats(text, parser, flag):
    try:
        values = [float(t) for t in text.split(",") if t != ""]
    except ValueError:
        parser.error(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        parser.error(f"{flag} expects at least one number, got {text!r}")
    return values


def _check_each(values, make, parser, flag):
    """Usage error unless make(v), a config class's own check, accepts every value."""
    for value in values:
        try:
            make(value)
        except ValueError as e:
            parser.error(f"{flag}: {e}")


def _parse_dataset(text, parser):
    if text == "synth":
        return {"kind": "synth"}
    if text.startswith("idx:"):
        paths = text[4:].split(",")
        if len(paths) != 2 or not all(paths):
            parser.error(f"--dataset idx needs idx:IMAGES,LABELS, got {text!r}")
        return {"kind": "idx", "paths": paths}
    if text.startswith("cifar10:"):
        path = text[len("cifar10:") :]
        if not path:
            parser.error(f"--dataset cifar10 needs cifar10:PATH, got {text!r}")
        return {"kind": "cifar10", "paths": [path]}
    parser.error(f"unknown --dataset {text!r}; expected synth, idx:IMAGES,LABELS, or cifar10:PATH")


def _config_from_args(args, parser):
    if args.randomout and args.batchnorm:
        parser.error("--randomout conflicts with --batchnorm: the conditions are mutually exclusive")
    try:
        raw = read_config_json(args.config) if args.config else {}
    except (OSError, ValueError) as e:
        parser.error(str(e))
    if args.seed is not None:
        raw["seed"] = args.seed
    # a flag merges into the file's object only; another value stays for TrainConfig to reject
    model = raw.get("model", {})
    if args.model is not None and isinstance(model, dict):
        raw["model"] = {**model, "name": args.model.replace("-", "_")}
    if args.dataset is not None:
        flag, old = _parse_dataset(args.dataset, parser), raw.get("dataset")
        # another kind reads other fields: keep the file's only for the same kind
        same_kind = isinstance(old, dict) and old.get("kind", "synth") == flag["kind"]
        raw["dataset"] = {**old, **flag} if same_kind else flag
    for key in ("epochs", "batch_size", "lr", "optimizer"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    if args.randomout:
        raw["condition"] = "randomout"
    elif args.batchnorm:
        raw["condition"] = "batchnorm"
        raw["randomout"] = None
    if args.tau is not None or args.p_active is not None:
        if raw.get("condition") != "randomout":
            parser.error("--tau and --p-active require --randomout (or a config with condition randomout)")
        ro = {} if raw.get("randomout") is None else raw["randomout"]
        if isinstance(ro, dict):
            flags = {"tau": args.tau, "p_active": args.p_active}
            raw["randomout"] = {**ro, **{k: v for k, v in flags.items() if v is not None}}
    try:
        return TrainConfig.from_dict(raw)
    except (TypeError, ValueError) as e:
        parser.error(str(e))


def _print_run(result):
    print(f"config {result.summary['config_hash']}")
    print(f"dir {result.run_dir}")
    epochs = result.config.epochs
    total_resets = 0
    for rec in result.records:
        total_resets += rec.resets
        if rec.test_acc is not None or rec.diverged:
            test = "-" if rec.test_acc is None else f"{rec.test_acc:.4f}"
            print(
                f"epoch {rec.epoch + 1}/{epochs} loss {rec.train_loss:.4f} "
                f"train_acc {rec.train_acc:.4f} test_acc {test} resets {total_resets}"
            )
            total_resets = 0
    s = result.summary
    acc = "-" if s["final_test_acc"] is None else f"{s['final_test_acc']:.4f}"
    print(f"final test_acc {acc} diverged {int(s['diverged'])} failed {int(s['failed'])} resets {s['total_resets']}")


def cmd_train(args, parser):
    cfg = _config_from_args(args, parser)
    _print_run(run_training(cfg, args.out))
    return 0


def _sweep_args(args, parser):
    """A sweep's base config and seeds; a bad --jobs or seed is a usage error."""
    cfg = _config_from_args(args, parser)
    if "jobs" not in args:  # the CPUs this process may use (all of them where the OS cannot say)
        args.jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    seeds = _parse_range(args.seeds, parser, "--seeds")
    _check_each(seeds, lambda seed: cfg.replace(seed=seed), parser, "--seeds")
    return cfg, seeds


def cmd_sweep_seeds(args, parser):
    cfg, seeds = _sweep_args(args, parser)
    if len(seeds) < 2:
        parser.error(f"--seeds needs at least 2 seeds, got {args.seeds!r}")
    conditions = ["base"]
    if cfg.condition != "base":
        conditions.append(cfg.condition)
    summary = seed_sweep(cfg, seeds, conditions, args.out, args.jobs)
    for run in summary["runs"]:
        acc = "-" if run["final_test_acc"] is None else f"{run['final_test_acc']:.4f}"
        print(f"{run['condition']} seed {run['seed']} config {run['config_hash']} acc {acc}")
    for cond, st in summary["conditions"].items():
        print(
            f"{cond}: mean {st['mean']:.4f} median {st['median']:.4f} std {st['std']:.4f} "
            f"fail_rate {st['failure_rate']:.2f} diverge_rate {st['divergence_rate']:.2f}"
        )
    gains = summary["paired_gains"]
    if gains is not None:
        print(f"paired gain median {gains['median']:+.4f} mean {gains['mean']:+.4f}")
    print(sweep_tally(args.out))
    return 0


def cmd_grid(args, parser):
    cfg, seeds = _sweep_args(args, parser)
    _check_each([cfg], check_base_vs_randomout, parser, "condition")
    taus = _parse_floats(args.taus, parser, "--taus")
    ps = _parse_floats(args.ps, parser, "--ps")
    _check_each(taus, lambda tau: RandomOutCfg(tau=tau), parser, "--taus")
    _check_each(ps, lambda p: RandomOutCfg(p_active=p), parser, "--ps")
    result = grid_search(cfg, taus, ps, seeds, args.out, args.jobs)
    print(f"grid table {Path(args.out) / 'grid.csv'}")
    best = max(result["cells"], key=lambda c: c["mean_gain"])
    print(f"best cell tau {best['tau']:g} p {best['p_active']:g} mean_gain {best['mean_gain']:+.4f}")
    corr = result["gain_p_correlation_at_min_tau"]
    print(f"gain/p correlation at min tau: {'n/a' if corr is None else f'{corr:+.3f}'}")
    print(sweep_tally(args.out))
    return 0


def cmd_width_sweep(args, parser):
    cfg, seeds = _sweep_args(args, parser)
    _check_each([cfg], check_base_vs_randomout, parser, "condition")
    widths = _parse_range(args.widths, parser, "--widths")
    _check_each(widths, lambda width: ModelCfg(cfg.model.name, width), parser, "--widths")
    result = width_sweep(cfg, widths, seeds, args.out, args.jobs)
    for row in result["rows"]:
        extra = result["effective_extra_filters"][str(row["width"])]
        print(
            f"width {row['width']}: base {row['base_mean']:.4f} randomout {row['randomout_mean']:.4f} "
            f"extra_filters {'-' if extra is None else extra}"
        )
    print(f"randomout wins at {sum(r['randomout_wins'] for r in result['rows'])}/{len(result['rows'])} widths")
    print(sweep_tally(args.out))
    return 0


def cmd_gen_data(args, parser):
    least = 2 if args.kind == "idx" else 1  # a crater set holds at least one image of each class
    if args.count < least:
        parser.error(f"--count must be >= {least} for --kind {args.kind}, got {args.count}")
    _check_each([args.seed], lambda seed: derive_stream(seed, "data_synth"), parser, "--seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "idx":
        ds = synth_craters(args.count - args.count // 2, args.count // 2, args.seed)
        images = np.round(ds.images[:, 0] * 255).astype(np.uint8)
        write_idx_images(out / "crater-images.idx", images)
        write_idx_labels(out / "crater-labels.idx", ds.labels)
        print(f"wrote {out / 'crater-images.idx'}")
        print(f"wrote {out / 'crater-labels.idx'}")
    else:
        rng = derive_stream(args.seed, "data_synth")
        images = rng.integers(0, 256, size=(args.count, 3, 32, 32), dtype=np.uint8)
        labels = np.arange(args.count) % 10
        write_cifar10_binary(out / "cifar10-fixture.bin", images, labels)
        print(f"wrote {out / 'cifar10-fixture.bin'}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, args.parser)
    except (ValueError, OSError) as e:
        print(f"randomout: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
