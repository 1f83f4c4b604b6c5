"""Training runs and sweep protocols.

A run is a pure function of its TrainConfig: dataset synthesis/split,
weight init, batch order, and filter resets each draw from separate
seeded streams, so repeating a config reproduces every byte of output.
Completed runs are recognized by config hash and not recomputed, which
makes sweeps resumable and lets paired conditions share baselines. A run
directory is written whole or not at all, and is reused only if the engine
version that wrote it is the current one.
"""

import math
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import BatchPlan, load_cifar10_binary, load_idx, split_50_50, synth_craters
from .metrics import MetricsRecord, read_metrics, read_summary, write_csv, write_metrics, write_summary
from .model import conv_layers, filter_groups
from .models import build_cratercnn, build_mini_inception
from .optim import make_optimizer
from .regularizer import cgn, scan_and_reset
from .rng import derive_stream

# Recorded in every summary.json; a run directory is reused only when it
# matches. Bump it in every change that moves any result bit.
ENGINE_VERSION = 2
# Added to the first conv layer's bias by dead_first_layer; large enough to
# keep every pre-activation negative for any Xavier draw at widths 1..10.
DEAD_BIAS_OFFSET = -10.0
# A run counts as failed when its final accuracy beats chance by less than this.
FAIL_MARGIN = 0.05
# Test examples per eval forward: small enough that a chunk's activations stay
# in cache, and a whole number of the dense head's BLAS row tiles, so chunks
# give the same logits bit for bit as one large batch.
EVAL_CHUNK = 16
# CSV columns: the ResetEvent fields, the summary.json keys of a seed sweep's
# runs, and the keys of a width sweep's rows.
RESETS_COLUMNS = ("epoch", "batch", "layer_id", "filter_index", "cgn_before")
SWEEP_COLUMNS = ("condition", "seed", "config_hash", "final_test_acc", "diverged", "failed", "total_resets")
WIDTH_COLUMNS = ("width", "base_mean", "base_std", "randomout_mean", "randomout_std", "randomout_wins")


def load_dataset_pair(cfg):
    ds = cfg.dataset
    if ds.kind == "synth":
        pool = synth_craters(ds.n_pos, ds.n_neg, cfg.seed)
    elif ds.kind == "idx":
        pool = load_idx(ds.paths[0], ds.paths[1])
    else:
        pool = load_cifar10_binary(ds.paths[0], ds.max_per_class)
    return split_50_50(pool, cfg.seed)


def build_for(cfg, train):
    build = build_cratercnn if cfg.model.name == "cratercnn" else build_mini_inception
    model = build(
        cfg.model.width,
        derive_stream(cfg.seed, "init"),
        with_batchnorm=cfg.condition == "batchnorm",
        input_shape=tuple(train.sample_shape),
        num_classes=train.num_classes,
    )
    if cfg.dead_first_layer:
        conv_layers(model)[0].bias.value += DEAD_BIAS_OFFSET
    return model


def chance_level(labels, num_classes):
    """Majority-class rate: the accuracy of a constant prediction."""
    counts = np.bincount(labels, minlength=num_classes)
    return float(counts.max() / counts.sum())


def evaluate(model, dataset):
    """Accuracy of a forward-only eval pass, EVAL_CHUNK examples at a time."""
    correct = 0
    for start in range(0, len(dataset), EVAL_CHUNK):
        x = dataset.images[start : start + EVAL_CHUNK]
        logits, _ = model.forward(x, mode="eval")
        correct += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[start : start + EVAL_CHUNK]))
    return correct / len(dataset)


@dataclass
class RunResult:
    config: TrainConfig
    run_dir: str
    summary: dict
    records: list


def effective_acc(summary):
    """Final accuracy with divergent runs scored at chance."""
    if summary["diverged"] or summary["final_test_acc"] is None:
        return summary["chance"]
    return summary["final_test_acc"]


def _completed_run(cfg, run_dir):
    """The run stored in run_dir, or None unless it is whole and of ENGINE_VERSION."""
    try:
        summary = read_summary(run_dir / "summary.json")
        if not isinstance(summary, dict) or summary.get("engine_version") != ENGINE_VERSION:
            return None
        return RunResult(cfg, str(run_dir), summary, read_metrics(run_dir / "metrics.csv"))
    except (OSError, ValueError):
        return None


def run_training(cfg, out_dir, force=False):
    """Execute one training run; reuse the artifact if it already exists.

    Per batch: forward, backward, telemetry, optional reset scan, optimizer
    step. Per epoch: test accuracy from a forward-only eval pass over the
    test set in chunks of EVAL_CHUNK examples, recorded on the epoch's last
    row. A non-finite loss marks the run divergent and halts it without
    raising.

    The run's files are written into ``<hash>.tmp-<pid>/`` beside the run
    directory, which then moves into place with one ``os.replace``. A
    directory left by an older engine version, a partial write or
    ``force`` is replaced; one that another process completed meanwhile is
    returned instead.
    """

    run_dir = Path(out_dir) / cfg.config_hash()
    if not force:
        done_run = _completed_run(cfg, run_dir)
        if done_run is not None:
            return done_run

    train, test = load_dataset_pair(cfg)
    model = build_for(cfg, train)
    convs = conv_layers(model)
    optimizer = make_optimizer(cfg.optimizer, model.params, cfg.lr)
    ro_cfg = cfg.randomout  # None unless the condition is randomout
    ro_rng = derive_stream(cfg.seed, "randomout")

    plan = BatchPlan(len(train), cfg.epochs, cfg.batch_size, cfg.seed)
    records = []
    events = []
    diverged = False
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            for batch_no, idx in enumerate(plan.batches(epoch)):
                logits, cache = model.forward(train.images[idx], mode="train")
                loss = model.backward(cache, train.labels[idx])
                train_acc = float(np.mean(np.argmax(logits, axis=1) == train.labels[idx]))
                if not math.isfinite(loss):
                    records.append(MetricsRecord(epoch, batch_no, loss, train_acc, None, 0.0, 0, 0, True))
                    diverged = True
                    break
                scores = [cgn(conv) for conv in convs]
                mean_cgn = float(np.mean(np.concatenate(scores)))
                below = sum(int((s < cfg.telemetry_tau).sum()) for s in scores)
                resets = 0
                if ro_cfg is not None and done % ro_cfg.check_every == 0:
                    progress = done / plan.total_batches
                    new = scan_and_reset(model, optimizer, ro_cfg, progress, ro_rng, scores, epoch, batch_no)
                    events.extend(new)
                    resets = len(new)
                optimizer.step()
                model.zero_grads()
                records.append(MetricsRecord(epoch, batch_no, loss, train_acc, None, mean_cgn, below, resets, False))
                done += 1
            if diverged:
                break
            records[-1].test_acc = evaluate(model, test)

    final_acc = None if diverged else records[-1].test_acc
    chance = chance_level(test.labels, test.num_classes)
    summary = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "condition": cfg.condition,
        "seed": cfg.seed,
        "n_train": len(train),
        "n_test": len(test),
        "filter_count": len(filter_groups(model)),
        "chance": chance,
        "batches_completed": done,
        "final_test_acc": final_acc,
        "diverged": diverged,
        "failed": diverged or final_acc < chance + FAIL_MARGIN,
        "total_resets": len(events),
        "engine_version": ENGINE_VERSION,
    }
    tmp_dir = run_dir.with_name(f"{run_dir.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)  # left by a crashed process with this pid
    tmp_dir.mkdir(parents=True)
    write_metrics(tmp_dir / "metrics.csv", records)
    write_csv(tmp_dir / "resets.csv", [RESETS_COLUMNS, *(vars(e).values() for e in events)])
    with open(tmp_dir / "config.json", "w") as f:
        f.write(cfg.canonical_json() + "\n")
    write_summary(tmp_dir / "summary.json", summary)
    if force or _completed_run(cfg, run_dir) is None:
        shutil.rmtree(run_dir, ignore_errors=True)  # stale, partial or forced
    try:
        os.replace(tmp_dir, run_dir)  # fails if run_dir is not empty
    except OSError:
        # another process has moved its complete run into place first
        done_run = _completed_run(cfg, run_dir)
        if done_run is None:
            raise
        shutil.rmtree(tmp_dir)
        return done_run
    return RunResult(cfg, str(run_dir), summary, records)


def _run_one(args):
    cfg, out_dir = args
    return run_training(cfg, out_dir)


def _run_many(cfgs, out_dir, jobs=1):
    """Run configs (deduplicated by hash) and return results in input order."""
    unique = {cfg.config_hash(): cfg for cfg in cfgs}  # ordered by first occurrence
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_one, [(c, out_dir) for c in unique.values()]))
        by_hash = {r.summary["config_hash"]: r for r in done}
    else:
        by_hash = {h: run_training(c, out_dir) for h, c in unique.items()}
    return [by_hash[cfg.config_hash()] for cfg in cfgs]


def _stats(values):
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


def _write_sweep(out_dir, csv_name, rows, json_name, result):
    """Every sweep's epilogue: its table to csv_name, result to json_name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / csv_name, rows)
    write_summary(out / json_name, result)
    return result


def seed_sweep(base_cfg, seeds, conditions=("base", "randomout"), out_dir="runs", jobs=1):
    """Run every (seed, condition) pair and summarize final accuracies.

    Seeds are shared across conditions so per-seed differences isolate the
    condition. Divergent runs are kept, flagged, and scored at chance.
    Returns the contents of sweep_summary.json: ``conditions`` (stats per
    condition), ``paired_gains`` (None unless both base and randomout ran)
    and ``runs`` (every run's summary).
    """

    seeds = list(seeds)
    conditions = list(conditions)
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    if len(set(conditions)) != len(conditions):
        raise ValueError("duplicate conditions")
    n = len(seeds)
    cfgs = [base_cfg.replace(seed=s, condition=c) for c in conditions for s in seeds]
    runs = [r.summary for r in _run_many(cfgs, out_dir, jobs)]
    by_cond = {c: runs[i * n : (i + 1) * n] for i, c in enumerate(conditions)}

    cond_stats = {
        c: {
            **_stats([effective_acc(s) for s in rs]),
            "failure_rate": sum(s["failed"] for s in rs) / n,
            "divergence_rate": sum(s["diverged"] for s in rs) / n,
        }
        for c, rs in by_cond.items()
    }
    paired = None
    if "base" in by_cond and "randomout" in by_cond:
        gains = [effective_acc(ro) - effective_acc(b) for b, ro in zip(by_cond["base"], by_cond["randomout"])]
        paired = {"seeds": seeds, "gains": gains, "mean": float(np.mean(gains)), "median": float(np.median(gains))}

    rows = [SWEEP_COLUMNS, *([s[k] for k in SWEEP_COLUMNS] for s in runs)]
    result = {"conditions": cond_stats, "paired_gains": paired, "runs": runs}
    return _write_sweep(out_dir, "sweep_results.csv", rows, "sweep_summary.json", result)


def grid_search(base_cfg, taus, ps, seeds, out_dir="runs", jobs=1):
    """Mean paired accuracy gain for every (tau, p_active) cell.

    Each cell shares its seeds (and therefore its baselines) with every
    other cell; the baseline runs deduplicate through the config hash.
    Emits grid.csv with one tau per row and one p_active per column.
    """

    taus = list(taus)
    ps = list(ps)
    seeds = list(seeds)
    if not taus or not ps or not seeds:
        raise ValueError("a grid needs at least one tau, one p_active and one seed")
    n = len(seeds)
    cfgs = [base_cfg.replace(seed=s, condition="base") for s in seeds]
    cfgs += [
        base_cfg.replace(seed=s, condition="randomout", randomout={"tau": tau, "p_active": p, "check_every": 1})
        for tau, p in product(taus, ps)
        for s in seeds
    ]
    runs = [r.summary for r in _run_many(cfgs, out_dir, jobs)]
    base_accs = [effective_acc(s) for s in runs[:n]]

    cells = []
    for i, (tau, p) in enumerate(product(taus, ps), start=1):
        cell_runs = runs[i * n : (i + 1) * n]
        accs = [effective_acc(s) for s in cell_runs]
        gains = [a - b for a, b in zip(accs, base_accs)]
        cells.append(
            {
                "tau": tau,
                "p_active": p,
                "mean_gain": float(np.mean(gains)),
                "gains": gains,
                "mean_acc": float(np.mean(accs)),
                "total_resets": int(sum(s["total_resets"] for s in cell_runs)),
            }
        )

    by_cell = {(c["tau"], c["p_active"]): c for c in cells}
    min_tau = min(taus)
    corr = None
    if len(ps) > 1:
        col = np.asarray([by_cell[(min_tau, p)]["mean_gain"] for p in ps])
        if np.std(col) > 0 and np.std(ps) > 0:
            corr = float(np.corrcoef(ps, col)[0, 1])

    rows = [["tau", *map(float, ps)], *([float(tau), *(by_cell[(tau, p)]["mean_gain"] for p in ps)] for tau in taus)]
    result = {
        "taus": taus,
        "ps": ps,
        "seeds": seeds,
        "cells": cells,
        "base_mean_acc": float(np.mean(base_accs)),
        "gain_p_correlation_at_min_tau": corr,
    }
    return _write_sweep(out_dir, "grid.csv", rows, "grid_summary.json", result)


def width_sweep(base_cfg, widths, seeds, out_dir="runs", jobs=1):
    """Mean final accuracy per (width, condition) plus the effective-extra-
    filters statistic: for each width k, the smallest width k2 at which the
    base condition matches the filter-reset condition's accuracy at k."""

    widths = list(widths)
    seeds = list(seeds)
    if not widths or not seeds:
        raise ValueError("a width sweep needs at least one width and one seed")
    n = len(seeds)
    cfgs = [
        base_cfg.replace(seed=s, condition=c, model={"name": base_cfg.model.name, "width": width})
        for width in widths
        for c in ("base", "randomout")
        for s in seeds
    ]
    accs = [effective_acc(r.summary) for r in _run_many(cfgs, out_dir, jobs)]
    rows = []
    for i, width in enumerate(widths):
        base = _stats(accs[2 * i * n : (2 * i + 1) * n])
        ro = _stats(accs[(2 * i + 1) * n : (2 * i + 2) * n])
        stats = (width, base["mean"], base["std"], ro["mean"], ro["std"], ro["mean"] >= base["mean"])
        rows.append(dict(zip(WIDTH_COLUMNS, stats)))

    base_means = {r["width"]: r["base_mean"] for r in rows}
    extra = {}
    for r in rows:
        k = r["width"]
        match = next((k2 for k2 in widths if base_means[k2] >= r["randomout_mean"]), None)
        extra[k] = None if match is None else match - k

    # trend report (not asserted anywhere): widths where mean accuracy
    # dipped below the previous width's mean
    dips = {
        cond: [r["width"] for prev, r in zip(rows, rows[1:]) if r[f"{cond}_mean"] < prev[f"{cond}_mean"]]
        for cond in ("base", "randomout")
    }

    table = [[*WIDTH_COLUMNS, "effective_extra_filters"], *([*r.values(), extra[r["width"]]] for r in rows)]
    result = {
        "widths": widths,
        "seeds": seeds,
        "rows": rows,
        "effective_extra_filters": {str(k): v for k, v in extra.items()},
        "accuracy_dips": dips,
        "majority_randomout_wins": sum(r["randomout_wins"] for r in rows) > len(rows) / 2,
    }
    return _write_sweep(out_dir, "width_sweep.csv", table, "width_summary.json", result)
