"""Training runs and sweep protocols.

A run is a pure function of its TrainConfig: dataset synthesis/split,
weight init, batch order, and filter resets each draw from separate
seeded streams, so repeating a config reproduces every byte of output.
Completed runs are recognized by config hash and not recomputed, which
makes sweeps resumable. ``store`` writes each run directory whole or not
at all and decides when a stored run is reused (see its docstring).

A sweep computes each distinct trajectory once. Its configs that differ
only in condition (base or randomout) and RandomOut settings run as one
group: they train together until their reset masks first differ, and a
config that leaves resumes from a snapshot of that batch. Each config
still gets its own ``run_training`` call and run directory, with the
bytes a run of it alone writes, and ``sweep_log.jsonl`` records how each
run was obtained. The dataset pair depends only on the dataset and the
seed, so a sweep schedules one group per dataset and seed, which loads
its pair once: a batchnorm run, every width of a width sweep and each
base trajectory with its randomout followers all run on it, back to back.
"""

import ctypes
import json
import math
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import store
from .data import BatchPlan, check_last_batch, load_cifar10_binary, load_idx, split_50_50, synth_craters
from .models import ARCHITECTURES
from .optim import make_optimizer
from .regularizer import cgn, dead_masks, scan_and_reset
from .rng import derive_stream
from .store import MetricsRecord, RunResult, write_csv, write_metrics, write_summary

# Added to the first conv layer's bias by dead_first_layer; large enough to
# keep every pre-activation negative for any Xavier draw at widths 1..10.
DEAD_BIAS_OFFSET = -10.0
# A run counts as failed when its final accuracy beats chance by less than this.
FAIL_MARGIN = 0.05
# Test examples per eval forward: small enough that a chunk's activations stay
# in cache, and a whole number of the dense head's BLAS row tiles, so chunks
# give the same logits bit for bit as one large batch.
EVAL_CHUNK = 16
# CSV columns: the summary.json keys of a seed sweep's runs, and the keys of
# a width sweep's rows.
SWEEP_COLUMNS = ("condition", "seed", "config_hash", "final_test_acc", "diverged", "failed", "total_resets")
WIDTH_COLUMNS = ("width", "base_mean", "base_std", "randomout_mean", "randomout_std", "randomout_wins")
# Every sweep writes one JSON line per config here: how its run was obtained.
SWEEP_LOG = "sweep_log.jsonl"


def _pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds where its dynamic rule ends up.

    A training step allocates and frees arrays of a few hundred KB to a few
    MB. At glibc's start values (128 KiB each) each of them is mmapped, or
    trimmed, and faulted in again, which makes runs several times slower.
    glibc raises both thresholds only after the process frees a large
    mmapped chunk, so speed would hang on what was allocated before
    training. These are the values that rule reaches after freeing a 32 MiB
    chunk (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit; the trim threshold is twice
    the mmap threshold). A chunk above 32 MiB, such as a full CIFAR-10 pool,
    never raises them. Does nothing where libc has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


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
    model = ARCHITECTURES[cfg.model.name](
        cfg.model.width,
        derive_stream(cfg.seed, "init"),
        with_batchnorm=cfg.condition == "batchnorm",
        input_shape=tuple(train.sample_shape),
        num_classes=train.num_classes,
    )
    if cfg.dead_first_layer:
        model.convs[0].bias.value += DEAD_BIAS_OFFSET
    return model


def chance_level(labels, num_classes):
    """Majority-class rate: the accuracy of a constant prediction."""
    counts = np.bincount(labels, minlength=num_classes)
    return float(counts.max() / counts.sum())


def evaluate(model, dataset):
    """Accuracy of a forward-only eval pass, EVAL_CHUNK examples at a time."""
    correct = 0
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        logits, _ = model.forward(dataset.batch(chunk), mode="eval")
        correct += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[chunk]))
    return correct / len(dataset)


def effective_acc(summary):
    """Final accuracy with divergent runs scored at chance."""
    if summary["diverged"] or summary["final_test_acc"] is None:
        return summary["chance"]
    return summary["final_test_acc"]


def _scans(cfg, done):
    """Whether cfg's run scans its filters at batch index ``done``."""
    return cfg.randomout is not None and done % cfg.randomout.check_every == 0


def _reset_key(cfg, done, progress, scores):
    """The filters cfg's run resets at batch ``done``, as a hashable value;
    None when it resets none, scanning or not."""
    if not _scans(cfg, done):
        return None
    key = tuple(np.flatnonzero(dead).tobytes() for dead in dead_masks(cfg.randomout, progress, scores))
    return key if any(key) else None


@dataclass
class _Snapshot:
    """A trajectory after one batch's backward and before its scan.

    ``done`` is that batch's index and ``pending`` its loss, train accuracy
    and CGN vectors (fresh arrays, which no later batch writes). The
    model's flat values and grads and the optimizer's ``flat_state`` are
    copied whole, and restoring copies them back in place, so every
    param's views stay views of the live buffers and the parts of one
    split can all restore the same snapshot.
    """

    values: np.ndarray
    grads: np.ndarray
    optimizer_state: list
    rng_state: dict
    records: list
    events: list
    done: int
    pending: tuple

    @classmethod
    def take(cls, model, optimizer, rng, records, events, done, pending):
        return cls(
            model.values.copy(),
            model.grads.copy(),
            [a.copy() for a in optimizer.flat_state],
            rng.bit_generator.state,
            list(records),
            list(events),
            done,
            pending,
        )

    def restore(self, model, optimizer, rng):
        """Load the snapshot into a freshly built run; returns its records, events, done and pending."""
        model.values[...] = self.values
        model.grads[...] = self.grads
        for a, saved in zip(optimizer.flat_state, self.optimizer_state):
            a[...] = saved
        rng.bit_generator.state = self.rng_state
        return list(self.records), list(self.events), self.done, self.pending


@dataclass
class _Outcome:
    """A finished trajectory: what every run that followed it to the end returns."""

    records: list
    events: list
    done: int
    diverged: bool
    filter_count: int


def _train(cfg, train, test, snapshot, followers):
    """Train cfg from its first batch, or from ``snapshot``, to the end.

    ``followers`` are configs whose runs are so far identical to this one.
    After each backward every follower's reset masks are compared with cfg's;
    followers that reset other filters leave, split into parts by their masks,
    and each part is returned with a snapshot to resume from. Returns the
    outcome, the followers still aboard at the end, and the list of
    ``(snapshot, part)`` splits.
    """
    if cfg.condition == "batchnorm":  # a file dataset's size is known only here
        check_last_batch(len(train), cfg.batch_size)
    model = build_for(cfg, train)
    optimizer = make_optimizer(cfg.optimizer, model, cfg.lr)
    ro_rng = derive_stream(cfg.seed, "randomout")
    plan = BatchPlan(len(train), cfg.epochs, cfg.batch_size, cfg.seed)
    records, events, done, pending = [], [], 0, None
    if snapshot is not None:
        records, events, done, pending = snapshot.restore(model, optimizer, ro_rng)
    splits = []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(done // plan.batches_per_epoch, cfg.epochs):
            for batch_no, idx in enumerate(plan.batches(epoch)):
                if epoch * plan.batches_per_epoch + batch_no < done:
                    continue  # trained before the snapshot
                if pending is None:
                    x, y = train.batch(idx), train.labels[idx]
                    logits, cache = model.forward(x, mode="train")
                    loss = model.backward(cache, y)
                    train_acc = np.count_nonzero(np.argmax(logits, axis=1) == y) / len(idx)
                    if not math.isfinite(loss):
                        records.append(MetricsRecord(epoch, batch_no, loss, train_acc, None, 0.0, 0, 0, True))
                        diverged = True
                        break
                    scores = [cgn(conv) for conv in model.convs]
                else:
                    loss, train_acc, scores = pending
                    pending = None
                all_scores = np.concatenate(scores)
                mean_cgn = float(np.mean(all_scores))
                below = int(np.count_nonzero(all_scores < cfg.telemetry_tau))
                progress = done / plan.total_batches
                if followers:
                    parts = {}
                    for follower in followers:
                        parts.setdefault(_reset_key(follower, done, progress, scores), []).append(follower)
                    followers = parts.pop(_reset_key(cfg, done, progress, scores), [])
                    if parts:
                        snap = _Snapshot.take(model, optimizer, ro_rng, records, events, done, (loss, train_acc, scores))
                        splits += [(snap, part) for part in parts.values()]
                resets = 0
                if _scans(cfg, done):
                    new = scan_and_reset(model, optimizer, cfg.randomout, progress, ro_rng, scores, epoch, batch_no)
                    events.extend(new)
                    resets = len(new)
                optimizer.step()
                model.zero_grads()
                records.append(MetricsRecord(epoch, batch_no, loss, train_acc, None, mean_cgn, below, resets, False))
                done += 1
            if diverged:
                break
            records[-1].test_acc = evaluate(model, test)
    return _Outcome(records, events, done, diverged, sum(conv.out_channels for conv in model.convs)), followers, splits


class _Group:
    """The configs of one dataset and seed, run on one dataset pair.

    Configs with equal ``_group_key`` differ only in condition (base or
    randomout) and RandomOut settings, so they share data, init and batch
    order, and their runs are identical batch for batch until one resets
    other filters than another. ``members`` lists each key's configs back
    to back, keys in first-occurrence order, and their ``run_training``
    calls must come in that order. Each call finds its config's run
    pending (it trains from the start, or resumes from a snapshot where it
    left another run, carrying the rest of its part) or finished (it only
    writes files). The pair is loaded at first need.
    """

    def __init__(self, cfgs):
        by_key = {}
        for cfg in cfgs:
            by_key.setdefault(_group_key(cfg), []).append(cfg)
        self.members = [cfg for part in by_key.values() for cfg in part]
        # hash -> (snapshot, or None at the start; followers; hash of the run it left)
        self.pending = {part[0].config_hash(): (None, part[1:], None) for part in by_key.values()}
        self.finished = {}  # hash -> (outcome, hash of the run that computed it)
        self.data = None  # load_dataset_pair of the members, loaded at first need
        self.log = {}  # hash -> how the member's run was obtained

    def _note(self, cfg, how, first_batch=None, followed=None):
        self.log[cfg.config_hash()] = {"how": how, "first_batch": first_batch, "followed": followed}

    def skip(self, cfg):
        """cfg's run is already on disk: hand its place on to the first member that waited for it."""
        h = cfg.config_hash()
        self.finished.pop(h, None)
        snapshot, followers, followed = self.pending.pop(h, (None, [], None))
        if followers:
            self.pending[followers[0].config_hash()] = (snapshot, followers[1:], followed)
        self._note(cfg, "reused")

    def outcome(self, cfg):
        """cfg's finished trajectory, training whatever part of it is not yet computed."""
        h = cfg.config_hash()
        if h in self.finished:
            outcome, followed = self.finished.pop(h)
            self._note(cfg, "shared", followed=followed)
            return outcome
        snapshot, followers, followed = self.pending.pop(h)
        if snapshot is None:
            self._note(cfg, "computed", 0)
        else:
            self._note(cfg, "forked", snapshot.done, followed)
        if self.data is None:
            self.data = load_dataset_pair(cfg)
        outcome, followers, splits = _train(cfg, *self.data, snapshot, followers)
        for follower in followers:
            self.finished[follower.config_hash()] = (outcome, h)
        for snap, part in splits:
            self.pending[part[0].config_hash()] = (snap, part[1:], h)
        return outcome


def _group_key(cfg):
    """Configs with equal keys share a trajectory until their reset masks differ."""
    if cfg.condition == "batchnorm":  # another model: trains alone
        return cfg.config_hash()
    return cfg.replace(condition="base").config_hash()


def run_training(cfg, out_dir, group=None):
    """Execute one training run; reuse the artifact if it already exists.

    Per batch: forward, backward, telemetry, optional reset scan, optimizer
    step. Per epoch: test accuracy from a forward-only eval pass over the
    test set in chunks of EVAL_CHUNK examples, recorded on the epoch's last
    row. A non-finite loss marks the run divergent and halts it without
    raising.

    A sweep passes the ``_Group`` that cfg belongs to: then the run may
    resume from the batch where it left another member's trajectory, or
    take a finished trajectory whole, and it carries along the members
    that follow it. Either way the call writes and returns exactly the
    bytes a run of cfg alone would.

    The stored run is read by ``store.load`` and written by
    ``store.commit``, which moves it into place whole (see ``store``). A
    directory left by an older engine version or a partial write is
    replaced; one that another process completed meanwhile is returned
    instead.
    """

    run_dir = Path(out_dir) / cfg.config_hash()
    if group is None:
        group = _Group([cfg])
    done_run = store.load(cfg, run_dir)
    if done_run is not None:
        group.skip(cfg)
        return done_run

    outcome = group.outcome(cfg)
    train, test = group.data
    records = outcome.records
    final_acc = None if outcome.diverged else records[-1].test_acc
    chance = chance_level(test.labels, test.num_classes)
    summary = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "condition": cfg.condition,
        "seed": cfg.seed,
        "n_train": len(train),
        "n_test": len(test),
        "filter_count": outcome.filter_count,
        "chance": chance,
        "batches_completed": outcome.done,
        "final_test_acc": final_acc,
        "diverged": outcome.diverged,
        "failed": outcome.diverged or final_acc < chance + FAIL_MARGIN,
        "total_resets": len(outcome.events),
        "engine_version": store.ENGINE_VERSION,
    }

    def write(tmp_dir):
        write_metrics(tmp_dir / "metrics.csv", records)
        write_csv(tmp_dir / "resets.csv", [store.RESETS_COLUMNS, *(vars(e).values() for e in outcome.events)])
        with open(tmp_dir / "config.json", "w") as f:
            f.write(cfg.canonical_json() + "\n")
        write_summary(tmp_dir / "summary.json", summary)

    done_run = store.commit(cfg, run_dir, write)
    if done_run is not None:
        return done_run
    return RunResult(cfg, str(run_dir), summary, records)


def _run_task(args):
    """Run the configs of one dataset and seed as one group; returns (result, sweep log line) pairs.

    The group loads the dataset pair at most once, and the pair is freed
    when the task returns.
    """
    cfgs, out_dir = args
    group = _Group(cfgs)
    out = []
    for cfg in group.members:
        start = time.perf_counter()
        result = run_training(cfg, out_dir, group=group)
        s = result.summary
        ro = cfg.randomout
        line = {
            "config_hash": cfg.config_hash(),
            "condition": cfg.condition,
            "seed": cfg.seed,
            "tau": None if ro is None else ro.tau,
            "p_active": None if ro is None else ro.p_active,
            **group.log[cfg.config_hash()],
            "batches_completed": s["batches_completed"],
            "diverged": s["diverged"],
            "wall_s": time.perf_counter() - start,
        }
        out.append((result, line))
    return out


def _run_many(cfgs, out_dir, jobs=1):
    """Run configs (deduplicated by hash) and return results in input order.

    The configs of one dataset and seed form a task, run as one ``_Group``
    on one loaded dataset pair. With ``jobs > 1`` each worker takes whole
    tasks, and no more workers start than there are tasks. Writes one line
    per config to ``sweep_log.jsonl`` in out_dir, in input order.
    """
    unique = {cfg.config_hash(): cfg for cfg in cfgs}  # ordered by first occurrence
    tasks = {}
    for cfg in unique.values():  # load_dataset_pair reads only cfg.dataset and cfg.seed
        tasks.setdefault((cfg.dataset, cfg.seed), []).append(cfg)
    tasks = [(task, out_dir) for task in tasks.values()]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = [pair for pairs in pool.map(_run_task, tasks) for pair in pairs]
    else:
        done = [pair for task in tasks for pair in _run_task(task)]
    by_hash = {line["config_hash"]: (result, line) for result, line in done}
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with open(Path(out_dir) / SWEEP_LOG, "w") as f:
        f.writelines(json.dumps(by_hash[h][1]) + "\n" for h in unique)
    return [by_hash[cfg.config_hash()][0] for cfg in cfgs]


def sweep_tally(out_dir):
    """One line counting how the last sweep in out_dir obtained its runs."""
    with open(Path(out_dir) / SWEEP_LOG) as f:
        lines = [json.loads(line) for line in f]
    hows = [line["how"] for line in lines]
    computed = sum(line["batches_completed"] - line["first_batch"] for line in lines if line["first_batch"] is not None)
    returned = sum(line["batches_completed"] for line in lines)
    counts = ", ".join(f"{hows.count(how)} {how}" for how in ("computed", "forked", "shared", "reused"))
    return f"runs: {counts}; batches: {computed} computed of {returned} returned"


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

    seeds = check_distinct("seeds", seeds)
    conditions = check_distinct("conditions", conditions)
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
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


def check_distinct(name, values):
    """``values`` as a list; ValueError naming the first one that repeats, which a sweep would run twice."""
    values = list(values)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"duplicate {name}: {value!r}")
    return values


def check_base_vs_randomout(cfg):
    """Raise ValueError for a batchnorm cfg, which grid and width sweeps would replace by base and randomout."""
    if cfg.condition == "batchnorm":
        raise ValueError("grid and width sweeps run base and randomout only; they cannot run condition 'batchnorm'")


def grid_search(base_cfg, taus, ps, seeds, out_dir="runs", jobs=1):
    """Mean paired accuracy gain for every (tau, p_active) cell.

    Each cell shares its seeds (and therefore its baselines) with every
    other cell; the baseline runs deduplicate through the config hash.
    Emits grid.csv with one tau per row and one p_active per column.
    """

    check_base_vs_randomout(base_cfg)
    taus = check_distinct("taus", taus)
    ps = check_distinct("p_active values", ps)
    seeds = check_distinct("seeds", seeds)
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
    base condition matches the filter-reset condition's accuracy at k.
    ``widths`` must increase."""

    check_base_vs_randomout(base_cfg)
    widths = check_distinct("widths", widths)
    seeds = check_distinct("seeds", seeds)
    if not widths or not seeds:
        raise ValueError("a width sweep needs at least one width and one seed")
    n = len(seeds)
    cfgs = [
        base_cfg.replace(seed=s, condition=c, model={"name": base_cfg.model.name, "width": width})
        for width in widths
        for c in ("base", "randomout")
        for s in seeds
    ]
    # after the cfgs, which reject a width below 1: the statistics below read widths in order
    if widths != sorted(widths):
        raise ValueError(f"widths must increase, got {widths}")
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
