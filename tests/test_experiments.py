"""Training runs and sweep protocols: determinism, resumption, summaries."""

import ctypes
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import layer_oracles
from randomout import experiments, tensor
from randomout.cli import main
from randomout.config import TrainConfig
from randomout.data import Dataset, synth_craters, write_cifar10_binary, write_idx_images, write_idx_labels
from randomout.experiments import (
    EVAL_CHUNK,
    build_for,
    chance_level,
    effective_acc,
    evaluate,
    grid_search,
    load_dataset_pair,
    run_training,
    seed_sweep,
    width_sweep,
)
from randomout.layers import AvgPool2d, BatchNorm2d, Conv2d, ReLU, run_sequence
from randomout.model import Model
from randomout.models import ARCHITECTURES
from randomout.optim import SGD
from randomout.rng import derive_stream
from randomout.store import ENGINE_VERSION, read_metrics


def tiny_cfg(**kw):
    base = dict(
        seed=0,
        epochs=2,
        batch_size=8,
        lr=0.05,
        model={"name": "cratercnn", "width": 2},
        dataset={"kind": "synth", "n_pos": 16, "n_neg": 16},
    )
    base.update(kw)
    return TrainConfig.from_dict(base)


def test_run_produces_all_artifacts(tmp_path):
    result = run_training(tiny_cfg(), tmp_path)
    run_dir = tmp_path / tiny_cfg().config_hash()
    assert str(run_dir) == result.run_dir
    for name in ("metrics.csv", "resets.csv", "config.json", "summary.json"):
        assert (run_dir / name).exists()
    s = result.summary
    assert s["n_train"] == 16 and s["n_test"] == 16
    assert s["filter_count"] == 4
    assert s["chance"] == 0.5
    assert s["batches_completed"] == 2 * 2  # 16/8 batches x 2 epochs
    assert 0.0 <= s["final_test_acc"] <= 1.0
    assert not s["diverged"]


def test_records_one_row_per_batch_test_acc_on_epoch_end(tmp_path):
    result = run_training(tiny_cfg(), tmp_path)
    assert len(result.records) == 4
    assert [r.test_acc is not None for r in result.records] == [False, True, False, True]
    assert [(r.epoch, r.batch) for r in result.records] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_repeat_run_is_byte_identical(tmp_path):
    cfg = tiny_cfg(seed=3)
    run_training(cfg, tmp_path / "a")
    run_training(cfg, tmp_path / "b")
    h = cfg.config_hash()
    a = (tmp_path / "a" / h / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / h / "metrics.csv").read_bytes()
    assert a == b


def test_existing_run_is_reused(tmp_path):
    cfg = tiny_cfg()
    first = run_training(cfg, tmp_path)
    marker = tmp_path / cfg.config_hash() / "metrics.csv"
    stamp = marker.stat().st_mtime_ns
    second = run_training(cfg, tmp_path)
    assert marker.stat().st_mtime_ns == stamp  # nothing rewritten
    assert second.summary == first.summary
    assert second.records == first.records


def _older_version(text):
    return text.replace(f'"engine_version": {ENGINE_VERSION}', f'"engine_version": {ENGINE_VERSION - 1}')


def _no_version(text):
    summary = json.loads(text)
    del summary["engine_version"]
    return json.dumps(summary)


@pytest.mark.parametrize(
    "stale", [_older_version, _no_version, lambda text: text[: len(text) // 2], lambda text: "[]"],
    ids=["older-version", "missing-version", "truncated", "not-an-object"],
)
def test_stale_run_directory_is_recomputed(tmp_path, stale):
    cfg = tiny_cfg(seed=4)
    h = cfg.config_hash()
    fresh = run_training(cfg, tmp_path / "fresh")
    run_training(cfg, tmp_path / "store")
    summary_path = tmp_path / "store" / h / "summary.json"
    summary_path.write_text(stale(summary_path.read_text()))
    metrics_path = tmp_path / "store" / h / "metrics.csv"
    metrics_path.write_text("".join(metrics_path.read_text().splitlines(keepends=True)[:-1]))  # still parses
    again = run_training(cfg, tmp_path / "store")
    assert again.summary == fresh.summary
    assert again.summary["engine_version"] == ENGINE_VERSION
    for name in ("metrics.csv", "resets.csv", "config.json", "summary.json"):
        assert (tmp_path / "store" / h / name).read_bytes() == (tmp_path / "fresh" / h / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [h]  # no temp directory left


def _bad_float(path):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = "not-a-float"  # train_loss
    path.write_text(lines[0] + ",".join(cells) + "".join(lines[2:]))


@pytest.mark.parametrize(
    "spoil",
    [Path.unlink, lambda path: path.write_text("epoch,batch\n"), _bad_float],
    ids=["missing", "bad-header", "bad-float"],
)
def test_current_version_run_without_readable_metrics_is_recomputed(tmp_path, spoil):
    cfg = tiny_cfg(seed=4)
    h = cfg.config_hash()
    fresh = run_training(cfg, tmp_path / "fresh")
    run_training(cfg, tmp_path / "store")
    spoil(tmp_path / "store" / h / "metrics.csv")  # summary.json stays whole and current
    again = run_training(cfg, tmp_path / "store")
    assert again.records == fresh.records
    for name in ("metrics.csv", "resets.csv", "config.json", "summary.json"):
        assert (tmp_path / "store" / h / name).read_bytes() == (tmp_path / "fresh" / h / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [h]


def test_current_version_run_is_reused_as_stored(tmp_path):
    cfg = tiny_cfg(seed=4)
    run_training(cfg, tmp_path)
    summary_path = tmp_path / cfg.config_hash() / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert summary["engine_version"] == ENGINE_VERSION
    summary["total_resets"] = 99  # a marker only a reuse returns
    summary_path.write_text(json.dumps(summary))
    assert run_training(cfg, tmp_path).summary["total_resets"] == 99


def test_leftover_temp_directory_is_never_read_as_a_run(tmp_path):
    cfg = tiny_cfg(seed=4)
    h = cfg.config_hash()
    fresh = run_training(cfg, tmp_path / "fresh")
    other = tmp_path / "store" / f"{h}.tmp-1"  # left by a crashed process
    own = tmp_path / "store" / f"{h}.tmp-{os.getpid()}"  # left by a crash under this pid
    for leftover in (other, own):
        shutil.copytree(tmp_path / "fresh" / h, leftover)
        (leftover / "metrics.csv").write_text("partial\n")
    result = run_training(cfg, tmp_path / "store")
    assert result.run_dir == str(tmp_path / "store" / h)
    assert result.records == fresh.records
    csv = "metrics.csv"
    assert (tmp_path / "store" / h / csv).read_bytes() == (tmp_path / "fresh" / h / csv).read_bytes()
    assert (other / "metrics.csv").read_text() == "partial\n"  # another pid's directory is left alone
    assert not own.exists()


def test_run_finished_first_by_another_process_is_returned(tmp_path, monkeypatch):
    cfg = tiny_cfg(seed=4)
    h = cfg.config_hash()
    run_training(cfg, tmp_path / "other")
    summary = json.loads((tmp_path / "other" / h / "summary.json").read_text())
    summary["total_resets"] = 99  # marks the other process's copy
    (tmp_path / "other" / h / "summary.json").write_text(json.dumps(summary))
    real_write_summary = experiments.write_summary

    def write_then_race(path, data):
        real_write_summary(path, data)
        shutil.copytree(tmp_path / "other" / h, tmp_path / "store" / h)

    monkeypatch.setattr(experiments, "write_summary", write_then_race)
    result = run_training(cfg, tmp_path / "store")
    assert result.summary["total_resets"] == 99
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [h]


def run_seed_sweep(out, jobs):
    seed_sweep(tiny_cfg(), seeds=[0, 1], out_dir=out, jobs=jobs)


def run_grid_search(out, jobs):
    grid_search(tiny_cfg(), taus=[1e-8, 0.3], ps=[0.5, 1.0], seeds=[0, 1], out_dir=out, jobs=jobs)


def run_width_sweep(out, jobs):
    width_sweep(tiny_cfg(), widths=[1, 2], seeds=[0, 1], out_dir=out, jobs=jobs)


@pytest.mark.parametrize(
    "sweep,n_runs,artifacts",
    [
        (run_seed_sweep, 4, ("sweep_results.csv", "sweep_summary.json")),  # 2 conditions x 2 seeds
        (run_grid_search, 2 + 2 * 2 * 2, ("grid.csv", "grid_summary.json")),  # base + 2 taus x 2 ps, 2 seeds
        (run_width_sweep, 2 * 2 * 2, ("width_sweep.csv", "width_summary.json")),  # 2 widths x 2 conditions x 2 seeds
    ],
    ids=["seed_sweep", "grid_search", "width_sweep"],
)
def test_parallel_sweep_matches_serial_sweep_bytes(tmp_path, sweep, n_runs, artifacts):
    sweep(tmp_path / "serial", 1)
    sweep(tmp_path / "parallel", 2)
    serial = sorted((tmp_path / "serial").glob("*/metrics.csv"))
    parallel = sorted((tmp_path / "parallel").glob("*/metrics.csv"))
    assert [p.parent.name for p in serial] == [p.parent.name for p in parallel]
    assert len(serial) == n_runs
    for a, b in zip(serial, parallel):
        assert a.read_bytes() == b.read_bytes()
    for name in artifacts:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "parallel").iterdir() if ".tmp-" in p.name) == []


def test_run_many_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    import concurrent.futures

    workers = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    seed_sweep(tiny_cfg(), seeds=[0, 1], out_dir=tmp_path / "two", jobs=8)  # one task per seed
    assert workers == [2]
    width_sweep(tiny_cfg(), widths=[1, 2], seeds=[0], out_dir=tmp_path / "one", jobs=8)  # one task: no pool
    assert workers == [2]


def count_dataset_loads(monkeypatch):
    """The seeds of every load_dataset_pair call a sweep makes from here on."""
    seeds = []
    real = experiments.load_dataset_pair

    def load(cfg):
        seeds.append(cfg.seed)
        return real(cfg)

    monkeypatch.setattr(experiments, "load_dataset_pair", load)
    return seeds


def test_seed_sweep_loads_each_seed_once(tmp_path, monkeypatch):
    # base, randomout and batchnorm runs of a seed share one loaded pair
    seeds = count_dataset_loads(monkeypatch)
    conditions = ("base", "randomout", "batchnorm")
    seed_sweep(tiny_cfg(), seeds=[0, 1, 2], conditions=conditions, out_dir=tmp_path)
    assert seeds == [0, 1, 2]
    seed_sweep(tiny_cfg(), seeds=[0, 1, 2], conditions=conditions, out_dir=tmp_path)  # all reused
    assert seeds == [0, 1, 2]


def test_width_sweep_loads_each_seed_once(tmp_path, monkeypatch):
    seeds = count_dataset_loads(monkeypatch)
    width_sweep(tiny_cfg(), widths=[1, 2], seeds=[0, 1], out_dir=tmp_path)
    assert seeds == [0, 1]


def test_import_leaves_multiprocessing_out():
    # the process pool is imported only by a sweep that runs with jobs > 1
    package_root = str(Path(experiments.__file__).resolve().parents[1])
    code = "import sys, randomout; assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'"
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_import_pins_the_malloc_thresholds():
    # Five 784 KiB arrays a round, as a conv step allocates and frees. At
    # glibc's start thresholds each is mmapped and faulted in afresh (about
    # 38,000 minor faults over 50 rounds); pinned, the heap keeps the pages
    # (about 1,000).
    package_root = str(Path(experiments.__file__).resolve().parents[1])
    code = (
        "import resource, numpy as np, randomout\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    arrays = [np.ones((16, 8, 28, 28)) for _ in range(5)]\n"
        "    del arrays\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000, f"{proc.stdout.strip()} minor faults"


def test_divergence_flagged_and_halts(tmp_path):
    # lr huge enough that the second step's products overflow float64 to nan
    cfg = tiny_cfg(lr=1e150, epochs=5)
    result = run_training(cfg, tmp_path)
    s = result.summary
    assert s["diverged"] is True and s["failed"] is True
    assert s["final_test_acc"] is None
    assert s["batches_completed"] < cfg.epochs * 2
    last = result.records[-1]
    assert last.diverged and last.mean_cgn == 0.0 and last.below_thresh == 0
    assert effective_acc(s) == s["chance"]
    back = read_metrics(tmp_path / cfg.config_hash() / "metrics.csv")
    assert back[-1].diverged


def test_randomout_and_base_share_init_and_data(tmp_path):
    base = tiny_cfg(seed=5)
    ro = base.replace(condition="randomout", randomout={"tau": 1e-8, "p_active": 1.0, "check_every": 1})
    train_b, test_b = load_dataset_pair(base)
    train_r, test_r = load_dataset_pair(ro)
    np.testing.assert_array_equal(train_b.images, train_r.images)
    np.testing.assert_array_equal(test_b.labels, test_r.labels)
    model_b = build_for(base, train_b)
    model_r = build_for(ro, train_r)
    for pb, pr in zip(model_b.params, model_r.params):
        np.testing.assert_array_equal(pb.value, pr.value)


def test_dead_first_layer_biases_shifted(tmp_path):
    cfg = tiny_cfg(dead_first_layer=True)
    train, _ = load_dataset_pair(cfg)
    model = build_for(cfg, train)
    first, second = model.convs
    assert np.all(first.bias.value < -9.0)
    assert np.all(np.abs(second.bias.value) < 1.0)


def test_below_thresh_telemetry_counts_strictly(tmp_path):
    # a dead first layer zeroes every conv gradient: all four filters score exactly 0.0
    at_zero = run_training(tiny_cfg(dead_first_layer=True, telemetry_tau=0.0), tmp_path).records
    assert [r.below_thresh for r in at_zero] == [0] * 4  # strict: 0 < 0 is false
    tiny = run_training(tiny_cfg(dead_first_layer=True, telemetry_tau=1e-300), tmp_path).records
    assert [r.below_thresh for r in tiny] == [4] * 4
    live = run_training(tiny_cfg(telemetry_tau=1e-300), tmp_path).records
    assert [r.below_thresh for r in live] == [0] * 4


def test_chance_level_majority_class():
    assert chance_level(np.array([0, 0, 0, 1]), 2) == 0.75
    assert chance_level(np.array([0, 1, 2, 2]), 3) == 0.5


def test_effective_acc_scores_divergence_at_chance():
    assert effective_acc({"diverged": True, "final_test_acc": None, "chance": 0.5}) == 0.5
    assert effective_acc({"diverged": False, "final_test_acc": 0.9, "chance": 0.5}) == 0.9


def test_seed_sweep_stats_and_pairing(tmp_path):
    summary = seed_sweep(tiny_cfg(), seeds=[0, 1], out_dir=tmp_path)
    assert set(summary["conditions"]) == {"base", "randomout"}
    for stats in summary["conditions"].values():
        assert set(stats) >= {"mean", "median", "std", "failure_rate", "divergence_rate"}
    assert summary["paired_gains"]["seeds"] == [0, 1]
    assert len(summary["paired_gains"]["gains"]) == 2
    assert (tmp_path / "sweep_results.csv").exists()
    assert (tmp_path / "sweep_summary.json").exists()
    text = (tmp_path / "sweep_results.csv").read_text().splitlines()
    assert text[0].startswith("condition,seed,config_hash")
    assert len(text) == 1 + 4  # 2 conditions x 2 seeds


def test_seed_sweep_std_oracle(tmp_path):
    # two seeds with known accuracies give the sample std (ddof=1):
    # std([a, b]) = |a - b| / sqrt(2); for 0.5 and 0.7 that is 0.14142...
    summary = seed_sweep(tiny_cfg(epochs=1), seeds=[0, 1], conditions=("base",), out_dir=tmp_path)
    accs = [r["final_test_acc"] if not r["diverged"] else r["chance"] for r in summary["runs"]]
    expected = abs(accs[0] - accs[1]) / np.sqrt(2)
    assert summary["conditions"]["base"]["std"] == pytest.approx(expected, rel=1e-12)
    assert np.std([0.5, 0.7], ddof=1) == pytest.approx(0.1414213562373095, rel=1e-12)


def test_seed_sweep_validation(tmp_path):
    with pytest.raises(ValueError, match="at least 2 seeds"):
        seed_sweep(tiny_cfg(), seeds=[0], out_dir=tmp_path)
    with pytest.raises(ValueError, match="duplicate conditions"):
        seed_sweep(tiny_cfg(), seeds=[0, 1], conditions=("base", "base"), out_dir=tmp_path)


def test_grid_search_layout_and_p_zero(tmp_path):
    result = grid_search(tiny_cfg(), taus=[0.0, 1e-8], ps=[0.0, 1.0], seeds=[0, 1], out_dir=tmp_path)
    assert len(result["cells"]) == 4
    by_cell = {(c["tau"], c["p_active"]): c for c in result["cells"]}
    # p_active = 0 disables scanning entirely: identical to base, gain 0
    assert by_cell[(0.0, 0.0)]["mean_gain"] == 0.0
    assert by_cell[(1e-8, 0.0)]["mean_gain"] == 0.0
    assert by_cell[(1e-8, 0.0)]["total_resets"] == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "tau,0.0,1.0"
    assert lines[1].startswith("0.0,") and lines[2].startswith("1e-08,")
    assert len(lines) == 3


def test_width_sweep_rows_and_extra_filters(tmp_path):
    result = width_sweep(tiny_cfg(epochs=1), widths=[1, 2], seeds=[0, 1], out_dir=tmp_path)
    assert [r["width"] for r in result["rows"]] == [1, 2]
    for r in result["rows"]:
        assert r["randomout_wins"] == (r["randomout_mean"] >= r["base_mean"])
    extra = result["effective_extra_filters"]
    assert set(extra) == {"1", "2"}
    rows = {r["width"]: r for r in result["rows"]}
    # smallest width whose base mean reaches the width-1 filter-reset mean
    expect = next((w for w in [1, 2] if rows[w]["base_mean"] >= rows[1]["randomout_mean"]), None)
    assert extra["1"] == (None if expect is None else expect - 1)
    header = (tmp_path / "width_sweep.csv").read_text().splitlines()[0]
    assert header.endswith("effective_extra_filters")
    dips = result["accuracy_dips"]
    assert set(dips) == {"base", "randomout"}
    assert dips["base"] == ([2] if rows[2]["base_mean"] < rows[1]["base_mean"] else [])


@pytest.mark.parametrize(
    "sweep",
    [
        lambda out: grid_search(tiny_cfg(), taus=[1e-8, -1.0], ps=[1.0], seeds=[0, 1], out_dir=out),
        lambda out: width_sweep(tiny_cfg(), widths=[2, 0], seeds=[0, 1], out_dir=out),
    ],
    ids=["negative-tau", "width-0"],
)
def test_invalid_sweep_config_fails_before_any_run(tmp_path, sweep):
    with pytest.raises(ValueError, match="must be >= 0|must be >= 1"):
        sweep(tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sweep",
    [
        lambda out: grid_search(tiny_cfg(), taus=[1e-8], ps=[1.0], seeds=[], out_dir=out),
        lambda out: width_sweep(tiny_cfg(), widths=[1, 2], seeds=[], out_dir=out),
        lambda out: width_sweep(tiny_cfg(), widths=[], seeds=[0, 1], out_dir=out),
    ],
    ids=["grid-no-seeds", "width-no-seeds", "width-no-widths"],
)
def test_empty_sweep_axis_fails_before_any_run(tmp_path, sweep):
    with pytest.raises(ValueError, match="needs at least one"):
        sweep(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_sweep_reuses_completed_runs(tmp_path):
    cfg = tiny_cfg()
    seed_sweep(cfg, seeds=[0, 1], out_dir=tmp_path)
    run_dirs = {p.name for p in tmp_path.iterdir() if p.is_dir()}
    stamps = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("metrics.csv")}
    seed_sweep(cfg, seeds=[0, 1], out_dir=tmp_path)
    assert {p.name for p in tmp_path.iterdir() if p.is_dir()} == run_dirs
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("metrics.csv")} == stamps


def test_synth_task_learnable_at_width_4(tmp_path):
    """Calibration: 500/500 examples, width 4, 100 epochs clears 90% test
    accuracy for a majority of 10 seeds (learnable, not trivial)."""
    cfg = TrainConfig.from_dict(
        dict(
            epochs=100,
            batch_size=16,
            lr=0.05,
            model={"name": "cratercnn", "width": 4},
            dataset={"kind": "synth", "n_pos": 500, "n_neg": 500},
        )
    )
    runs = seed_sweep(cfg, range(10), conditions=("base",), out_dir=tmp_path, jobs=2)["runs"]
    assert [r["config_hash"] for r in runs] == [cfg.replace(seed=seed).config_hash() for seed in range(10)]
    cleared = sum(not r["diverged"] and r["final_test_acc"] >= 0.90 for r in runs)
    assert cleared > 5, f"only {cleared}/10 seeds reached 0.90"


def test_adam_condition_runs(tmp_path):
    cfg = tiny_cfg(optimizer="adam", lr=0.001, condition="randomout")
    result = run_training(cfg, tmp_path)
    assert not result.summary["diverged"]
    assert result.summary["condition"] == "randomout"


def test_batchnorm_condition_runs(tmp_path):
    cfg = tiny_cfg(condition="batchnorm")
    result = run_training(cfg, tmp_path)
    assert not result.summary["diverged"]
    assert result.summary["total_resets"] == 0


def batchnorm_train_batch_sizes(monkeypatch):
    """The batch size of every train-mode BatchNorm2d forward from here on."""
    sizes = []
    real = BatchNorm2d.forward

    def forward(self, x, mode):
        if mode == "train":
            sizes.append(x.shape[0])
        return real(self, x, mode)

    monkeypatch.setattr(BatchNorm2d, "forward", forward)
    return sizes


def test_batchnorm_run_with_a_last_batch_of_one_repeats_byte_for_byte(tmp_path, monkeypatch):
    # 9 + 9 examples split 5 + 5 to train: batches of 3, 3, 3 and then 1
    cfg = tiny_cfg(condition="batchnorm", batch_size=3, dataset={"kind": "synth", "n_pos": 9, "n_neg": 9})
    sizes = batchnorm_train_batch_sizes(monkeypatch)
    first = run_training(cfg, tmp_path / "first")
    assert set(sizes) == {3, 1} and not first.summary["diverged"]
    again = run_training(cfg, tmp_path / "again")
    for name in ("metrics.csv", "resets.csv"):
        assert (Path(first.run_dir) / name).read_bytes() == (Path(again.run_dir) / name).read_bytes(), name


def test_batchnorm_run_on_a_file_split_with_a_last_batch_of_one_trains(tmp_path, monkeypatch):
    # an idx file of 9 + 9 examples, split 5 + 5 to train: batches of 3, 3, 3 and then 1
    assert main(["gen-data", "--kind", "idx", "--count", "18", "--out", str(tmp_path / "data")]) == 0
    paths = [str(tmp_path / "data" / "crater-images.idx"), str(tmp_path / "data" / "crater-labels.idx")]
    cfg = tiny_cfg(condition="batchnorm", batch_size=3, dataset={"kind": "idx", "paths": paths})
    sizes = batchnorm_train_batch_sizes(monkeypatch)
    result = run_training(cfg, tmp_path / "runs")
    assert set(sizes) == {3, 1} and not result.summary["diverged"]
    assert result.summary["final_test_acc"] is not None


def test_batchnorm_sweep_on_a_file_split_with_a_last_batch_of_one_completes(tmp_path, monkeypatch):
    # 35 idx images split 18 to train: batches of 17 and then 1
    assert main(["gen-data", "--kind", "idx", "--count", "35", "--out", str(tmp_path / "data")]) == 0
    paths = [str(tmp_path / "data" / "crater-images.idx"), str(tmp_path / "data" / "crater-labels.idx")]
    cfg = tiny_cfg(batch_size=17, dataset={"kind": "idx", "paths": paths})
    sizes = batchnorm_train_batch_sizes(monkeypatch)
    runs = seed_sweep(cfg, seeds=[0, 1], conditions=("base", "batchnorm"), out_dir=tmp_path / "runs")["runs"]
    assert set(sizes) == {17, 1}
    assert [(r["condition"], r["seed"]) for r in runs] == [(c, s) for c in ("base", "batchnorm") for s in (0, 1)]
    assert not any(r["diverged"] for r in runs)


def test_sweep_with_a_batchnorm_last_batch_of_one_loads_each_seed_once(tmp_path, monkeypatch):
    # 9 + 9 synth examples in batches of 3: the batchnorm runs train their last batch of 1
    cfg = tiny_cfg(batch_size=3, dataset={"kind": "synth", "n_pos": 9, "n_neg": 9})
    seeds = count_dataset_loads(monkeypatch)
    runs = seed_sweep(cfg, seeds=[0, 1, 2], conditions=("base", "batchnorm"), out_dir=tmp_path)["runs"]
    assert seeds == [0, 1, 2]
    assert [(r["condition"], r["seed"]) for r in runs] == [(c, s) for c in ("base", "batchnorm") for s in (0, 1, 2)]
    assert not any(r["diverged"] for r in runs)


@pytest.mark.parametrize("sweep", ["grid", "width"])
def test_grid_and_width_sweeps_reject_a_batchnorm_base_config_before_any_run(tmp_path, monkeypatch, sweep):
    cfg = tiny_cfg(condition="batchnorm")
    seeds = count_dataset_loads(monkeypatch)
    with pytest.raises(ValueError, match="cannot run condition 'batchnorm'"):
        if sweep == "grid":
            grid_search(cfg, taus=[1e-8], ps=[1.0], seeds=[0, 1], out_dir=tmp_path)
        else:
            width_sweep(cfg, widths=[1, 2], seeds=[0, 1], out_dir=tmp_path)
    assert seeds == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "sweep,inputs,message",
    [
        (seed_sweep, dict(seeds=[3, 3]), "duplicate seeds: 3"),
        (grid_search, dict(taus=[0.1, 0.1], ps=[1.0], seeds=[0, 1]), "duplicate taus: 0.1"),
        (grid_search, dict(taus=[0.1], ps=[0.5, 1, 1], seeds=[0, 1]), "duplicate p_active values: 1"),
        (grid_search, dict(taus=[0.1], ps=[1.0], seeds=[0, 0]), "duplicate seeds: 0"),
        (width_sweep, dict(widths=[2, 2], seeds=[0, 1]), "duplicate widths: 2"),
        (width_sweep, dict(widths=[2], seeds=[1, 1]), "duplicate seeds: 1"),
        (width_sweep, dict(widths=[2, 1], seeds=[0, 1]), r"widths must increase, got \[2, 1\]"),
    ],
    ids=["seed-seeds", "grid-taus", "grid-ps", "grid-seeds", "width-widths", "width-seeds", "width-order"],
)
def test_sweeps_reject_a_repeated_input_before_any_run(tmp_path, monkeypatch, sweep, inputs, message):
    # a repeated input would be run and reported twice: two grid rows, a paired gain per copy
    seeds = count_dataset_loads(monkeypatch)
    with pytest.raises(ValueError, match=message):
        sweep(tiny_cfg(), out_dir=tmp_path, **inputs)
    assert seeds == [] and list(tmp_path.iterdir()) == []


def eval_model(name, input_shape, num_classes):
    """cratercnn with batchnorm, trained a few steps so its running statistics
    have moved off their initial values; mini_inception as built."""
    bn = name == "cratercnn"
    build = ARCHITECTURES[name]
    model = build(4, derive_stream(0, "init"), with_batchnorm=bn, input_shape=input_shape, num_classes=num_classes)
    if bn:
        rng = np.random.default_rng(1)
        opt = SGD(model, 0.05)
        for _ in range(3):
            _, cache = model.forward(rng.uniform(size=(8,) + input_shape), "train")
            model.backward(cache, rng.integers(0, num_classes, size=8))
            opt.step()
            model.zero_grads()
        norm = next(l for l in model.layers if l.kind == "batchnorm")
        assert not np.all(norm.running_mean == 0.0) and not np.all(norm.running_var == 1.0)
    return model


def eval_set(n, input_shape, num_classes, seed=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(size=(n,) + input_shape), rng.integers(0, num_classes, size=n), num_classes)


EVAL_MODELS = [("cratercnn", (1, 15, 15), 2), ("mini_inception", (3, 32, 32), 10)]


@pytest.mark.parametrize("name,input_shape,num_classes", EVAL_MODELS)
def test_chunked_evaluation_is_exact(name, input_shape, num_classes):
    model = eval_model(name, input_shape, num_classes)
    test = eval_set(37, input_shape, num_classes)  # not a multiple of the chunk size
    full, cache = model.forward(test.images, "eval")
    assert cache is None
    assert evaluate(model, test) == np.mean(np.argmax(full, axis=1) == test.labels)
    head_input = lambda x: run_sequence(model.layers[:-1], x, "eval")[0]
    full_head_input = head_input(test.images)
    for chunk in (1, 7, EVAL_CHUNK):
        starts = range(0, len(test), chunk)
        joined = np.concatenate([head_input(test.images[i : i + chunk]) for i in starts])
        np.testing.assert_array_equal(joined, full_head_input)
        joined = np.concatenate([model.forward(test.images[i : i + chunk], "eval")[0] for i in starts])
        np.testing.assert_array_equal(np.argmax(joined, axis=1), np.argmax(full, axis=1))
        if chunk == EVAL_CHUNK:
            np.testing.assert_array_equal(joined, full)
        else:
            # The dense head is one GEMM, and BLAS sums a row that falls in a
            # partial tile of rows (OpenBLAS's AVX-512 kernel tiles 4 rows) in
            # another order, so such chunks can move a logit by a few ulps.
            np.testing.assert_allclose(joined, full, rtol=0, atol=1e-13)
    # the float32 pass decides only examples whose top two logits the guard
    # finds apart, and there it agrees with the float64 argmax
    fast, _ = model.astype(np.float32).forward(test.images, "eval")
    decided = np.array([experiments._clear_winners(fast[i : i + 1]) for i in range(len(test))])
    assert decided.any()
    np.testing.assert_array_equal(np.argmax(fast, axis=1)[decided], np.argmax(full, axis=1)[decided])


def evaluate_peak_bytes(model, test):
    tracemalloc.start()
    try:
        evaluate(model, test)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,input_shape,num_classes", EVAL_MODELS)
def test_evaluate_memory_does_not_grow_with_test_set(name, input_shape, num_classes, monkeypatch):
    model = eval_model(name, input_shape, num_classes)
    evaluate(model, eval_set(1, input_shape, num_classes))  # builds the model's float32 copy
    # Both set sizes take one path: every chunk in float32 alone, then every
    # chunk in float32 and again in float64. A guard between the two could send
    # a near-tie chunk of one set to float64 and none of the other.
    for guard in (0.0, np.inf):
        monkeypatch.setattr(experiments, "EVAL_GUARD", guard)
        small = evaluate_peak_bytes(model, eval_set(32, input_shape, num_classes))
        large = evaluate_peak_bytes(model, eval_set(256, input_shape, num_classes))
        assert large <= 1.25 * small, f"guard {guard}: peak {large / 1e6:.2f} MB on 256 examples vs {small / 1e6:.2f} MB on 32"


def count_float64_forwards(monkeypatch):
    """A list that gets one entry per float64 Model.forward call from here on."""
    calls = []
    forward = Model.forward

    def counted(model, x, mode="train"):
        if model.values.dtype == np.float64:
            calls.append(mode)
        return forward(model, x, mode)

    monkeypatch.setattr(Model, "forward", counted)
    return calls


def test_near_tie_is_decided_in_float64(monkeypatch):
    # Two identical dense columns whose biases differ by 1e-9: in float64 every
    # example goes to class 1, but in float32 the 1e-9 is below half an ulp of
    # logits above 0.05, so they tie and argmax picks class 0.
    model = ARCHITECTURES["cratercnn"](4, derive_stream(0, "init"))
    dense = model.layers[-1]
    dense.weight.value[:, 1] = dense.weight.value[:, 0] = 1.0 / dense.in_features
    dense.bias.value[...] = (0.0, 1e-9)
    test = eval_set(37, (1, 15, 15), 2)
    full, _ = model.forward(test.images, "eval")
    assert np.all(full[:, 1] > full[:, 0])
    fast, _ = model.astype(np.float32).forward(test.images, "eval")
    assert np.all(fast[:, 1] == fast[:, 0]) and np.all(np.abs(fast) > 0.05)
    calls = count_float64_forwards(monkeypatch)
    assert evaluate(model, test) == np.mean(test.labels == 1)
    assert calls == ["eval"] * 3  # every chunk of 16, 16 and 5 ran again in float64
    monkeypatch.setattr(experiments, "EVAL_GUARD", 0.0)  # no guard: float32 decides
    calls.clear()
    assert evaluate(model, test) == np.mean(test.labels == 0)
    assert calls == []


def test_evaluate_sees_the_current_weights_and_statistics():
    # The labels are the float64 model's own predictions, so evaluate reads 1.0
    # only if its float32 copy shows the current model. A train forward moves
    # the running statistics alone, then an SGD step moves the weights.
    model = ARCHITECTURES["cratercnn"](4, derive_stream(0, "init"), with_batchnorm=True)
    images = np.random.default_rng(3).uniform(size=(64, 1, 15, 15))
    rng = np.random.default_rng(4)
    optimizer = SGD(model, 1.0)
    seen = []
    for step in ("start", "train forward", "sgd step"):
        if step == "train forward":
            _, cache = model.forward(rng.uniform(size=(8, 1, 15, 15)), "train")
        elif step == "sgd step":
            model.backward(cache, rng.integers(0, 2, size=8))
            optimizer.step()
        predictions = np.argmax(model.forward(images, "eval")[0], axis=1)
        assert evaluate(model, Dataset(images, predictions, 2)) == 1.0, step
        seen.append(predictions)
    assert not np.array_equal(seen[0], seen[1]) and not np.array_equal(seen[1], seen[2])


def bit_guard_configs(data_dir):
    """cratercnn (SGD, 2 epochs) and mini_inception (Adam, 1 epoch), both under RandomOut."""
    images = derive_stream(5, "data_synth").integers(0, 256, size=(80, 3, 32, 32), dtype=np.uint8)
    fixture = data_dir / "cifar10-fixture.bin"
    write_cifar10_binary(fixture, images, np.arange(80) % 10)
    crater = tiny_cfg(
        seed=1,
        condition="randomout",
        model={"name": "cratercnn", "width": 4},
        dataset={"kind": "synth", "n_pos": 32, "n_neg": 32},
        randomout={"tau": 0.5, "p_active": 1.0, "check_every": 1},  # resets every few batches
    )
    inception = TrainConfig.from_dict(
        dict(
            seed=2,
            epochs=1,
            batch_size=16,
            lr=0.001,
            optimizer="adam",
            condition="randomout",
            model={"name": "mini_inception", "width": 4},
            dataset={"kind": "cifar10", "paths": [str(fixture)]},
            randomout={"tau": 1e-12, "p_active": 1.0, "check_every": 1},
        )
    )
    return crater, inception


def test_runs_are_bitwise_the_reference_relu_and_pool(tmp_path, monkeypatch):
    # The engine's branch-free ReLU forward, wide-row pool forward and
    # backward, and 1x1 conv backward must leave every result byte of the
    # select, the shifted sums, the scatter-add and the zero-buffer route
    # they replace. The per-tap kernel gradient is not swapped out: its
    # GEMMs differ in shape from the patch route's, so whether their bits
    # agree depends on the OpenBLAS kernel.
    cfgs = bit_guard_configs(tmp_path)
    engine = [run_training(cfg, tmp_path / "engine") for cfg in cfgs]
    monkeypatch.setattr(ReLU, "forward", layer_oracles.relu_forward)
    monkeypatch.setattr(AvgPool2d, "forward", layer_oracles.avgpool_forward)
    monkeypatch.setattr(AvgPool2d, "backward", layer_oracles.avgpool_backward)
    conv_backward = Conv2d.backward
    monkeypatch.setattr(
        Conv2d,
        "backward",
        lambda conv, dout, x: (layer_oracles.conv_backward if conv.kernel_size == 1 else conv_backward)(conv, dout, x),
    )
    reference = [run_training(cfg, tmp_path / "reference") for cfg in cfgs]
    assert all(r.summary["total_resets"] > 0 for r in engine)  # the reset path ran
    for a, b in zip(engine, reference):
        for name in ("metrics.csv", "resets.csv"):
            assert (Path(a.run_dir) / name).read_bytes() == (Path(b.run_dir) / name).read_bytes(), name


def test_batchnorm_runs_are_bitwise_the_reference(tmp_path, monkeypatch):
    # BatchNorm's one-pass statistics and reused sums, and the patch view
    # built without as_strided, must leave every result byte of the passes
    # they replace: a cratercnn SGD run and a mini_inception Adam run.
    cfgs = [cfg.replace(condition="batchnorm") for cfg in bit_guard_configs(tmp_path)]
    assert [cfg.optimizer for cfg in cfgs] == ["sgd", "adam"]
    engine = [run_training(cfg, tmp_path / "engine") for cfg in cfgs]
    monkeypatch.setattr(BatchNorm2d, "forward", layer_oracles.batchnorm_forward)
    monkeypatch.setattr(BatchNorm2d, "backward", layer_oracles.batchnorm_backward)
    monkeypatch.setattr(tensor, "wide_patches", layer_oracles.wide_patches)
    monkeypatch.setattr(ReLU, "forward", layer_oracles.relu_forward)
    monkeypatch.setattr(AvgPool2d, "backward", layer_oracles.avgpool_backward)
    reference = [run_training(cfg, tmp_path / "reference") for cfg in cfgs]
    for a, b in zip(engine, reference):
        assert (Path(a.run_dir) / "metrics.csv").read_bytes() == (Path(b.run_dir) / "metrics.csv").read_bytes()


def float64_stored(load):
    """``load`` with its uint8 pool replaced by the float64 pool u8 / 255.0, divided up front."""

    def wrapped(*args):
        ds = load(*args)
        assert ds.images.dtype == np.uint8
        return Dataset(ds.images / 255.0, ds.labels, ds.num_classes)

    return wrapped


def test_file_runs_are_bitwise_the_float64_stored_runs(tmp_path, monkeypatch):
    # uint8 pools scaled per batch must leave every result byte of float64
    # pools: a cratercnn SGD run on an IDX file and a mini_inception Adam run
    # on a CIFAR-10 file, both under RandomOut.
    crater_u8 = synth_craters(32, 32, seed=3)
    write_idx_images(tmp_path / "images.idx", np.round(crater_u8.images[:, 0] * 255).astype(np.uint8))
    write_idx_labels(tmp_path / "labels.idx", crater_u8.labels)
    crater, inception = bit_guard_configs(tmp_path)
    idx_paths = [str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")]
    cfgs = [crater.replace(dataset={"kind": "idx", "paths": idx_paths}), inception]
    engine = [run_training(cfg, tmp_path / "engine") for cfg in cfgs]
    monkeypatch.setattr(experiments, "load_idx", float64_stored(experiments.load_idx))
    monkeypatch.setattr(experiments, "load_cifar10_binary", float64_stored(experiments.load_cifar10_binary))
    reference = [run_training(cfg, tmp_path / "reference") for cfg in cfgs]
    assert all(r.summary["total_resets"] > 0 for r in engine)  # the reset path ran
    for a, b in zip(engine, reference):
        for name in ("metrics.csv", "resets.csv", "summary.json"):
            assert (Path(a.run_dir) / name).read_bytes() == (Path(b.run_dir) / name).read_bytes(), name


def test_a_cifar_pair_holds_its_pixels_as_bytes(tmp_path):
    # 200 images: the pair holds 200 * 3072 bytes of pixels, and loading it
    # never holds a float64 pool (200 * 3072 * 8 bytes = 4.9 MB)
    n = 200
    images = derive_stream(0, "data_synth").integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    write_cifar10_binary(tmp_path / "cifar.bin", images, np.arange(n) % 10)
    cfg = bit_guard_configs(tmp_path)[1].replace(dataset={"kind": "cifar10", "paths": [str(tmp_path / "cifar.bin")]})
    tracemalloc.start()
    try:
        train, test = load_dataset_pair(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train.images.nbytes + test.images.nbytes == n * 3072
    assert peak < n * 3072 * 8, f"peak {peak / 1e6:.2f} MB"
