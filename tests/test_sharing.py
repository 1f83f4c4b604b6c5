"""Sweeps compute each distinct trajectory once.

Runs that differ only in condition (base or randomout) and RandomOut
settings share batches until their reset masks differ; a run that leaves
resumes from a snapshot. Every file a sweep writes for a run must equal,
byte for byte, what running that config alone writes."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randomout import experiments
from randomout.config import TrainConfig
from randomout.experiments import SWEEP_LOG, grid_search, run_training, seed_sweep, width_sweep

RUN_FILES = ("metrics.csv", "resets.csv", "summary.json")
# Each sweep below's sweep_log.jsonl lines without wall_s: how every run is
# obtained, pinned so that a change of scheduler cannot move them.
RECORDED_LOGS = json.loads((Path(__file__).parent / "data" / "sharing_sweep_logs.json").read_text())


def small_cfg(**kw):
    base = dict(
        seed=0,
        epochs=4,
        batch_size=8,
        lr=0.01,
        optimizer="adam",
        model={"name": "cratercnn", "width": 2},
        dataset={"kind": "synth", "n_pos": 16, "n_neg": 16},
    )
    base.update(kw)
    return TrainConfig.from_dict(base)


def seed_sweep_three_conditions(out, conditions=("base", "randomout", "batchnorm")):
    # SGD, checking every other batch: seed 0 leaves its base run at batch 4,
    # seed 1 at batch 0, and seed 2 never resets
    cfg = small_cfg(
        epochs=3,
        lr=0.05,
        optimizer="sgd",
        condition="randomout",
        randomout={"tau": 0.3, "p_active": 1.0, "check_every": 2},
        dataset={"kind": "synth", "n_pos": 24, "n_neg": 24},
    )
    seed_sweep(cfg, seeds=[0, 1, 2], conditions=conditions, out_dir=out)


def adam_grid(out):
    # tau 0.5 resets from the first batches on, so its p_active twins part
    # mid-run with moved Adam moments and a consumed reset stream
    grid_search(small_cfg(), taus=[0.0, 0.5], ps=[0.0, 0.5, 1.0], seeds=[0, 1], out_dir=out)


def width_sweep_two_widths(out):
    cfg = small_cfg(randomout=None, optimizer="sgd", lr=0.05, epochs=2)
    width_sweep(cfg, widths=[1, 2], seeds=[0, 1], out_dir=out)


SWEEPS = {"seeds": seed_sweep_three_conditions, "grid": adam_grid, "width": width_sweep_two_widths}


def sweep_log(out):
    return [json.loads(line) for line in (Path(out) / SWEEP_LOG).read_text().splitlines()]


def without_wall_s(lines):
    return [{k: v for k, v in line.items() if k != "wall_s"} for line in lines]


def assert_runs_match_solo_runs(out, solo):
    run_dirs = sorted(p for p in Path(out).iterdir() if p.is_dir())
    assert run_dirs
    for run_dir in run_dirs:
        cfg = TrainConfig.from_dict(json.loads((run_dir / "config.json").read_text()))
        alone = Path(run_training(cfg, solo).run_dir)
        for name in RUN_FILES:
            assert (run_dir / name).read_bytes() == (alone / name).read_bytes(), (run_dir.name, name)


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS)
def test_shared_runs_are_byte_identical_to_solo_runs(tmp_path, sweep):
    sweep(tmp_path / "sweep")
    assert {line["how"] for line in sweep_log(tmp_path / "sweep")} >= {"computed", "shared"}
    assert_runs_match_solo_runs(tmp_path / "sweep", tmp_path / "solo")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    width=st.integers(1, 2),
    optimizer=st.sampled_from(["sgd", "adam"]),
    epochs=st.integers(1, 3),
    batch_size=st.sampled_from([4, 8]),
    check_every=st.integers(1, 3),
    taus=st.lists(st.sampled_from([0.0, 1e-8, 0.1, 0.3, 0.5, 1.0]), min_size=1, max_size=3, unique=True),
    ps=st.lists(st.sampled_from([0.0, 0.3, 0.6, 1.0]), min_size=1, max_size=3, unique=True),
    seeds=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    stored=st.sampled_from(["nothing", "base runs", "every other run"]),
)
def test_random_grids_are_byte_identical_to_solo_runs(
    width, optimizer, epochs, batch_size, check_every, taus, ps, seeds, stored
):
    # a grid's runs, some of them stored by an earlier sweep into the same
    # directory, must each equal a run of its config alone
    cfg = small_cfg(
        epochs=epochs,
        batch_size=batch_size,
        optimizer=optimizer,
        lr=0.05 if optimizer == "sgd" else 0.01,
        model={"name": "cratercnn", "width": width},
    )
    cfgs = [cfg.replace(seed=s) for s in seeds]
    cfgs += [
        cfg.replace(seed=s, condition="randomout", randomout={"tau": tau, "p_active": p, "check_every": check_every})
        for tau in taus
        for p in ps
        for s in seeds
    ]
    earlier = {"nothing": [], "base runs": cfgs[: len(seeds)], "every other run": cfgs[::2]}[stored]
    with tempfile.TemporaryDirectory() as tmp:
        if earlier:
            experiments._run_many(earlier, Path(tmp) / "sweep")
        experiments._run_many(cfgs, Path(tmp) / "sweep")
        assert_runs_match_solo_runs(Path(tmp) / "sweep", Path(tmp) / "solo")


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_logs_match_the_recorded_schedule(tmp_path, name):
    SWEEPS[name](tmp_path)
    assert without_wall_s(sweep_log(tmp_path)) == RECORDED_LOGS[name]


def test_seed_sweep_loads_each_seed_once_whatever_the_condition_order(tmp_path, monkeypatch):
    # a seed's configs come as base, batchnorm, randomout, and its group runs
    # them as base, randomout (which follows base), batchnorm
    loads = []
    real = experiments.load_dataset_pair
    monkeypatch.setattr(experiments, "load_dataset_pair", lambda cfg: loads.append(cfg.seed) or real(cfg))
    calls = []
    real_run = experiments.run_training

    def run(cfg, *args, **kwargs):
        calls.append((cfg.condition, cfg.seed))
        return real_run(cfg, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_training", run)
    seed_sweep_three_conditions(tmp_path / "sweep", ("base", "batchnorm", "randomout"))
    assert loads == [0, 1, 2]
    assert calls == [(c, seed) for seed in (0, 1, 2) for c in ("base", "randomout", "batchnorm")]
    log = without_wall_s(sweep_log(tmp_path / "sweep"))
    assert [(line["condition"], line["seed"]) for line in log] == [
        (c, seed) for c in ("base", "batchnorm", "randomout") for seed in (0, 1, 2)
    ]
    recorded = {line["config_hash"]: line for line in RECORDED_LOGS["seeds"]}
    assert {line["config_hash"]: line for line in log} == recorded
    assert_runs_match_solo_runs(tmp_path / "sweep", tmp_path / "solo")


def test_seed_sweep_forks_where_randomout_first_resets(tmp_path):
    seed_sweep_three_conditions(tmp_path)
    log = {(line["condition"], line["seed"]): line for line in sweep_log(tmp_path)}
    for seed in (0, 1, 2):
        assert log[("base", seed)]["how"] == "computed"
        assert log[("batchnorm", seed)]["how"] == "computed"  # another model: trains alone
    ro = [log[("randomout", seed)] for seed in (0, 1, 2)]
    assert [(r["how"], r["first_batch"]) for r in ro] == [("forked", 4), ("forked", 0), ("shared", None)]
    assert all(r["followed"] == log[("base", r["seed"])]["config_hash"] for r in ro)
    resets = [json.loads((tmp_path / r["config_hash"] / "summary.json").read_text())["total_resets"] for r in ro]
    assert resets[0] > 0 and resets[1] > 0 and resets[2] == 0


def test_disabled_cells_share_the_base_run(tmp_path):
    adam_grid(tmp_path)
    log = sweep_log(tmp_path)
    base = {line["seed"]: line["config_hash"] for line in log if line["condition"] == "base"}
    disabled = [line for line in log if line["tau"] == 0.0 or line["p_active"] == 0.0]
    assert len(disabled) == 2 * (3 + 2 - 1)
    for line in disabled:
        assert (line["how"], line["followed"]) == ("shared", base[line["seed"]])
    for line in disabled:
        assert (tmp_path / line["config_hash"] / "metrics.csv").read_bytes() == (
            tmp_path / line["followed"] / "metrics.csv"
        ).read_bytes()


def test_p_active_twins_part_mid_run_after_resets(tmp_path):
    adam_grid(tmp_path)
    log = {(line["seed"], line["tau"], line["p_active"]): line for line in sweep_log(tmp_path)}
    for seed in (0, 1):
        lead, twin = log[(seed, 0.5, 0.5)], log[(seed, 0.5, 1.0)]
        assert lead["how"] == "forked"
        assert (twin["how"], twin["followed"]) == ("forked", lead["config_hash"])
        assert twin["first_batch"] > lead["first_batch"]
        resets = (tmp_path / lead["config_hash"] / "resets.csv").read_text().splitlines()[1:]
        before_split = [r for r in resets if 2 * int(r.split(",")[0]) + int(r.split(",")[1]) < twin["first_batch"]]
        assert before_split  # the twin resumes with a reset stream that has moved


def test_partly_stored_group_is_completed_with_the_same_bytes(tmp_path):
    adam_grid(tmp_path / "full")
    shutil.copytree(tmp_path / "full", tmp_path / "partial")
    log = {(line["seed"], line["tau"], line["p_active"]): line for line in sweep_log(tmp_path / "full")}
    base = next(line for line in log.values() if line["condition"] == "base" and line["seed"] == 0)
    twin = log[(0, 0.5, 1.0)]
    # the twin's part leader stays stored, so the twin takes over its snapshot
    for line in (base, twin):
        shutil.rmtree(tmp_path / "partial" / line["config_hash"])
    adam_grid(tmp_path / "partial")
    again = {(line["seed"], line["tau"], line["p_active"]): line for line in sweep_log(tmp_path / "partial")}
    assert again[(0, 0.5, 0.5)]["how"] == "reused"
    resumed = again[(0, 0.5, 1.0)]
    assert (resumed["how"], resumed["first_batch"]) == ("forked", log[(0, 0.5, 0.5)]["first_batch"])
    assert [line["how"] for line in again.values() if line["how"] != "reused"] == ["computed", "forked"]
    for run_dir in (tmp_path / "full").iterdir():
        if run_dir.is_dir():
            for name in RUN_FILES:
                assert (run_dir / name).read_bytes() == (tmp_path / "partial" / run_dir.name / name).read_bytes()
