"""Command-line interface: help text, exit codes, precedence, output stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randomout
from randomout import experiments, models, optim
from randomout.cli import _config_from_args, build_parser, main
from randomout.config import DatasetCfg, TrainConfig
from randomout.data import load_cifar10_binary, load_idx

DATA = Path(__file__).parent / "data"

FAST = [
    "--epochs", "2", "--batch-size", "8",
    "--dataset", "synth",
    "--config", str(DATA / "tiny_synth.json"),
]


@pytest.fixture(scope="module", autouse=True)
def tiny_config_file():
    DATA.mkdir(exist_ok=True)
    p = DATA / "tiny_synth.json"
    p.write_text(json.dumps({"dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16}, "model": {"width": 2}}))
    yield
    p.unlink()


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    return exc.value.code, out


def test_top_level_help_matches_golden(capsys):
    code, out = run_help(["--help"], capsys)
    assert code == 0
    assert out == (DATA / "help.txt").read_text()


def test_train_help_matches_golden(capsys):
    code, out = run_help(["train", "--help"], capsys)
    assert code == 0
    assert out == (DATA / "help_train.txt").read_text()


def test_grid_help_matches_golden(capsys):
    code, out = run_help(["grid", "--help"], capsys)
    assert code == 0
    assert out == (DATA / "help_grid.txt").read_text()


def help_at_two_widths(module):
    # The child imports the same package as this process, installed or from src/,
    # from any working directory; COLUMNS is the only variable that differs.
    package_root = str(Path(randomout.__file__).resolve().parents[1])
    envs = [{"COLUMNS": "40"}, {"COLUMNS": "200"}]
    outs = []
    for env in envs:
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, **env},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_entry_point_help_is_width_independent():
    outs = help_at_two_widths("randomout.cli")
    assert outs[0] == outs[1] == (DATA / "help.txt").read_text()


def test_python_m_randomout_runs_the_cli():
    outs = help_at_two_widths("randomout")
    assert outs[0] == outs[1] == (DATA / "help.txt").read_text()


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trian"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_gradcheck_is_not_a_command(capsys):
    # the finite-difference oracle lives in tests/gradcheck.py (criterion 01)
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck"])
    assert exc.value.code == 1
    assert "invalid choice: 'gradcheck'" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-seeds"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--seeds" in err
    assert "usage: randomout sweep-seeds" in err  # subcommand usage, not top-level


def test_randomout_batchnorm_conflict_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--randomout", "--batchnorm"])
    assert exc.value.code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_tau_without_randomout_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--tau", "1e-8"])
    assert exc.value.code == 1
    assert "--tau and --p-active require --randomout" in capsys.readouterr().err


def test_bad_dataset_spec_exits_1(capsys):
    # the flag is parsed for syntax only; DatasetCfg rejects the spec as it would a config file's
    cases = [
        ("mnist", "unknown dataset kind 'mnist', expected one of ('synth', 'idx', 'cifar10')"),
        ("synth:x", "dataset kind 'synth' does not read 'paths', got ('x',)"),
        ("idx:only-images", "idx dataset needs paths=(images, labels)"),
        ("cifar10:", "dataset paths must be a list of non-empty strings, got ['']"),
    ]
    for spec, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(["train", "--dataset", spec])
        assert exc.value.code == 1, spec
        assert message in capsys.readouterr().err, spec


def test_new_architecture_and_optimizer_need_one_entry_each(monkeypatch):
    monkeypatch.setitem(models.ARCHITECTURES, "tiny_net", models.build_cratercnn)
    monkeypatch.setitem(optim.OPTIMIZERS, "momentum", optim.SGD)
    cfg = config_from(["train", "--model", "tiny-net", "--optimizer", "momentum"])
    assert cfg.model.name == "tiny_net" and cfg.optimizer == "momentum"
    assert TrainConfig(model={"name": "tiny_net"}, optimizer="momentum") == cfg


def test_bad_seed_range_exits_1(capsys):
    for bad in ("5", "3..3", "a..b"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-seeds", "--seeds", bad] + FAST)
        assert exc.value.code == 1, bad
        capsys.readouterr()


def test_config_validation_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--epochs", "0"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage: randomout train" in err
    assert "epochs and batch_size must be >= 1, got 0, 16" in err


def test_mini_inception_width_1_config_exits_1(tmp_path, capsys):
    p = tmp_path / "narrow.json"
    p.write_text(json.dumps({"model": {"name": "mini_inception", "width": 1}}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "base_width must be >= 2, got 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]  # no run directory was started


@pytest.mark.parametrize(
    "field,value", [("epochs", "3"), ("lr", True), ("model", "cratercnn"), ("dataset", "synth"), ("randomout", 1.0)]
)
def test_config_field_type_error_exits_1(tmp_path, capsys, field, value):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({field: value}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert f"train field '{field}' must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]  # no run directory was started


@pytest.mark.parametrize(
    "config,flags,field",
    [
        ({"model": 5}, ["--model", "cratercnn"], "model"),
        ({"condition": "randomout", "randomout": 5}, ["--tau", "0.1"], "randomout"),
        ({"condition": "randomout", "randomout": 0}, ["--p-active", "0.5"], "randomout"),
    ],
    ids=["model", "randomout-tau", "randomout-p-active"],
)
def test_flag_over_a_non_object_config_value_exits_1(tmp_path, capsys, config, flags, field):
    # the flag leaves the file's value as it is, so the usage error is the one the file gives alone
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), *flags, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert f"train field '{field}' must be an object, got {config[field]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [p]  # no run directory was started


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep-seeds", "--seeds", "0..2", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["sweep-seeds", "--seeds", "0..1"], "--seeds needs at least 2 seeds"),
        (["grid", "--seeds", "0..2", "--ps", ""], "--ps expects at least one number"),
        (["grid", "--seeds", "0..2", "--taus=-1"], "--taus: tau must be >= 0, got -1.0"),
        (["width-sweep", "--seeds", "0..2", "--widths", "0..2"], "--widths: width must be >= 1, got 0"),
        (["grid", "--seeds", "0..2", "--taus", "1e-8,nan"], "--taus: tau must be finite, got nan"),
        (["sweep-seeds", "--seeds", f"{2**64 - 1}..{2**64 + 1}"], f"--seeds: seed must be < 2**64, got {2**64}"),
        (["grid", "--seeds", f"{2**64 - 1}..{2**64 + 1}"], f"--seeds: seed must be < 2**64, got {2**64}"),
        (["width-sweep", "--seeds", f"{2**64}..{2**64 + 2}"], f"--seeds: seed must be < 2**64, got {2**64}"),
        (["sweep-seeds", "--seeds=-1..1"], "--seeds: seed must be >= 0, got -1"),
        (["grid", "--seeds", "0..2", "--taus", "0.1,0.1"], "--taus: duplicate values: 0.1"),
        (["grid", "--seeds", "0..2", "--ps", "0.5,1,1"], "--ps: duplicate values: 1.0"),
        (["sweep-seeds", "--seeds", "0..2", "--seed", "5"], "--seed does not apply to a sweep: it takes its seeds from"),
        (["grid", "--seeds", "0..2", "--randomout"], "--randomout does not apply to grid: it takes tau from --taus"),
        (["grid", "--seeds", "0..2", "--tau", "0.3"], "--tau does not apply to grid: it takes tau from --taus"),
        (["grid", "--seeds", "0..2", "--p-active", "0.5"], "--p-active does not apply to grid: it takes tau from"),
    ],
    ids=[
        "jobs-0", "one-seed", "empty-ps", "negative-tau", "width-0", "nan-tau",
        "sweep-seed-2**64", "grid-seed-2**64", "width-seed-2**64", "negative-seed", "repeated-tau", "repeated-p",
        "sweep-seed", "grid-randomout", "grid-tau", "grid-p-active",
    ],
)
def test_bad_sweep_argument_exits_1_before_any_run(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *FAST, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no run directory was started


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--randomout", "--tau", "nan"], "tau must be finite, got nan"),
        (["--lr", "nan"], "lr must be finite, got nan"),
        (["--lr", "inf"], "lr must be finite, got inf"),
    ],
    ids=["tau-nan", "lr-nan", "lr-inf"],
)
def test_nonfinite_train_flag_exits_1_before_any_run(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["train", *FAST, *argv, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no run directory was started


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--seed", str(2**64), "--epochs", "1"], f"seed must be < 2**64, got {2**64}"),
        (["--batchnorm", "--batch-size", "1"], "batchnorm needs batch_size >= 2, got 1"),
    ],
    ids=["seed-2**64", "batchnorm-batch-1"],
)
def test_bad_train_config_exits_1_before_any_run(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["train", *argv, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no run directory was started


def config_from(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return _config_from_args(args, args.parser)


def test_dataset_flag_of_another_kind_replaces_the_config_dataset():
    # the synth config's n_pos and n_neg, which cifar10 does not read, do not ride along
    shipped = str(Path(__file__).parents[1] / "configs" / "cratercnn-synth-sgd.json")
    cfg = config_from(["train", "--config", shipped, "--dataset", "cifar10:F"])
    assert cfg.dataset == DatasetCfg("cifar10", paths=("F",))
    assert config_from(["train", "--config", shipped, "--dataset", "synth"]).dataset == DatasetCfg("synth", 500, 500)


def test_dataset_flag_of_the_config_kind_keeps_its_fields(tmp_path):
    config = tmp_path / "cifar.json"
    config.write_text(json.dumps({"dataset": {"kind": "cifar10", "paths": ["f.bin"], "max_per_class": 5}}))
    assert config_from(["train", "--config", str(config), "--dataset", "cifar10"]).dataset == DatasetCfg(
        "cifar10", paths=("f.bin",), max_per_class=5
    )
    assert config_from(["train", "--config", str(config), "--dataset", "cifar10:g.bin"]).dataset == DatasetCfg(
        "cifar10", paths=("g.bin",), max_per_class=5
    )


def test_dataset_field_its_kind_does_not_read_exits_1(tmp_path, capsys):
    config = tmp_path / "cifar.json"
    config.write_text(json.dumps({"dataset": {"kind": "cifar10", "paths": ["f.bin"], "n_pos": 500}}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(config), "--out", str(tmp_path / "runs")])
    assert exc.value.code == 1
    assert "dataset kind 'cifar10' does not read 'n_pos', got 500" in capsys.readouterr().err


@pytest.mark.parametrize("flags,jobs", [([], 3), (["--jobs", "1"], 1)], ids=["default", "one"])
def test_sweep_jobs_default_to_the_cpus_this_process_may_use(tmp_path, capsys, monkeypatch, flags, jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    seen = []
    run_many = experiments._run_many
    monkeypatch.setattr(experiments, "_run_many", lambda cfgs, out, workers: seen.append(workers) or run_many(cfgs, out))
    code, _, _ = run_main(["sweep-seeds", "--seeds", "0..2", *flags, *FAST, "--out", str(tmp_path)], capsys)
    assert code == 0 and seen == [jobs]


@pytest.mark.parametrize("command", [["train"], ["sweep-seeds", "--seeds", "0..2"]], ids=["train", "sweep-seeds"])
def test_batchnorm_last_batch_of_one_exits_1_before_any_run(tmp_path, capsys, command):
    # 9 + 9 examples split 5 + 5 to train: batches of 3, 3, 3 and then 1
    config = tmp_path / "bn.json"
    config.write_text(
        json.dumps({"condition": "batchnorm", "batch_size": 3, "dataset": {"kind": "synth", "n_pos": 9, "n_neg": 9}})
    )
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(config), "--epochs", "1", "--out", str(out)])
    assert exc.value.code == 1
    assert "last batch of 1: n_train 10 with batch_size 3" in capsys.readouterr().err
    assert not out.exists()  # not even the seed's base run


@pytest.mark.parametrize("command", [["grid"], ["width-sweep", "--widths", "1..3"]], ids=["grid", "width-sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_batchnorm_grid_or_width_sweep_exits_1_before_any_run(tmp_path, capsys, command, source):
    # both sweeps run each seed as base and randomout, so a batchnorm condition would be dropped
    config = tmp_path / "bn.json"
    config.write_text(json.dumps({"condition": "batchnorm", "dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16}}))
    flags = ["--batchnorm"] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seeds", "0..2", *flags, "--epochs", "1", "--batch-size", "8", "--out", str(out)])
    assert exc.value.code == 1
    assert "cannot run condition 'batchnorm'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "randomout train: error:" in err
    assert "nope.json" in err


def test_invalid_config_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_train_prints_hash_and_epochs(tmp_path, capsys):
    code, out, _ = run_main(["train", *FAST, "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    lines = out.splitlines()
    cfg = TrainConfig.from_dict(
        {"seed": 1, "epochs": 2, "batch_size": 8,
         "dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16}, "model": {"width": 2}}
    )
    assert lines[0] == f"config {cfg.config_hash()}"
    assert lines[1] == f"dir {tmp_path / cfg.config_hash()}"
    assert sum(1 for l in lines if l.startswith("epoch ")) == 2
    assert lines[-1].startswith("final test_acc ")


def test_train_output_identical_across_invocations(tmp_path, capsys):
    argv = ["train", *FAST, "--seed", "2", "--out", str(tmp_path)]
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)  # second run resumes from disk
    assert first == second


def test_flags_override_config_file(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 7, "epochs": 9, "lr": 0.5,
                             "dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16},
                             "model": {"width": 2}}))
    code, out, _ = run_main(
        ["train", "--config", str(p), "--epochs", "1", "--lr", "0.01", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    run_dir = Path(out.splitlines()[1].split(" ", 1)[1])
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["epochs"] == 1 and stored["lr"] == 0.01 and stored["seed"] == 7


def test_randomout_flags_reach_config(tmp_path, capsys):
    code, out, _ = run_main(
        ["train", *FAST, "--randomout", "--tau", "1e-6", "--p-active", "0.5", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    run_dir = Path(out.splitlines()[1].split(" ", 1)[1])
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["condition"] == "randomout"
    assert stored["randomout"] == {"tau": 1e-6, "p_active": 0.5, "check_every": 1}


def test_divergent_runs_do_not_fail_sweeps(tmp_path, capsys):
    code, out, _ = run_main(
        ["sweep-seeds", "--seeds", "0..2", "--lr", "1e150", *FAST, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "diverge_rate 1.00" in out


def test_sweep_seeds_runs_and_prints_stats(tmp_path, capsys):
    code, out, _ = run_main(
        ["sweep-seeds", "--seeds", "0..2", *FAST, "--randomout", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "base: mean" in out and "randomout: mean" in out
    assert "paired gain median" in out
    assert (tmp_path / "sweep_results.csv").exists()


def test_grid_runs_with_explicit_cells(tmp_path, capsys):
    code, out, _ = run_main(
        ["grid", "--seeds", "0..2", "--taus", "1e-8", "--ps", "0.0,1.0", *FAST, "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "best cell tau" in out
    assert (tmp_path / "grid.csv").exists()


def test_grid_reads_a_randomout_config_as_a_template(tmp_path, capsys):
    # --taus and --ps set every cell, so the file's condition, tau and p_active are not read
    config = tmp_path / "ro.json"
    tiny = json.loads((DATA / "tiny_synth.json").read_text())
    config.write_text(json.dumps({**tiny, "condition": "randomout", "randomout": {"tau": 0.3, "p_active": 0.5}}))
    grid = ["grid", "--seeds", "0..2", "--taus", "1e-8", "--ps", "1.0", *FAST]
    assert run_main([*grid, "--out", str(tmp_path / "base")], capsys)[0] == 0
    assert run_main([*grid, "--config", str(config), "--out", str(tmp_path / "ro")], capsys)[0] == 0
    assert (tmp_path / "ro" / "grid.csv").read_bytes() == (tmp_path / "base" / "grid.csv").read_bytes()


def test_sweep_tally_counts_shared_runs_and_computed_batches(tmp_path, capsys):
    argv = ["grid", "--seeds", "0..2", "--taus", "0,1e-8", "--ps", "0.0,1.0", *FAST, "--out", str(tmp_path)]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    # every cell resets nothing, so each seed's base run computes all 4 batches for 5 runs
    assert out.splitlines()[-1] == "runs: 2 computed, 0 forked, 8 shared, 0 reused; batches: 8 computed of 40 returned"
    code, again, _ = run_main(argv, capsys)
    assert again.splitlines()[-1] == "runs: 0 computed, 0 forked, 0 shared, 10 reused; batches: 0 computed of 40 returned"


def test_width_sweep_runs(tmp_path, capsys):
    code, out, _ = run_main(
        ["width-sweep", "--seeds", "0..2", "--widths", "1..3", *FAST, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "width 1:" in out and "width 2:" in out
    assert "randomout wins at" in out
    assert (tmp_path / "width_sweep.csv").exists()


def test_gen_data_idx_round_trips(tmp_path, capsys):
    code, out, _ = run_main(["gen-data", "--kind", "idx", "--count", "10", "--out", str(tmp_path)], capsys)
    assert code == 0
    ds = load_idx(tmp_path / "crater-images.idx", tmp_path / "crater-labels.idx")
    assert len(ds) == 10
    assert ds.sample_shape == (1, 15, 15)
    assert set(ds.labels.tolist()) == {0, 1}


def test_gen_data_cifar_round_trips(tmp_path, capsys):
    code, out, _ = run_main(["gen-data", "--kind", "cifar10", "--count", "12", "--out", str(tmp_path)], capsys)
    assert code == 0
    ds = load_cifar10_binary(tmp_path / "cifar10-fixture.bin")
    assert len(ds) == 12
    assert ds.labels.tolist() == [i % 10 for i in range(12)]


@pytest.mark.parametrize("kind,count", [("idx", "0"), ("idx", "1"), ("idx", "-3"), ("cifar10", "0")])
def test_gen_data_count_too_small_exits_1_before_writing(tmp_path, capsys, kind, count):
    out = tmp_path / "fixtures"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", kind, "--count", count, "--out", str(out)])
    assert exc.value.code == 1
    assert f"--count must be >= {2 if kind == 'idx' else 1} for --kind {kind}, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_gen_data_bad_seed_exits_1_before_writing(tmp_path, capsys, seed):
    out = tmp_path / "fixtures"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "cifar10", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 1
    assert f"--seed: seed must be a 64-bit unsigned int, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dataset", [{"kind": "cifar10", "paths": [0]}, {"kind": "idx", "paths": "ab"}])
def test_bad_dataset_paths_config_exits_1(tmp_path, capsys, dataset):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dataset": dataset}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(p), "--out", str(tmp_path / "runs")])
    assert exc.value.code == 1
    assert "dataset paths must be a list of non-empty strings" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_gen_data_then_train_on_idx(tmp_path, capsys):
    run_main(["gen-data", "--kind", "idx", "--count", "32", "--out", str(tmp_path)], capsys)
    images = tmp_path / "crater-images.idx"
    labels = tmp_path / "crater-labels.idx"
    code, out, _ = run_main(
        ["train", "--dataset", f"idx:{images},{labels}", "--epochs", "1", "--batch-size", "8",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("final test_acc")


def test_train_on_a_split_with_an_empty_test_half_is_one_error_line(tmp_path):
    # 2 images, one per class: the 50/50 split gives both to the train half
    package_root = str(Path(randomout.__file__).resolve().parent.parent)
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    cli = [sys.executable, "-m", "randomout"]
    subprocess.run(cli + ["gen-data", "--kind", "idx", "--count", "2", "--out", "fx"], cwd=tmp_path, env=env, check=True)
    proc = subprocess.run(
        cli + ["train", "--dataset", "idx:fx/crater-images.idx,fx/crater-labels.idx", "--epochs", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("randomout: error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "test half" in proc.stderr
