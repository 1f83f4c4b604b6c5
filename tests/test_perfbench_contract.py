"""The engine keeps every name the benchmark's span tracer wraps.

``perfbench/spans.py`` swaps engine callables by name, through
``vars(owner)[attr]``, and counts scanned filters and resets from the
arguments and results of ``experiments.scan_and_reset``. A tiny resetting
run under the tracer checks both ends of that contract.

``perfbench/run.py``'s ``RunMeter`` wraps ``experiments.run_training`` and
fails a run whose ``summary.json`` exists before its call, so a sweep that
shares trajectories must still make one fresh call per config."""

import json
import sys
from pathlib import Path

import pytest

from randomout import experiments
from randomout.config import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans

        yield spans
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def meter_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run

        yield run
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_counts_match_run_summary(spans, tmp_path):
    cfg = TrainConfig.from_dict(
        {
            "seed": 1,
            "epochs": 2,
            "batch_size": 8,
            "lr": 0.01,
            "optimizer": "adam",
            "condition": "randomout",
            "model": {"name": "cratercnn", "width": 4},
            "dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16},
            "randomout": {"tau": 0.5, "p_active": 1.0, "check_every": 1},
        }
    )
    tracer = spans.Tracer()
    entered = False
    with tracer.installed():  # raises KeyError if a wrapped name is gone
        entered = True
        result = experiments.run_training(cfg, tmp_path)
    assert entered
    summary = result.summary
    scans = tracer.calls["regularizer.scan"]
    assert scans == summary["batches_completed"] == 4
    assert summary["total_resets"] > 0
    assert tracer.counts["regularizer.resets"] == summary["total_resets"]
    assert tracer.counts["regularizer.filters_scanned"] == summary["filter_count"] * scans
    assert tracer.calls["regularizer.cgn_telemetry"] == 2 * scans  # once per conv layer per batch
    assert tracer.calls["optim.step"] == summary["batches_completed"]
    assert tracer.calls["model.zero_grads"] == summary["batches_completed"]


def test_meter_sees_one_fresh_call_per_config_of_a_sharing_sweep(meter_module, tmp_path, monkeypatch):
    cfg = TrainConfig.from_dict(
        {
            "epochs": 4,
            "batch_size": 8,
            "lr": 0.01,
            "optimizer": "adam",
            "model": {"name": "cratercnn", "width": 2},
            "dataset": {"kind": "synth", "n_pos": 16, "n_neg": 16},
        }
    )
    returned = []
    engine_run_training = experiments.run_training

    def recorded(cfg, out_dir, *args, **kwargs):
        returned.append(engine_run_training(cfg, out_dir, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(experiments, "run_training", recorded)
    meter = meter_module.RunMeter(experiments)
    with meter.installed():
        experiments.grid_search(cfg, taus=[0.0, 0.5], ps=[0.5, 1.0], seeds=[0, 1], out_dir=tmp_path)
    log = [json.loads(line) for line in (tmp_path / experiments.SWEEP_LOG).read_text().splitlines()]
    assert {line["how"] for line in log} == {"computed", "forked", "shared"}
    hashes = [run.cfg.config_hash() for run in meter.runs]
    assert sorted(hashes) == sorted(line["config_hash"] for line in log)  # one call per config
    assert len(hashes) == 2 + 2 * 2 * 2
    assert not any(run.reused for run in meter.runs)
    assert len(returned) == len(meter.runs)
    for result in returned:
        assert len(result.records) == result.summary["batches_completed"] == 8
