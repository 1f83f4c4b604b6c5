"""The engine keeps every name the benchmark's span tracer wraps.

``perfbench/spans.py`` swaps engine callables by name, through
``vars(owner)[attr]``, and counts scanned filters and resets from the
arguments and results of ``experiments.scan_and_reset``. A tiny resetting
run under the tracer checks both ends of that contract."""

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
