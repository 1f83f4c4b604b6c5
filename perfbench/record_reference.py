"""Record ``reference.json``: the per-epoch mean training loss and final test
accuracy of every run the benchmark can make, that is one sweep of each
workload on each of its ``POOL`` input sets. The benchmark compares every
run it measures against this file, so record it only from an engine whose
results are trusted.

Usage (from the repository root): python3 perfbench/record_reference.py [WORKLOAD ...]
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import randomout  # noqa: E402
from randomout import experiments  # noqa: E402
from run import OUT, RunMeter  # noqa: E402
from workloads import POOL, WORKLOADS, run_key  # noqa: E402


def record(workload):
    by_pool = {}
    for pool in range(POOL):
        meter = RunMeter(experiments)
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as work, meter.installed():
            workload.sweep(workload.base_config(pool, work), pool, Path(work) / "runs")
        by_pool[str(pool)] = {
            run_key(r.cfg): {"epoch_loss": r.epoch_loss, "final_test_acc": r.summary["final_test_acc"]}
            for r in meter.runs
        }
        print(f"{workload.name}: input set {pool}: {len(meter.runs)} runs", flush=True)
    return by_pool


def main(names):
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    ref["engine"] = f"randomout {randomout.__version__}"
    for name in names or WORKLOADS:
        ref["workloads"][name] = record(WORKLOADS[name])
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
