"""Set-up probe: a fresh interpreter imports randomout, loads the first
run's config and runs its ``load_dataset_pair`` + ``build_for``, then
prints the nanoseconds elapsed since the monotonic time it was spawned at.

Usage: python3 perfbench/probe_setup.py CONFIG_JSON SPAWN_MONOTONIC_NS
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from randomout import experiments, load_config  # noqa: E402

cfg = load_config(sys.argv[1])
train, _ = experiments.load_dataset_pair(cfg)
experiments.build_for(cfg, train)
print(time.monotonic_ns() - int(sys.argv[2]))
