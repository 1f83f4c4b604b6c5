"""Deterministic small-scale CNN training with per-filter gradient
instrumentation: filters whose absolute-gradient sum (CGN) falls below a
threshold during the early fraction of training are reinitialized."""

from .config import DatasetCfg, ModelCfg, RandomOutCfg, TrainConfig, load_config
from .experiments import grid_search, run_training, seed_sweep, width_sweep
from .rng import derive_stream

__all__ = [
    "DatasetCfg",
    "ModelCfg",
    "RandomOutCfg",
    "TrainConfig",
    "derive_stream",
    "grid_search",
    "load_config",
    "run_training",
    "seed_sweep",
    "width_sweep",
]

__version__ = "0.1.0"
