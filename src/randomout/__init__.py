"""Deterministic small-scale CNN training with per-filter gradient
instrumentation: filters whose absolute-gradient sum (CGN) falls below a
threshold during the early fraction of training are reinitialized."""

from .config import DatasetCfg, ModelCfg, RandomOutCfg, TrainConfig, load_config
from .data import BatchPlan, Dataset, load_cifar10_binary, load_idx, split_50_50, synth_craters
from .experiments import RunResult, SweepSummary, grid_search, run_training, seed_sweep, width_sweep
from .gradcheck import run_all_checks
from .metrics import MetricsRecord, read_metrics, write_metrics
from .model import FilterGroup, LayerSpec, Model, build_model, filter_groups
from .models import ModelSpec, build_cratercnn, build_from_spec, build_mini_inception
from .optim import SGD, Adam, make_optimizer
from .regularizer import RandomOutConfig, ResetEvent, cgn, count_below_threshold, scan_and_reset
from .rng import derive_stream, xavier_bound, xavier_init

__all__ = [
    "Adam",
    "BatchPlan",
    "Dataset",
    "DatasetCfg",
    "FilterGroup",
    "LayerSpec",
    "MetricsRecord",
    "Model",
    "ModelCfg",
    "ModelSpec",
    "RandomOutCfg",
    "RandomOutConfig",
    "ResetEvent",
    "RunResult",
    "SGD",
    "SweepSummary",
    "TrainConfig",
    "build_cratercnn",
    "build_from_spec",
    "build_mini_inception",
    "build_model",
    "cgn",
    "count_below_threshold",
    "derive_stream",
    "filter_groups",
    "grid_search",
    "load_cifar10_binary",
    "load_config",
    "load_idx",
    "make_optimizer",
    "read_metrics",
    "run_all_checks",
    "run_training",
    "scan_and_reset",
    "seed_sweep",
    "split_50_50",
    "synth_craters",
    "width_sweep",
    "write_metrics",
    "xavier_bound",
    "xavier_init",
]

__version__ = "0.1.0"
