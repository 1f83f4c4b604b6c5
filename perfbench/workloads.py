"""The benchmark's three sweep workloads and the inputs they are built from.

Each workload is one sweep call of the paper's protocols through the
public ``randomout.experiments`` API, always with ``jobs=1``. Every input
comes from the benchmark's ``--seed``: the seed picks one of ``POOL``
input sets (``seed % POOL``), which fixes the training seeds of the sweep
and, for the CIFAR-format workload, the fixture file it trains on. The
pool is finite so that every run the benchmark can make has a recorded
reference in ``reference.json``.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 16


def _seeds(pool, count):
    """Training seeds of input set ``pool``: disjoint across pool entries."""
    return [pool * count + j for j in range(count)]


def write_cifar_fixture(path, pool, per_class):
    """The CIFAR-10-format file ``randomout gen-data --kind cifar10`` writes
    for seed ``pool``: uniform random pixels, labels cycling through 0..9."""
    from randomout import derive_stream
    from randomout.data import write_cifar10_binary

    count = 10 * per_class
    images = derive_stream(pool, "data_synth").integers(0, 256, size=(count, 3, 32, 32), dtype=np.uint8)
    write_cifar10_binary(path, images, np.arange(count) % 10)


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str  # "seeds" (experiments.seed_sweep) or "grid" (experiments.grid_search)
    train: dict  # TrainConfig fields shared by every run of the sweep
    n_seeds: int
    conditions: tuple = ()
    taus: tuple = ()
    ps: tuple = ()
    cifar_per_class: int = 0

    def base_config(self, pool, data_dir):
        """The sweep's base config; ``data_dir`` receives any input file."""
        from randomout import TrainConfig

        fields = dict(self.train)
        if self.cifar_per_class:
            path = Path(data_dir) / "cifar10-fixture.bin"
            write_cifar_fixture(path, pool, self.cifar_per_class)
            fields["dataset"] = {"kind": "cifar10", "paths": [str(path)]}
        return TrainConfig.from_dict({"seed": _seeds(pool, self.n_seeds)[0], **fields})

    def seeds(self, pool):
        return _seeds(pool, self.n_seeds)

    def sweep(self, base_cfg, pool, out_dir):
        from randomout import experiments

        if self.protocol == "seeds":
            return experiments.seed_sweep(base_cfg, self.seeds(pool), self.conditions, out_dir=out_dir, jobs=1)
        return experiments.grid_search(base_cfg, self.taus, self.ps, self.seeds(pool), out_dir=out_dir, jobs=1)

    def first_config(self, base_cfg, pool):
        """The config of the sweep's first run: the base condition of its first seed."""
        return base_cfg.replace(seed=self.seeds(pool)[0], condition="base")


def run_key(cfg):
    """Reference key of one run: everything that varies inside a workload."""
    key = f"{cfg.condition}/seed={cfg.seed}"
    if cfg.condition == "randomout":
        key += f"/tau={cfg.randomout.tau!r}/p={cfg.randomout.p_active!r}"
    return key


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
_SYNTH = {"kind": "synth", "n_pos": 500, "n_neg": 500}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crater-paired",
            protocol="seeds",
            train={
                "batch_size": 16,
                "model": {"name": "cratercnn", "width": 4},
                "epochs": 5,
                "lr": 0.05,
                "optimizer": "sgd",
                "condition": "randomout",
                "dataset": _SYNTH,
                "randomout": {"tau": 1e-12, "p_active": 1.0, "check_every": 1},
            },
            n_seeds=4,
            conditions=("base", "randomout", "batchnorm"),
        ),
        Workload(
            name="inception-adam",
            protocol="seeds",
            train={
                "epochs": 1,
                "batch_size": 16,
                "lr": 0.001,
                "optimizer": "adam",
                "condition": "randomout",
                "model": {"name": "mini_inception", "width": 4},
                "randomout": {"tau": 1e-12, "p_active": 1.0, "check_every": 1},
            },
            n_seeds=4,
            conditions=("base", "randomout"),
            cifar_per_class=20,
        ),
        Workload(
            name="grid-reset-heavy",
            protocol="grid",
            train={
                "batch_size": 16,
                "model": {"name": "cratercnn", "width": 8},
                "epochs": 2,
                "lr": 0.001,
                "optimizer": "adam",
                "condition": "base",
                "dataset": _SYNTH,
            },
            n_seeds=2,
            taus=(0.2, 0.5, 1.0),
            ps=(0.5, 1.0),
        ),
    )
}
