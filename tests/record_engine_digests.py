"""Golden engine digests: the sha256 of a few short runs' result files.

``tests/data/engine_digests.json`` pins, for each numerics fingerprint it
was recorded on, the sha256 of ``metrics.csv`` and ``resets.csv`` of every
run that ``run_digests`` makes, together with the ``ENGINE_VERSION`` they were recorded
at. ``tests/test_engine_digests.py`` checks them: a change that moves a
result bit must bump ``ENGINE_VERSION`` (so stored runs are recomputed)
and re-record the table.

The fingerprint hashes the output bytes of the numpy kernels the engine's
results rest on (matmul at a conv and a dense shape, exp/log, reductions
over axes, sqrt and division, fmax), so a machine whose BLAS or SIMD
paths round differently gets its own row instead of a false failure.

Re-record the table on this machine with

    PYTHONPATH=src python tests/record_engine_digests.py

It keeps the rows of other fingerprints while ``ENGINE_VERSION`` is
unchanged and drops them all when it moved.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from randomout.config import TrainConfig
from randomout.data import write_cifar10_binary
from randomout.experiments import SWEEP_LOG, grid_search, run_training
from randomout.store import ENGINE_VERSION

TABLE = Path(__file__).parent / "data" / "engine_digests.json"
RUN_FILES = ("metrics.csv", "resets.csv")
FORKED_RUN = "crater-grid-forked"


def numerics_fingerprint():
    """A short hash of the output bytes of the numpy kernels the engine uses."""
    rng = np.random.default_rng(0)
    kernel, patches = rng.standard_normal((4, 64)), rng.standard_normal((16, 64, 105))  # a 4->4 k4 conv GEMM
    feats, weight = rng.standard_normal((16, 324)), rng.standard_normal((324, 10))  # a dense layer
    act = rng.standard_normal((16, 4, 12, 12))
    pos = np.abs(act) + 0.5
    outputs = (
        np.matmul(kernel, patches),
        np.matmul(feats, weight),
        np.exp(act),
        np.log(pos),
        np.add.reduce(act, axis=(0, 2, 3)),
        np.add.reduce(act, axis=1),
        act / np.sqrt(pos),
        np.fmax(act, 0.0),
    )
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()[:16]


def _cfg(**kw):
    fields = dict(
        seed=1,
        epochs=2,
        batch_size=8,
        lr=0.05,
        optimizer="sgd",
        model={"name": "cratercnn", "width": 4},
        dataset={"kind": "synth", "n_pos": 24, "n_neg": 24},
    )
    fields.update(kw)
    return TrainConfig.from_dict(fields)


def _digests(run_dir):
    return {name: hashlib.sha256((Path(run_dir) / name).read_bytes()).hexdigest() for name in RUN_FILES}


def run_digests(tmp):
    """Run every pinned run under ``tmp``; returns {run name: {file name: sha256}}.

    Every randomout run here resets filters, and the grid's member named
    ``FORKED_RUN`` resumes from a snapshot of another member's trajectory;
    a run that stopped doing either would pin less than it claims, so that
    raises AssertionError.
    """
    tmp = Path(tmp)
    images = np.random.default_rng(7).integers(0, 256, size=(48, 3, 32, 32), dtype=np.uint8)
    fixture = tmp / "cifar10-fixture.bin"
    write_cifar10_binary(fixture, images, np.arange(48) % 10)
    adam_randomout = dict(optimizer="adam", lr=0.01, condition="randomout", randomout={"tau": 0.5})
    runs = {
        "crater-sgd-base": _cfg(),
        "crater-adam-randomout": _cfg(**adam_randomout),
        "crater-batchnorm": _cfg(condition="batchnorm"),
        "inception-adam-randomout": _cfg(
            seed=2,
            epochs=1,
            model={"name": "mini_inception", "width": 4},
            dataset={"kind": "cifar10", "paths": [str(fixture)]},
            **{**adam_randomout, "randomout": {"tau": 1e-3}},
        ),
    }
    results = {name: run_training(cfg, tmp / "runs") for name, cfg in runs.items()}
    for name, result in results.items():
        assert result.config.condition != "randomout" or result.summary["total_resets"] > 0, name

    grid = tmp / "grid"
    grid_search(_cfg(optimizer="adam", lr=0.01), taus=[0.5], ps=[0.5, 1.0], seeds=[0], out_dir=grid)
    log = [json.loads(line) for line in (grid / SWEEP_LOG).read_text().splitlines()]
    forked = [line for line in log if line["how"] == "forked" and line["first_batch"] > 0]  # forked mid-run
    assert len(forked) == 1, log

    digests = {name: _digests(result.run_dir) for name, result in results.items()}
    digests[FORKED_RUN] = _digests(grid / forked[0]["config_hash"])
    return digests


def load_table():
    return json.loads(TABLE.read_text())


def main():
    fingerprint = numerics_fingerprint()
    table = load_table() if TABLE.exists() else {}
    if table.get("engine_version") != ENGINE_VERSION:
        table = {"engine_version": ENGINE_VERSION, "fingerprints": {}}
    with tempfile.TemporaryDirectory() as tmp:
        table["fingerprints"][fingerprint] = run_digests(tmp)
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded fingerprint {fingerprint} at ENGINE_VERSION {ENGINE_VERSION} in {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
