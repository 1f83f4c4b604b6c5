"""The run store: what a stored run is, when it is reused, and how it is
written; per-batch metrics records with a lossless CSV round-trip; and
the one CSV writer every artifact goes through.

A run lives in ``<out>/<config hash>/`` as ``metrics.csv``, ``resets.csv``,
``config.json`` and ``summary.json``. ``load`` reuses such a directory only
if its summary is a JSON object that records the current ``ENGINE_VERSION``
and its ``metrics.csv`` parses. ``commit`` writes a run's files into
``<hash>.tmp-<pid>/`` beside the run directory, which then moves into place
with one ``os.replace``. So a directory is written whole or not at all, and
a crash leaves at most a ``*.tmp-*`` directory, which is never read as a
run. A directory left by an older engine version or a partial write is
replaced; one that another process completed meanwhile is returned instead.

Floats are written with repr() so parsing the file reproduces the exact
binary values; identical runs therefore produce byte-identical files.
"""

import json
import os
import shutil
from dataclasses import dataclass, fields

from .config import TrainConfig
from .regularizer import ResetEvent

# Recorded in every summary.json; a run directory is reused only when it
# matches. Bump it in every change that moves any result bit.
ENGINE_VERSION = 3
RESETS_COLUMNS = tuple(f.name for f in fields(ResetEvent))


# One metrics.csv row: its fields are the columns, and each field's type is how its column parses.
@dataclass
class MetricsRecord:
    epoch: int
    batch: int
    train_loss: float
    train_acc: float
    test_acc: float | None  # filled on each epoch's last batch only
    mean_cgn: float
    below_thresh: int
    resets: int
    diverged: bool


_METRICS_FIELDS = [(f.name, f.type) for f in fields(MetricsRecord)]
METRICS_HEADER = ",".join(name for name, _ in _METRICS_FIELDS)


def _cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # a numpy scalar prints as a plain float
    return "" if value is None else str(value)


def write_csv(path, rows):
    """Write rows, the header first, one comma-joined line each."""
    with open(path, "w") as f:
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_metrics(path, records):
    write_csv(path, [METRICS_HEADER.split(","), *(vars(r).values() for r in records)])


def _parse(kind, text, path, lineno, col):
    """The value of one cell of column col, whose field type is kind."""
    if kind == float | None:
        return None if text == "" else _parse(float, text, path, lineno, col)
    if kind is bool:
        value = _parse(int, text, path, lineno, col)
        if value not in (0, 1):
            raise ValueError(f"{path}:{lineno}: {col} must be 0 or 1, got {text!r}")
        return bool(value)
    try:
        return kind(text)
    except ValueError:
        what = "integer" if kind is int else "float"
        raise ValueError(f"{path}:{lineno}: bad {what} {text!r} in column {col!r}") from None


def read_metrics(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise ValueError(f"{path}:1: bad header {got!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_METRICS_FIELDS):
            raise ValueError(f"{path}:{lineno}: expected {len(_METRICS_FIELDS)} fields, got {len(parts)}")
        values = (_parse(kind, text, path, lineno, col) for (col, kind), text in zip(_METRICS_FIELDS, parts))
        records.append(MetricsRecord(*values))
    return records


def write_summary(path, summary):
    with open(path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def read_summary(path):
    with open(path) as f:
        return json.load(f)


@dataclass
class RunResult:
    config: TrainConfig
    run_dir: str
    summary: dict
    records: list


def load(cfg, run_dir):
    """The run stored in run_dir, or None unless it is whole and of ENGINE_VERSION."""
    try:
        summary = read_summary(run_dir / "summary.json")
        if not isinstance(summary, dict) or summary.get("engine_version") != ENGINE_VERSION:
            return None
        return RunResult(cfg, str(run_dir), summary, read_metrics(run_dir / "metrics.csv"))
    except (OSError, ValueError):
        return None


def commit(cfg, run_dir, write):
    """Move the run that ``write(tmp_dir)`` writes into run_dir whole.

    Returns the run another process completed in run_dir first, or None
    when this one moved into place.
    """
    tmp_dir = run_dir.with_name(f"{run_dir.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)  # left by a crashed process with this pid
    tmp_dir.mkdir(parents=True)
    write(tmp_dir)
    if load(cfg, run_dir) is None:
        shutil.rmtree(run_dir, ignore_errors=True)  # stale or partial
    try:
        os.replace(tmp_dir, run_dir)  # fails if run_dir is not empty
    except OSError:
        # another process has moved its complete run into place first
        done_run = load(cfg, run_dir)
        if done_run is None:
            raise
        shutil.rmtree(tmp_dir)
        return done_run
    return None
