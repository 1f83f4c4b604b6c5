"""Per-batch metrics records with a lossless CSV round-trip, and the one
CSV writer every artifact goes through.

Floats are written with repr() so parsing the file reproduces the exact
binary values; identical runs therefore produce byte-identical files.
"""

import json
from dataclasses import dataclass

METRICS_HEADER = "epoch,batch,train_loss,train_acc,test_acc,mean_cgn,below_thresh,resets,diverged"


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
        if len(parts) != 9:
            raise ValueError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
        ep, ba, tl, ta, te, cg, bt, rs, dv = parts
        diverged = _parse(int, dv, path, lineno, "diverged")
        if diverged not in (0, 1):
            raise ValueError(f"{path}:{lineno}: diverged must be 0 or 1, got {dv!r}")
        records.append(
            MetricsRecord(
                epoch=_parse(int, ep, path, lineno, "epoch"),
                batch=_parse(int, ba, path, lineno, "batch"),
                train_loss=_parse(float, tl, path, lineno, "train_loss"),
                train_acc=_parse(float, ta, path, lineno, "train_acc"),
                test_acc=None if te == "" else _parse(float, te, path, lineno, "test_acc"),
                mean_cgn=_parse(float, cg, path, lineno, "mean_cgn"),
                below_thresh=_parse(int, bt, path, lineno, "below_thresh"),
                resets=_parse(int, rs, path, lineno, "resets"),
                diverged=bool(diverged),
            )
        )
    return records


def write_summary(path, summary):
    with open(path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")


def read_summary(path):
    with open(path) as f:
        return json.load(f)
