"""Metrics CSV: lossless round-trips and positional rejection."""

import math

import numpy as np
import pytest

from randomout.store import (
    METRICS_HEADER,
    MetricsRecord,
    read_metrics,
    read_summary,
    write_csv,
    write_metrics,
    write_summary,
)


def some_records():
    return [
        MetricsRecord(0, 0, 0.6931471805599453, 0.5, None, 1.2e-07, 2, 0, False),
        MetricsRecord(0, 1, 0.1 + 0.2, 0.875, 0.75, 3.141592653589793, 0, 1, False),
        MetricsRecord(1, 0, float(np.float64(1) / 3), 1.0, None, 0.0, 8, 0, True),
    ]


def test_round_trip_is_lossless(tmp_path):
    p = tmp_path / "metrics.csv"
    records = some_records()
    write_metrics(p, records)
    back = read_metrics(p)
    assert back == records
    # floats survive bit-exactly, including the 0.30000000000000004 case
    assert back[1].train_loss == 0.1 + 0.2
    assert math.isclose(back[2].train_loss, 1 / 3, rel_tol=0, abs_tol=0)


def test_rewrite_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_metrics(a, some_records())
    write_metrics(b, read_metrics(a))
    assert a.read_bytes() == b.read_bytes()


def test_empty_run_is_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    write_metrics(p, [])
    assert p.read_text() == METRICS_HEADER + "\n"
    assert read_metrics(p) == []


def test_blank_test_acc_means_none(tmp_path):
    p = tmp_path / "m.csv"
    write_metrics(p, some_records())
    rows = p.read_text().splitlines()
    assert rows[1].split(",")[4] == ""
    assert rows[2].split(",")[4] != ""
    back = read_metrics(p)
    assert back[0].test_acc is None and back[1].test_acc == 0.75


def test_bad_header_reports_line_one(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("epoch,batch\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1: bad header"):
        read_metrics(p)
    empty = tmp_path / "zero.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="<empty file>"):
        read_metrics(empty)


def test_wrong_field_count_reports_line(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text(METRICS_HEADER + "\n0,0,0.5\n")
    with pytest.raises(ValueError, match=r"short\.csv:2: expected 9 fields, got 3"):
        read_metrics(p)


def test_bad_values_report_line_and_column(tmp_path):
    good = "0,0,0.5,0.5,,0.0,0,0,0"
    cases = [
        ("x,0,0.5,0.5,,0.0,0,0,0", r"bad integer 'x' in column 'epoch'"),
        ("0,0,zzz,0.5,,0.0,0,0,0", r"bad float 'zzz' in column 'train_loss'"),
        ("0,0,0.5,0.5,nope,0.0,0,0,0", r"bad float 'nope' in column 'test_acc'"),
        ("0,0,0.5,0.5,,0.0,0,x,0", r"bad integer 'x' in column 'resets'"),
        ("0,0,0.5,0.5,,0.0,0,0,2", r"diverged must be 0 or 1"),
    ]
    for line, message in cases:
        p = tmp_path / "case.csv"
        p.write_text(METRICS_HEADER + "\n" + good + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"case\.csv:3: " + message):
            read_metrics(p)


def test_write_csv_formats_each_cell_one_way(tmp_path):
    p = tmp_path / "t.csv"
    header = ("none", "true", "false", "np64", "nan", "int")
    write_csv(p, [header, (None, True, False, np.float64(0.1), float("nan"), 7)])
    assert p.read_text() == "none,true,false,np64,nan,int\n,1,0,0.1,nan,7\n"


def test_summary_round_trip(tmp_path):
    p = tmp_path / "summary.json"
    summary = {"final_test_acc": 0.9375, "seed": 3, "diverged": False}
    write_summary(p, summary)
    assert read_summary(p) == summary
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"diverged"') < text.index('"seed"')  # keys are sorted
