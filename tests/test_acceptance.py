"""End-to-end acceptance criteria.

Each test covers one exit criterion and prints a single pass/fail line
with the measured quantities. Heavy sweeps are module-scoped fixtures so
criteria that share runs reuse them (completed runs also deduplicate
on disk through the config hash).
"""

import struct

import numpy as np
import pytest

from gradcheck import TOLERANCE, run_all_checks
from randomout.config import RandomOutCfg, TrainConfig
from randomout.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, load_cifar10_binary, load_idx, read_idx
from randomout.experiments import (
    build_for,
    effective_acc,
    grid_search,
    load_dataset_pair,
    run_training,
    seed_sweep,
    width_sweep,
)
from randomout.model import filter_groups
from randomout.optim import Adam
from randomout.regularizer import cgn, scan_and_reset
from randomout.rng import derive_stream
from randomout.store import read_metrics, write_metrics
from two_branch_net import two_branch_relu_net

GRID_TAUS = [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4]
GRID_PS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def standard_cfg(**kw):
    base = dict(
        seed=0,
        epochs=30,
        batch_size=16,
        lr=0.05,
        model={"name": "cratercnn", "width": 4},
        dataset={"kind": "synth", "n_pos": 128, "n_neg": 128},
    )
    base.update(kw)
    return TrainConfig.from_dict(base)


def dead_cfg(**kw):
    return standard_cfg(dead_first_layer=True, **kw)


@pytest.fixture(scope="module")
def acc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def dead_sweep(acc_dir):
    out = acc_dir / "dead"
    return seed_sweep(dead_cfg(), seeds=range(10), out_dir=out), out


@pytest.fixture(scope="module")
def paired_sweep(acc_dir):
    out = acc_dir / "paired"
    return seed_sweep(standard_cfg(), seeds=range(24), out_dir=out), out


def test_criterion_01_finite_difference_gradients():
    errors = run_all_checks()
    worst = max(errors, key=errors.get)
    ok = set(errors) == {
        "dense", "conv2d", "relu_composition", "batchnorm", "avgpool",
        "cratercnn", "mini_inception", "mini_inception_batchnorm",
    }
    ok = ok and all(e < TOLERANCE for e in errors.values())
    _report(1, ok, f"{len(errors)} suites, worst {worst} at {errors[worst]:.3e} (tolerance {TOLERANCE:g})")


def test_criterion_02_dead_branch_gradient_routing():
    # branch 1 (w3..w5) dead via large negative bias: exact zero gradients
    dead = [0.5, 0.4, 0.1, 0.3, 0.2, -10.0, 1.0, 1.0, 0.1]
    _, g_dead = two_branch_relu_net(dead)(1.0, 1.0)
    exact_zero = g_dead[3] == 0.0 and g_dead[4] == 0.0 and g_dead[5] == 0.0

    # branch 0 (w0..w2) feeds the output through w6 = 1e-8: gradients scale with w6
    small_w6 = [0.5, 0.4, 0.1, 0.3, 0.2, 0.1, 1e-8, 1.0, 0.1]
    _, g_small = two_branch_relu_net(small_w6)(1.0, 1.0)
    scaled = (
        np.all(np.abs(g_small[0:3]) < 1e-7)
        and np.all(g_small[0:3] != 0.0)
        and np.allclose(g_small[0:3], 1e-8 * np.array([1.0, 1.0, 1.0]), rtol=1e-10)
    )
    _report(
        2,
        exact_zero and scaled,
        f"dead-branch grads {g_dead[3:6].tolist()}, small-w6 grads {g_small[0:3].tolist()}",
    )


def test_criterion_03_threshold_count_and_targeted_reset():
    cfg = standard_cfg()
    train, _ = load_dataset_pair(cfg)
    model = build_for(cfg, train)
    opt = Adam(model, lr=0.001)
    convs = model.convs
    x, y = train.images[:16], train.labels[:16]

    # one normal step so every filter has nonzero optimizer moments
    _, cache = model.forward(x)
    model.backward(cache, y)
    opt.step()
    model.zero_grads()

    # then kill exactly 3 first-layer filters and take a fresh backward pass
    convs[0].bias.value[:3] = -50.0
    _, cache = model.forward(x)
    model.backward(cache, y)

    layer_scores = [cgn(conv) for conv in convs]
    n_below = int((np.concatenate(layer_scores) < 1e-8).sum())
    scores = {(conv.layer_id, k): float(s[k]) for conv, s in zip(convs, layer_scores) for k in range(len(s))}

    before_vals, before_m, before_v = model.values.copy(), opt.m.copy(), opt.v.copy()
    events = scan_and_reset(
        model, opt, RandomOutCfg(tau=1e-8, p_active=1.0), 0.0, derive_stream(0, "randomout"), layer_scores
    )

    reset_ids = {(e.layer_id, e.filter_index) for e in events}
    expected_ids = {(convs[0].layer_id, k) for k in range(3)}
    ok = n_below == 3 and reset_ids == expected_ids

    untouched = True
    for conv, ks in filter_groups(model):
        key = (conv.layer_id, ks)
        kp = conv.kernel
        same_val = np.array_equal(kp.value[ks], kp.view(before_vals)[ks])
        same_m = np.array_equal(kp.view(opt.m)[ks], kp.view(before_m)[ks])
        same_v = np.array_equal(kp.view(opt.v)[ks], kp.view(before_v)[ks])
        if key in expected_ids:
            moments_zeroed = np.all(kp.view(opt.m)[ks] == 0.0) and np.all(kp.view(opt.v)[ks] == 0.0)
            untouched = untouched and not same_val and moments_zeroed
        else:
            untouched = untouched and same_val and same_m and same_v
    for p in model.layers[-1].params:  # the dense head
        untouched = untouched and np.array_equal(p.value, p.view(before_vals))
        untouched = untouched and np.array_equal(p.view(opt.m), p.view(before_m))

    live_min = min(s for k, s in scores.items() if k not in expected_ids)
    _report(
        3,
        ok and untouched,
        f"count_below(1e-8)={n_below}, reset={sorted(reset_ids)}, "
        f"smallest live cgn {live_min:.3e}, rest bit-identical={untouched}",
    )


def test_criterion_04_disabled_scan_equals_base(acc_dir):
    out = acc_dir / "disabled"
    base = standard_cfg(seed=0)
    p_zero = base.replace(condition="randomout", randomout={"tau": 1e-8, "p_active": 0.0, "check_every": 1})
    tau_zero = base.replace(condition="randomout", randomout={"tau": 0.0, "p_active": 1.0, "check_every": 1})
    runs = {cfg.config_hash(): run_training(cfg, out) for cfg in (base, p_zero, tau_zero)}
    base_bytes = (out / base.config_hash() / "metrics.csv").read_bytes()
    p_bytes = (out / p_zero.config_hash() / "metrics.csv").read_bytes()
    t_bytes = (out / tau_zero.config_hash() / "metrics.csv").read_bytes()
    distinct_runs = len(runs) == 3
    ok = distinct_runs and p_bytes == base_bytes and t_bytes == base_bytes
    _report(
        4,
        ok,
        f"p_active=0 metrics identical to base: {p_bytes == base_bytes}; "
        f"tau=0 identical: {t_bytes == base_bytes} ({len(base_bytes)} bytes)",
    )


def test_criterion_05_rescues_dead_initializations(dead_sweep):
    summary, _ = dead_sweep
    runs = {c: [r for r in summary["runs"] if r["condition"] == c] for c in ("base", "randomout")}
    ro_rescued = [r for r in runs["randomout"] if effective_acc(r) >= r["chance"] + 0.20]
    base_stuck = [r for r in runs["base"] if abs(effective_acc(r) - r["chance"]) <= 0.05]
    ok = len(ro_rescued) == 10 and len(base_stuck) >= 8
    ro_min = min(effective_acc(r) for r in runs["randomout"])
    _report(
        5,
        ok,
        f"randomout {len(ro_rescued)}/10 rescued (min acc {ro_min:.3f}, chance+0.20 bar), "
        f"base {len(base_stuck)}/10 within 0.05 of chance",
    )


def test_criterion_06_variance_and_median_gain_direction(paired_sweep):
    summary, _ = paired_sweep
    std_base = summary["conditions"]["base"]["std"]
    std_ro = summary["conditions"]["randomout"]["std"]
    median_gain = summary["paired_gains"]["median"]
    n = len(summary["paired_gains"]["seeds"])
    ok = n >= 20 and std_ro <= std_base and median_gain >= 0.0
    _report(
        6,
        ok,
        f"{n} paired seeds: std randomout {std_ro:.4f} <= base {std_base:.4f}; "
        f"median gain {median_gain:+.4f} (mean {summary['paired_gains']['mean']:+.4f}; magnitudes reported, not asserted)",
    )


def test_criterion_07_grid_structure(acc_dir, dead_sweep):
    out = acc_dir / "dead"  # shares the dead-fixture base runs via config hash
    result = grid_search(dead_cfg(), taus=GRID_TAUS, ps=GRID_PS, seeds=range(4), out_dir=out)
    cells = result["cells"]
    zero_p = [c for c in cells if c["p_active"] == 0.0]
    zero_p_exact = all(c["mean_gain"] == 0.0 and all(g == 0.0 for g in c["gains"]) for c in zero_p)
    best_gain = max(c["mean_gain"] for c in cells)
    best_small_tau = max(c["mean_gain"] for c in cells if c["tau"] <= 1e-8)
    csv_lines = (out / "grid.csv").read_text().splitlines()
    csv_ok = len(csv_lines) == 1 + len(GRID_TAUS) and csv_lines[0] == "tau," + ",".join(
        repr(p) for p in GRID_PS
    )
    ok = len(zero_p) == len(GRID_TAUS) and zero_p_exact and best_small_tau >= best_gain and csv_ok
    _report(
        7,
        ok,
        f"{len(cells)} cells: all {len(zero_p)} p=0 cells exactly 0 gain; "
        f"best gain {best_gain:+.4f} attained at tau<=1e-8 ({best_small_tau:+.4f}); grid.csv emitted",
    )


def test_criterion_08_width_sweep_direction(acc_dir):
    out = acc_dir / "width"
    result = width_sweep(standard_cfg(), widths=range(1, 11), seeds=range(4), out_dir=out, jobs=2)
    wins = sum(r["randomout_wins"] for r in result["rows"])
    header = (out / "width_sweep.csv").read_text().splitlines()[0]
    emitted = header.endswith("effective_extra_filters") and "effective_extra_filters" in result
    ok = len(result["rows"]) == 10 and wins > 5 and emitted
    _report(
        8,
        ok,
        f"randomout mean >= base mean at {wins}/10 widths; effective-extra-filters emitted "
        f"({result['effective_extra_filters']})",
    )


def test_criterion_09_telemetry_shape(dead_sweep, acc_dir):
    summary, out = dead_sweep
    ro_zero = next(r for r in summary["runs"] if r["condition"] == "randomout" and r["seed"] == 0)
    records = read_metrics(out / ro_zero["config_hash"] / "metrics.csv")
    below = [r.below_thresh for r in records]
    quarter = len(below) // 4
    first_q = float(np.mean(below[:quarter]))
    last_q = float(np.mean(below[-quarter:]))

    tele = seed_sweep(
        standard_cfg(epochs=5, dataset={"kind": "synth", "n_pos": 32, "n_neg": 32}),
        seeds=range(2),
        conditions=("base", "randomout", "batchnorm"),
        out_dir=acc_dir / "telemetry",
    )
    recorded = {}
    for run in tele["runs"]:
        rows = read_metrics(acc_dir / "telemetry" / run["config_hash"] / "metrics.csv")
        live = [r.mean_cgn for r in rows if not r.diverged]
        recorded.setdefault(run["condition"], True)
        recorded[run["condition"]] &= bool(live) and all(np.isfinite(live)) and max(live) > 0.0
    all_recorded = set(recorded) == {"base", "randomout", "batchnorm"} and all(recorded.values())

    ok = first_q > last_q and all_recorded
    _report(
        9,
        ok,
        f"below-threshold count first quarter {first_q:.3f} > last quarter {last_q:.3f}; "
        f"mean CGN recorded for {sorted(recorded)}",
    )


def test_criterion_10_byte_identical_repeats(acc_dir):
    cfg = dead_cfg(seed=0).replace(condition="randomout")
    a = run_training(cfg, acc_dir / "repeat_a")
    b = run_training(cfg, acc_dir / "repeat_b")
    bytes_a = (acc_dir / "repeat_a" / cfg.config_hash() / "metrics.csv").read_bytes()
    bytes_b = (acc_dir / "repeat_b" / cfg.config_hash() / "metrics.csv").read_bytes()
    ok = bytes_a == bytes_b and a.summary["total_resets"] > 0
    _report(
        10,
        ok,
        f"independent repeats byte-identical ({len(bytes_a)} bytes, "
        f"{a.summary['total_resets']} resets exercised the reset stream)",
    )


def test_criterion_11_format_round_trips(tmp_path, dead_sweep):
    # IDX: hand-built file loads to the expected tensor
    img = tmp_path / "i.idx"
    img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 3, 3) + bytes(range(18)))
    lab = tmp_path / "l.idx"
    lab.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes([1, 0]))
    ds = load_idx(img, lab)
    idx_ok = ds.images.shape == (2, 1, 3, 3) and ds.batch(1)[0, 2, 2] == 17 / 255.0 and ds.labels.tolist() == [1, 0]

    # CIFAR-10: single binary record
    rec = tmp_path / "c.bin"
    rec.write_bytes(bytes([7]) + bytes(range(256)) * 12)
    cds = load_cifar10_binary(rec)
    cifar_ok = cds.images.shape == (1, 3, 32, 32) and cds.labels[0] == 7

    # metrics from a real run round-trip losslessly
    summary, out = dead_sweep
    src = out / summary["runs"][0]["config_hash"] / "metrics.csv"
    records = read_metrics(src)
    copy = tmp_path / "copy.csv"
    write_metrics(copy, records)
    metrics_ok = copy.read_bytes() == src.read_bytes()

    # malformed files rejected with positional errors
    positional = []
    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x12345678, 1, 1, 1) + bytes(1))
    with pytest.raises(ValueError, match="bad IDX magic 0x12345678 at byte 0"):
        read_idx(bad_magic)
    positional.append("idx magic@byte0")
    short = tmp_path / "short.idx"
    short.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 3, 3) + bytes(10))
    with pytest.raises(ValueError, match="payload at byte 16 has 10 bytes, expected 18"):
        read_idx(short)
    positional.append("idx payload@byte16")
    badlab = tmp_path / "badlab.bin"
    badlab.write_bytes(bytes([1]) + bytes(3072) + bytes([11]) + bytes(3072))
    with pytest.raises(ValueError, match=r"label 11 out of range at record 1 \(byte 3073\)"):
        load_cifar10_binary(badlab)
    positional.append("cifar label@record1")
    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("epoch,batch,train_loss,train_acc,test_acc,mean_cgn,below_thresh,resets,diverged\n0,0,oops,0,,0,0,0,0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: bad float 'oops' in column 'train_loss'"):
        read_metrics(badcsv)
    positional.append("metrics float@line2")

    ok = idx_ok and cifar_ok and metrics_ok
    _report(
        11,
        ok,
        f"IDX tensor ok={idx_ok}, CIFAR record ok={cifar_ok}, metrics lossless={metrics_ok}, "
        f"positional rejections: {', '.join(positional)}",
    )
