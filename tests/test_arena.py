"""The parameter arena: a model's params live in two flat buffers, and the
optimizers built on it, ``zero_grads`` and training snapshots work on
those buffers whole, with the bits of the per-parameter passes in
``optim_oracles``."""

import json
from pathlib import Path

import numpy as np
import pytest

import optim_oracles
from loose_params import model_of
from randomout import experiments
from randomout.config import RandomOutCfg, TrainConfig
from randomout.data import write_cifar10_binary
from randomout.experiments import _Snapshot, build_for, load_dataset_pair, run_training
from randomout.layers import ParamNode
from randomout.model import Model
from randomout.models import build_cratercnn, build_mini_inception
from randomout.optim import Adam, make_optimizer
from randomout.regularizer import cgn, scan_and_reset
from randomout.rng import derive_stream


def crater_cfg(**kw):
    fields = dict(
        seed=3,
        epochs=2,
        batch_size=8,
        lr=0.001,
        optimizer="adam",
        condition="randomout",
        model={"name": "cratercnn", "width": 4},
        dataset={"kind": "synth", "n_pos": 32, "n_neg": 32},
        randomout={"tau": 0.5, "p_active": 1.0, "check_every": 1},
    )
    fields.update(kw)
    return TrainConfig.from_dict(fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cratercnn(4, derive_stream(0, "init")),
        lambda: build_cratercnn(4, derive_stream(0, "init"), with_batchnorm=True),
        lambda: build_mini_inception(2, derive_stream(0, "init")),
    ],
    ids=["cratercnn", "cratercnn-bn", "mini_inception"],
)
def test_every_node_is_a_view_of_the_model_buffers(build):
    model = build()
    assert model.values.ndim == model.grads.ndim == 1
    assert model.values.size == sum(p.value.size for p in model.params) == model.grads.size
    # the offsets lie back to back in params order, from 0 to the end of the buffers
    assert model.params[0].offset == 0
    for p, q in zip(model.params, model.params[1:]):
        assert q.offset == p.offset + p.value.size
    assert model.params[-1].offset + model.params[-1].value.size == model.values.size
    for p in model.params:
        assert p.value.base is model.values and p.grad.base is model.grads
        assert np.shares_memory(p.value, p.view(model.values)) and np.shares_memory(p.grad, p.view(model.grads))
    model.values[:] = 1.5
    model.grads[:] = 2.5
    assert all(np.all(p.value == 1.5) and np.all(p.grad == 2.5) for p in model.params)
    model.zero_grads()
    assert all(not p.grad.any() for p in model.params)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_on_a_models_params_copies_nothing(kind):
    model = build_cratercnn(4, derive_stream(0, "init"))
    views = [(p.value, p.grad) for p in model.params]
    opt = make_optimizer(kind, model, 0.01)
    assert opt.values is model.values and opt.grads is model.grads
    assert all(p.value is v and p.grad is g for p, (v, g) in zip(model.params, views))


def test_pack_copies_loose_params_into_the_model_buffers():
    a = ParamNode.create(np.arange(6.0).reshape(2, 3))
    b = ParamNode.create([7.0, 8.0])
    a.grad[:] = 1.0
    model = model_of(a, b)
    assert (a.offset, b.offset) == (0, 6)
    np.testing.assert_array_equal(model.values, [0, 1, 2, 3, 4, 5, 7, 8])
    np.testing.assert_array_equal(model.grads, [1, 1, 1, 1, 1, 1, 0, 0])
    assert a.value.shape == (2, 3) and a.value.base is model.values and b.grad.base is model.grads


def test_adam_moment_views_follow_the_model_layout():
    model = build_mini_inception(2, derive_stream(0, "init"))
    opt = Adam(model, lr=0.01)
    opt.m[:] = model.values
    opt.v[:] = model.grads + 1.0
    assert opt.flat_state[0] is opt.m and opt.flat_state[1] is opt.v and opt.flat_state[2] is opt.t
    for p in model.params:
        m, v = p.view(opt.m), p.view(opt.v)
        assert m.shape == v.shape == p.value.shape
        assert m.base is opt.m and v.base is opt.v
        assert m.tobytes() == p.value.tobytes() and v.tobytes() == (p.grad + 1.0).tobytes()


def test_reset_state_slice_zeroes_only_the_masked_filters_of_a_packed_kernel():
    model = build_cratercnn(4, derive_stream(0, "init"))
    conv = model.convs[1]
    opt = Adam(model, lr=0.01)
    model.grads[:] = np.linspace(-1.0, 1.0, model.grads.size)
    opt.step()
    assert opt.m.all() and opt.v.all()
    expected_m, expected_v = opt.m.copy(), opt.v.copy()
    for expected in (expected_m, expected_v):
        conv.kernel.view(expected)[[0, 2]] = 0.0
    dead = np.isin(np.arange(conv.out_channels), [0, 2])
    opt.reset_state_slice(conv.kernel, dead)
    assert conv.kernel.view(opt.m).ndim == 4
    np.testing.assert_array_equal(opt.m, expected_m)
    np.testing.assert_array_equal(opt.v, expected_v)


def test_reset_after_a_snapshot_restore_zeroes_the_flat_moments():
    cfg = crater_cfg()
    train, _ = load_dataset_pair(cfg)
    model = build_for(cfg, train)
    opt = make_optimizer("adam", model, cfg.lr)
    rng = derive_stream(cfg.seed, "randomout")
    for start in (0, 8):
        _, cache = model.forward(train.images[start : start + 8])
        model.backward(cache, train.labels[start : start + 8])
        opt.step()
        model.zero_grads()
    snap = _Snapshot.take(model, opt, rng, [], [], 2, None)

    fresh = build_for(cfg, train)
    fresh_opt = make_optimizer("adam", fresh, cfg.lr)
    fresh_rng = derive_stream(cfg.seed, "randomout")
    snap.restore(fresh, fresh_opt, fresh_rng)
    np.testing.assert_array_equal(fresh_opt.m, opt.m)
    assert int(fresh_opt.t) == 2
    conv = fresh.convs[0]
    conv.bias.value[:2] = -50.0  # kill two filters
    _, cache = fresh.forward(train.images[16:24])
    fresh.backward(cache, train.labels[16:24])
    scores = [cgn(c) for c in fresh.convs]
    events = scan_and_reset(fresh, fresh_opt, RandomOutCfg(tau=1e-8), 0.0, fresh_rng, scores)
    assert {(e.layer_id, e.filter_index) for e in events} >= {(conv.layer_id, 0), (conv.layer_id, 1)}
    m, v = conv.kernel.view(fresh_opt.m), conv.kernel.view(fresh_opt.v)
    assert m.base is fresh_opt.m and v.base is fresh_opt.v
    assert not m[:2].any() and not v[:2].any() and m[2:].all()
    assert conv.kernel.view(snap.optimizer_state[0])[:2].all()  # the snapshot kept its own copy


def run_bytes(result):
    return {name: (Path(result.run_dir) / name).read_bytes() for name in ("metrics.csv", "resets.csv", "summary.json")}


def test_runs_are_bitwise_the_per_parameter_optimizers(tmp_path, monkeypatch):
    # The flat SGD/Adam steps, the one-fill zero_grads and the flat snapshot
    # of a forked run must write every byte that per-parameter passes write.
    images = derive_stream(5, "data_synth").integers(0, 256, size=(80, 3, 32, 32), dtype=np.uint8)
    fixture = tmp_path / "cifar10-fixture.bin"
    write_cifar10_binary(fixture, images, np.arange(80) % 10)
    sgd = crater_cfg(seed=1, lr=0.05, optimizer="sgd")
    w8 = {"name": "cratercnn", "width": 8}
    twins = [crater_cfg(model=w8, randomout={"tau": 0.5, "p_active": p}) for p in (0.5, 1.0)]  # fork mid-run
    inception = crater_cfg(
        seed=2,
        epochs=1,
        batch_size=16,
        model={"name": "mini_inception", "width": 4},
        dataset={"kind": "cifar10", "paths": [str(fixture)]},
        randomout={"tau": 1e-12},
    )
    cfgs = [sgd, *twins, inception]
    engine = [run_training(sgd, tmp_path / "engine"), *experiments._run_many(twins, tmp_path / "twins")]
    engine.append(run_training(inception, tmp_path / "engine"))
    log = [json.loads(line) for line in (tmp_path / "twins" / experiments.SWEEP_LOG).read_text().splitlines()]
    assert log[1]["how"] == "forked" and 0 < log[1]["first_batch"] < engine[1].summary["batches_completed"]
    assert all(r.summary["total_resets"] > 0 for r in engine)

    monkeypatch.setattr(experiments, "make_optimizer", optim_oracles.make_optimizer)
    monkeypatch.setattr(Model, "zero_grads", optim_oracles.zero_grads)
    reference = [run_training(cfg, tmp_path / "reference") for cfg in cfgs]  # each alone: nothing forks
    for a, b in zip(engine, reference):
        assert run_bytes(a) == run_bytes(b)
