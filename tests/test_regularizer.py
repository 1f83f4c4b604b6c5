"""Filter scoring and reset mechanics."""

import numpy as np
import pytest

from randomout.config import RandomOutCfg
from randomout.models import build_cratercnn
from randomout.optim import Adam, make_optimizer
from randomout.regularizer import ResetEvent, cgn, dead_masks, scan_and_reset
from randomout.rng import derive_stream


def small_model(seed=0, width=3):
    return build_cratercnn(width, derive_stream(seed, "init"))


def scan(model, opt, cfg, progress, rng, epoch=0, batch=0):
    """One reset scan on freshly computed scores."""
    scores = [cgn(conv) for conv in model.convs]
    return scan_and_reset(model, opt, cfg, progress, rng, scores, epoch, batch)


def batch(seed=0, n=8, shape=(1, 15, 15)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, *shape))
    y = rng.integers(0, 2, size=n)
    return x, y


def forward_backward(model, x, y):
    _, cache = model.forward(x)
    return model.backward(cache, y)


def snapshot(model, opt=None):
    state = {p.offset: p.value.copy() for p in model.params}
    if isinstance(opt, Adam):
        for p in model.params:
            state[("m", p.offset)] = p.view(opt.m).copy()
            state[("v", p.offset)] = p.view(opt.v).copy()
    return state


def test_cgn_is_sum_of_absolute_gradients():
    model = small_model()
    conv = model.convs[0]
    model.zero_grads()
    conv.kernel.grad[0].reshape(-1)[:4] = [0.1, -0.2, 0.3, -0.4]
    conv.kernel.grad[1] = -1.0
    score = cgn(conv)
    assert score.dtype == np.float64 and score.shape == (conv.out_channels,)
    assert score[0] == pytest.approx(1.0)
    assert score[1] == conv.kernel.grad[1].size
    assert np.all(score[2:] == 0.0)
    conv.bias.grad[0] = -0.5
    assert cgn(conv)[0] == pytest.approx(1.5)


def test_cgn_zero_when_grads_zero():
    model = small_model()
    model.zero_grads()
    assert all(np.all(cgn(conv) == 0.0) for conv in model.convs)


def test_dead_filter_has_exactly_zero_cgn():
    # push one first-layer filter's bias very negative: ReLU output is all
    # zero for inputs in [0, 1], so its gradient is identically zero
    model = small_model(seed=3)
    first, second = model.convs
    first.bias.value[0] = -50.0
    x, y = batch()
    loss = forward_backward(model, x, y)
    assert np.isfinite(loss)
    assert cgn(first)[0] == 0.0
    live = np.concatenate([cgn(first)[1:], cgn(second)])
    assert live.max() > 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        RandomOutCfg(tau=-1.0, p_active=1.0)
    with pytest.raises(ValueError, match="p_active"):
        RandomOutCfg(tau=0.0, p_active=1.5)
    with pytest.raises(ValueError, match="check_every"):
        RandomOutCfg(tau=0.0, p_active=1.0, check_every=0)


def test_tau_zero_never_resets():
    model = small_model()
    opt = make_optimizer("sgd", model, lr=0.1)
    model.zero_grads()  # every score is exactly 0.0, but 0.0 < 0.0 is false
    cfg = RandomOutCfg(tau=0.0, p_active=1.0)
    rng = derive_stream(0, "randomout")
    before = rng.bit_generator.state
    events = scan(model, opt, cfg, progress=0.0, rng=rng)
    assert events == []
    np.testing.assert_equal(rng.bit_generator.state, before)


def test_progress_at_or_past_p_active_is_noop():
    model = small_model()
    opt = make_optimizer("sgd", model, lr=0.1)
    model.zero_grads()
    cfg = RandomOutCfg(tau=1.0, p_active=0.5)
    rng = derive_stream(0, "randomout")
    before_state = rng.bit_generator.state
    before_vals = snapshot(model)
    assert scan(model, opt, cfg, progress=0.5, rng=rng) == []
    assert scan(model, opt, cfg, progress=0.9, rng=rng) == []
    np.testing.assert_equal(rng.bit_generator.state, before_state)  # rng untouched by no-ops
    after_vals = snapshot(model)
    for pid in before_vals:
        np.testing.assert_array_equal(before_vals[pid], after_vals[pid])


def test_score_equal_to_tau_does_not_reset():
    model = small_model()
    opt = make_optimizer("sgd", model, lr=0.1)
    model.zero_grads()
    convs = model.convs
    for conv in convs:
        conv.kernel.grad[...] = 1.0  # well above tau
    target = convs[0]
    target.kernel.grad[0] = 0.0
    target.bias.grad[0] = 0.25  # cgn exactly 0.25 == tau
    cfg = RandomOutCfg(tau=0.25, p_active=1.0)
    events = scan(model, opt, cfg, progress=0.0, rng=derive_stream(0, "randomout"))
    assert events == []


def test_dead_masks_mark_scores_strictly_below_tau_while_active():
    scores = [np.array([0.0, 0.25, 0.5]), np.array([0.1])]
    cfg = RandomOutCfg(tau=0.25, p_active=0.5)
    masks = dead_masks(cfg, 0.25, scores)
    assert [m.tolist() for m in masks] == [[True, False, False], [True]]
    assert dead_masks(cfg, 0.5, scores) == []  # progress at p_active: no layer scans
    assert dead_masks(RandomOutCfg(tau=0.0), 0.0, scores)[0].tolist() == [False, False, False]


def test_reset_touches_only_targeted_filter():
    model = small_model(seed=7)
    opt = Adam(model, lr=0.01)
    x, y = batch(seed=1)
    forward_backward(model, x, y)
    opt.step()  # populate Adam moments
    model.zero_grads()
    convs = model.convs
    for conv in convs:
        conv.kernel.grad[...] = 1.0  # everyone comfortably above tau
    target, k = convs[0], 2
    target.kernel.grad[k] = 0.0
    target.bias.grad[k] = 0.0

    before = snapshot(model, opt)
    old_slab = target.kernel.value[k].copy()
    events = scan(model, opt, RandomOutCfg(tau=1e-8, p_active=1.0), 0.0, derive_stream(7, "randomout"), 2, 5)

    assert [(e.layer_id, e.filter_index) for e in events] == [(target.layer_id, k)]
    e = events[0]
    assert isinstance(e, ResetEvent)
    assert (e.epoch, e.batch) == (2, 5)
    assert e.cgn_before == 0.0

    # targeted slab redrawn, bias zeroed, moments zeroed
    assert not np.array_equal(target.kernel.value[k], old_slab)
    assert target.bias.value[k] == 0.0
    assert np.all(target.kernel.view(opt.m)[k] == 0.0)
    assert np.all(target.kernel.view(opt.v)[k] == 0.0)

    # everything outside the targeted filter is bit-identical
    after = snapshot(model, opt)
    for conv in convs:
        keep = np.arange(conv.out_channels) != k if conv is target else slice(None)
        for offset in (conv.kernel.offset, conv.bias.offset):
            for key in (offset, ("m", offset), ("v", offset)):
                np.testing.assert_array_equal(before[key][keep], after[key][keep])
    for p in model.layers[-1].params:  # the dense head
        np.testing.assert_array_equal(before[p.offset], after[p.offset])


def test_reset_redraw_within_xavier_bound():
    from randomout.rng import xavier_bound

    model = small_model(seed=5)
    opt = make_optimizer("sgd", model, lr=0.1)
    model.zero_grads()
    first, second = model.convs
    first.kernel.grad[1:] = 1.0
    second.kernel.grad[...] = 1.0
    events = scan(model, opt, RandomOutCfg(tau=1e-8, p_active=1.0), 0.0, derive_stream(5, "randomout"))
    assert [(e.layer_id, e.filter_index) for e in events] == [(first.layer_id, 0)]
    assert np.abs(first.kernel.value[0]).max() <= xavier_bound(first.fan_in, first.fan_out)


def test_event_sequence_deterministic():
    def run():
        model = small_model(seed=9)
        opt = make_optimizer("sgd", model, lr=0.05)
        rng = derive_stream(9, "randomout")
        seen = []
        for b in range(4):
            x, y = batch(seed=b)
            forward_backward(model, x, y)
            events = scan(model, opt, RandomOutCfg(tau=1e-3, p_active=1.0), b / 4, rng, 0, b)
            seen.extend((e.batch, e.layer_id, e.filter_index, e.cgn_before) for e in events)
            opt.step()
            model.zero_grads()
        return seen, snapshot(model)

    seen1, snap1 = run()
    seen2, snap2 = run()
    assert seen1 == seen2
    for pid in snap1:
        np.testing.assert_array_equal(snap1[pid], snap2[pid])


def test_reset_of_dead_filter_disrupts_less_than_reset_of_live_filter():
    """Redrawing a zero-gradient filter should barely move the loss compared
    with redrawing the highest-scoring filter, across independent trials."""
    from randomout.model import filter_groups
    from randomout.rng import xavier_init

    wins = 0
    trials = 10
    for t in range(trials):
        x, y = batch(seed=100 + t, n=16)

        def loss_after_reset(pick_dead):
            model = small_model(seed=200 + t)
            model.convs[0].bias.value[0] = -50.0  # kill filter 0
            base_loss = forward_backward(model, x, y)
            scores = np.concatenate([cgn(conv) for conv in model.convs])
            conv, k = filter_groups(model)[0 if pick_dead else int(np.argmax(scores))]
            assert (scores[0] == 0.0) if pick_dead else (scores.max() > 0.0)
            rng = derive_stream(300 + t, "randomout")
            conv.kernel.value[k] = xavier_init(conv.kernel.value[k].shape, conv.fan_in, conv.fan_out, rng)
            conv.bias.value[k] = 0.0
            model.zero_grads()
            new_loss = forward_backward(model, x, y)
            return abs(new_loss - base_loss)

        if loss_after_reset(True) < loss_after_reset(False):
            wins += 1
    assert wins >= 8, f"dead-filter reset was gentler in only {wins}/{trials} trials"
