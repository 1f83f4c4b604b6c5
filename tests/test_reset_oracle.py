"""The per-layer mask scan against the per-filter reference in reset_oracle:
same events, same parameter, gradient and moment bytes, same reset stream."""

import numpy as np
import pytest

import reset_oracle
from randomout.config import RandomOutCfg
from randomout.models import build_cratercnn, build_mini_inception
from randomout.optim import make_optimizer
from randomout.regularizer import cgn, scan_and_reset
from randomout.rng import derive_stream

ROUNDS = 4


def engine_scan(model, opt, cfg, rng, batch):
    scores = [cgn(conv) for conv in model.convs]
    return scan_and_reset(model, opt, cfg, 0.0, rng, scores, 1, batch)


def oracle_scan(model, opt, cfg, rng, batch):
    return reset_oracle.scan_and_reset(model, opt, cfg, 0.0, rng, 1, batch)


def build(name):
    if name == "cratercnn":
        return build_cratercnn(4, derive_stream(3, "init"))
    return build_mini_inception(3, derive_stream(3, "init"), input_shape=(3, 10, 10))


def set_grads(model, rng, tau):
    """Random gradients whose filter scores straddle tau: per filter, exact
    zeros, noise at one of three scales, and one filter scoring exactly tau."""
    for p in model.params:
        p.grad[...] = rng.normal(size=p.grad.shape)
    for conv in model.convs:
        scale = rng.choice([0.0, 1e-3, 1e-2, 1.0], size=conv.out_channels)
        conv.kernel.grad *= scale[:, None, None, None]
        conv.bias.grad *= scale
        j = rng.integers(conv.out_channels)
        conv.kernel.grad[j] = 0.0
        conv.bias.grad[j] = tau


def run(scan, name, kind, tau):
    model = build(name)
    opt = make_optimizer(kind, model, 0.01)
    cfg = RandomOutCfg(tau=tau, p_active=1.0)
    rng = derive_stream(3, "randomout")
    events, grads = [], []
    for b in range(ROUNDS):
        set_grads(model, np.random.default_rng(b), tau)
        events += [(e.epoch, e.batch, e.layer_id, e.filter_index, repr(e.cgn_before)) for e in scan(model, opt, cfg, rng, b)]
        grads.append([p.grad.tobytes() for p in model.params])
        opt.step()
    values = [p.value.tobytes() for p in model.params]
    moments = [a.tobytes() for a in opt.flat_state]  # Adam's m, v and t; SGD has none
    return events, grads, values, moments, rng.random()


@pytest.mark.parametrize("tau", [0.0, 0.25])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("name", ["cratercnn", "mini_inception"])
def test_mask_scan_matches_per_filter_oracle(name, kind, tau):
    events, grads, values, moments, next_draw = run(engine_scan, name, kind, tau)
    ref_events, ref_grads, ref_values, ref_moments, ref_next_draw = run(oracle_scan, name, kind, tau)
    assert events == ref_events
    if tau == 0.0:
        assert events == []  # exact zeros score 0.0, and 0.0 < 0.0 is false
    else:
        assert len({e[1] for e in events}) == ROUNDS  # every round resets something
        assert repr(tau) not in {e[4] for e in events}  # a score equal to tau is kept
    assert grads == ref_grads
    assert values == ref_values
    assert moments == ref_moments
    assert (kind == "adam") == bool(moments)
    assert next_draw == ref_next_draw


def test_oracle_filter_groups_follow_conv_layers():
    model = build("mini_inception")
    groups = reset_oracle.filter_groups(model)
    assert [(g.layer_id, g.filter_index) for g in groups] == [
        (conv.layer_id, k) for conv in model.convs for k in range(conv.out_channels)
    ]
