"""The gradient-check oracle in tests/gradcheck.py (its full suite sweep is criterion 01 in test_acceptance)."""

import numpy as np

from gradcheck import EPS, TOLERANCE, model_max_rel_error, relative_error, standard_suites
from randomout.layers import ReLU
from randomout.model import LayerSpec, build_model
from randomout.models import build_cratercnn, build_mini_inception
from randomout.rng import derive_stream


def kink_margin(model, x):
    """Smallest |ReLU input| in a train-mode forward pass; large means kink-free."""

    def walk(seq, h):
        # returns the output of seq and the smallest |ReLU input| inside it
        margin = np.inf
        for layer in seq:
            if layer.kind == "concat":
                outs = []
                for branch in layer.branches:
                    out, branch_margin = walk(branch, h)
                    outs.append(out)
                    margin = min(margin, branch_margin)
                h = np.concatenate(outs, axis=1)
            else:
                if layer.kind == "relu":
                    margin = min(margin, np.abs(h).min())
                h = layer.forward(h, "train")[0]
        return h, margin

    return walk(model.layers, x)[1]


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-9, 0.0) == 1e-9 / 1e-6  # floored denominator
    assert relative_error(2.0, 1.0) == 0.5
    assert relative_error(-1.0, 1.0) == 2.0


def test_single_dense_layer_passes_check():
    model = build_model([LayerSpec("dense", units=3)], (5,), derive_stream(1, "init"))
    x = np.random.default_rng(1).uniform(-1, 1, size=(4, 5))
    labels = np.array([0, 2, 1, 0])
    assert model_max_rel_error(model, x, labels) < TOLERANCE


def test_kink_margin_detects_near_zero_preactivations():
    model = build_cratercnn(2, derive_stream(2, "init"))
    x = np.random.default_rng(2).uniform(0, 1, size=(2, 1, 15, 15))
    margin = kink_margin(model, x)
    assert margin >= 0.0
    for conv in model.convs:
        conv.bias.value[...] = 1000.0  # every preactivation far from the kink
    assert kink_margin(model, x) > 100.0


def test_kink_margin_walks_every_inception_branch():
    model = build_mini_inception(2, derive_stream(3, "init"), input_shape=(3, 12, 12))
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 3, 12, 12))
    convs = model.convs
    for conv in convs:
        conv.kernel.value[...] = 0.0
        conv.bias.value[...] = 1.0  # every ReLU input is exactly 1
    assert kink_margin(model, x) == 1.0
    assert len(convs) == 5
    for conv in convs[1:]:  # every conv after the stem sits in a branch
        conv.bias.value[...] = 0.5  # only the ReLU after this conv sees 0.5
        assert kink_margin(model, x) == 0.5, conv.layer_id
        conv.bias.value[...] = 1.0


def test_perturbation_scale_smaller_than_tolerance_regime():
    # eps must leave room for the centered difference to resolve 1e-4 errors
    assert EPS == 1e-5 and TOLERANCE == 1e-4


def test_oracle_flags_a_wrong_backward(monkeypatch):
    suites = {name: (model, x, y) for name, model, x, y in standard_suites()}
    model, x, labels = suites["relu_composition"]
    assert model_max_rel_error(model, x, labels) < TOLERANCE
    monkeypatch.setattr(ReLU, "backward", lambda self, dout, cache: dout)  # the mask dropped
    assert model_max_rel_error(model, x, labels) > TOLERANCE
