"""Optimizer update rules against hand-computed references."""

import numpy as np
import pytest

from loose_params import model_of
from randomout.layers import ParamNode
from randomout.optim import SGD, Adam, make_optimizer


def make_param(values):
    v = np.asarray(values, dtype=np.float64)
    return ParamNode(v.copy(), np.zeros_like(v))


def test_sgd_single_step_oracle():
    p = make_param([1.0, -2.0, 0.5])
    p.grad[:] = [0.1, 0.2, -0.4]
    SGD(model_of(p), lr=0.5).step()
    np.testing.assert_allclose(p.value, [0.95, -2.1, 0.7], rtol=0, atol=0)


def test_sgd_two_steps_accumulate():
    p = make_param([0.0])
    opt = SGD(model_of(p), lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    p.grad[:] = -3.0
    opt.step()
    np.testing.assert_allclose(p.value, [0.2])


def adam_reference(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence, written independently of the implementation."""
    w = np.array(w0, dtype=np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(3)
    grads = [rng.normal(size=4) for _ in range(5)]
    p = make_param([0.3, -0.7, 1.2, 0.0])
    opt = Adam(model_of(p), lr=0.01)
    for g in grads:
        p.grad[:] = g
        opt.step()
        p.grad[:] = 0.0
    expected = adam_reference([0.3, -0.7, 1.2, 0.0], grads, lr=0.01)
    np.testing.assert_allclose(p.value, expected, rtol=1e-12, atol=0)


def test_adam_eps_is_1e8():
    # grads near 1e-8 keep sqrt(v_hat) near 1e-8, so eps is about half of
    # each update's denominator; the reference's eps is this test's
    grads = [np.array([1e-8, -2e-8, 5e-9, 3e-8]) * scale for scale in (1.0, 0.5, 2.0)]
    p = make_param(np.zeros(4))
    opt = Adam(model_of(p), lr=0.01)
    for g in grads:
        p.grad[:] = g
        opt.step()
    expected = adam_reference(np.zeros(4), grads, lr=0.01, eps=1e-8)
    np.testing.assert_allclose(p.value, expected, rtol=1e-12, atol=0)


def test_adam_first_step_has_full_magnitude():
    # bias correction makes step one move by ~lr regardless of grad scale
    p = make_param([0.0])
    p.grad[:] = 1e-4
    Adam(model_of(p), lr=0.01).step()
    assert p.value[0] == pytest.approx(-0.01, rel=1e-3)


def test_adam_reset_state_slice_zeroes_only_slice():
    p = make_param(np.zeros(6))
    opt = Adam(model_of(p), lr=0.01)
    p.grad[:] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    opt.step()
    m, v = p.view(opt.m), p.view(opt.v)
    m_before = m.copy()
    v_before = v.copy()
    opt.reset_state_slice(p, slice(2, 4))
    assert np.all(m[2:4] == 0.0) and np.all(v[2:4] == 0.0)
    np.testing.assert_array_equal(m[:2], m_before[:2])
    np.testing.assert_array_equal(m[4:], m_before[4:])
    np.testing.assert_array_equal(v[:2], v_before[:2])
    np.testing.assert_array_equal(v[4:], v_before[4:])
    assert opt.t == 1  # step counter survives the reset


def test_adam_after_slice_reset_behaves_like_fresh_moments():
    # a reset slice with zero grad must not move on the next step
    p = make_param(np.ones(3))
    opt = Adam(model_of(p), lr=0.05)
    p.grad[:] = [1.0, 1.0, 1.0]
    opt.step()
    opt.reset_state_slice(p, slice(0, 1))
    held = p.value[0]
    p.grad[:] = [0.0, 1.0, 1.0]
    opt.step()
    assert p.value[0] == held
    assert p.value[1] != 1.0


def test_sgd_reset_state_slice_is_noop():
    p = make_param([1.0, 2.0])
    opt = SGD(model_of(p), lr=0.1)
    opt.reset_state_slice(p, slice(0, 1))
    np.testing.assert_array_equal(p.value, [1.0, 2.0])


def test_optimizer_validation():
    p = make_param([1.0])
    with pytest.raises(ValueError, match="learning rate"):
        SGD(model_of(p), lr=0.0)
    with pytest.raises(ValueError, match="learning rate"):
        Adam(model_of(p), lr=-1.0)
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_optimizer("rmsprop", model_of(p), lr=0.1)


def test_make_optimizer_dispatch():
    p = make_param([1.0])
    assert isinstance(make_optimizer("sgd", model_of(p), lr=0.1), SGD)
    assert isinstance(make_optimizer("adam", model_of(p), lr=0.1), Adam)
