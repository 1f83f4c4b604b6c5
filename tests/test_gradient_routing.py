"""Gradient routing through a two-unit ReLU net.

f(x) = max(0, w6*h0 + w7*h1 + w8) with h_j = max(0, w_3j*x0 + w_3j+1*x1 + w_3j+2).
A branch whose hidden unit never activates must get exactly zero gradient
on its three weights, while a barely-connected branch gets gradient scaled
by its tiny outgoing weight.
"""

import numpy as np
import pytest

from two_branch_net import two_branch_relu_net

FD_EPS = 1e-6


def fd_grads(weights, x0, x1):
    """Central differences over the nine weights."""
    out = np.zeros(9)
    for i in range(9):
        wp = list(weights)
        wm = list(weights)
        wp[i] += FD_EPS
        wm[i] -= FD_EPS
        fp, _ = two_branch_relu_net(wp)(x0, x1)
        fm, _ = two_branch_relu_net(wm)(x0, x1)
        out[i] = (fp - fm) / (2 * FD_EPS)
    return out


def test_dead_branch_gets_exact_zero_gradient():
    # branch 1 (w3, w4, w5) has a large negative bias: its ReLU output is 0
    w = [0.5, 0.4, 0.1, 0.3, 0.2, -10.0, 1.0, 1.0, 0.1]
    value, grads = two_branch_relu_net(w)(1.0, 1.0)
    assert value > 0
    assert grads[3] == 0.0 and grads[4] == 0.0 and grads[5] == 0.0
    assert grads[0] != 0.0 and grads[1] != 0.0 and grads[2] != 0.0


def test_tiny_outgoing_weight_scales_branch_gradient():
    # both branches active, but branch 1 feeds the output through w7 = 1e-8:
    # its weight gradients shrink by the same factor
    small = 1e-8
    w = [0.5, 0.4, 0.1, 0.3, 0.2, 0.1, 1.0, small, 0.1]
    _, grads = two_branch_relu_net(w)(1.0, 1.0)
    h1_inputs = np.array([1.0, 1.0, 1.0])  # dh1/dw3, dh1/dw4 at x=(1,1), dh1/dw5
    np.testing.assert_allclose(grads[3:6], small * h1_inputs, rtol=1e-12)
    assert np.all(np.abs(grads[3:6]) < 1e-7)
    assert np.abs(grads[0]) > 0.1


def test_gradients_match_finite_differences_generic_point():
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = rng.uniform(0.2, 1.0, size=9)  # positive weights keep ReLUs away from kinks
        x0, x1 = rng.uniform(0.5, 1.5, size=2)
        _, grads = two_branch_relu_net(list(w))(x0, x1)
        expected = fd_grads(list(w), x0, x1)
        np.testing.assert_allclose(grads, expected, rtol=1e-5, atol=1e-8)


def test_both_branches_active_both_receive_gradient():
    w = [0.5, 0.4, 0.1, 0.3, 0.2, 0.1, 1.0, 1.0, 0.1]
    value, grads = two_branch_relu_net(w)(1.0, 1.0)
    assert value == pytest.approx(0.5 + 0.4 + 0.1 + 0.3 + 0.2 + 0.1 + 0.1)
    assert np.all(grads != 0.0)


def test_dead_output_kills_everything():
    w = [0.5, 0.4, 0.1, 0.3, 0.2, 0.1, 1.0, 1.0, -100.0]
    value, grads = two_branch_relu_net(w)(1.0, 1.0)
    assert value == 0.0
    np.testing.assert_array_equal(grads, np.zeros(9))


def test_weight_count_validation():
    with pytest.raises(ValueError, match="9 weights"):
        two_branch_relu_net([1.0, 2.0])
