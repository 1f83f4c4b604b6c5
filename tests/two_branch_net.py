"""A two-unit ReLU net over (x0, x1) for gradient-routing tests."""

from itertools import count

import numpy as np

from randomout import tensor
from randomout.layers import Dense, ReLU, backward_sequence
from randomout.model import Model


def two_branch_relu_net(weights):
    """Two-unit ReLU net over (x0, x1), built from the dense and relu layers.

    With weights w = [w0..w8], evaluates
        f(x) = max(0, w6*max(0, w0*x0 + w1*x1 + w2) + w7*max(0, w3*x0 + w4*x1 + w5) + w8)
    Returns a function (x0, x1) -> (value, gradient wrt all nine weights).
    Used to exercise gradient routing: a branch whose inner ReLU stays
    negative receives exactly zero gradient on its three weights.
    """
    w = np.asarray(weights, dtype=tensor.DTYPE)
    if w.shape != (9,):
        raise ValueError(f"expected 9 weights, got shape {w.shape}")
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    alloc = count().__next__
    d1 = Dense(0, 2, 2, rng, alloc)
    d2 = Dense(2, 2, 1, rng, alloc)
    d1.weight.value[...] = [[w[0], w[3]], [w[1], w[4]]]
    d1.bias.value[...] = [w[2], w[5]]
    d2.weight.value[...] = [[w[6]], [w[7]]]
    d2.bias.value[...] = [w[8]]
    net = Model([d1, ReLU(1), d2, ReLU(3)], (2,), num_classes=1)

    def evaluate(x0, x1):
        y, (_, caches) = net.forward([[x0, x1]], "train")
        net.zero_grads()
        backward_sequence(net.layers, np.ones((1, 1), dtype=tensor.DTYPE), caches)
        grads = np.array(
            [
                d1.weight.grad[0, 0], d1.weight.grad[1, 0], d1.bias.grad[0],
                d1.weight.grad[0, 1], d1.weight.grad[1, 1], d1.bias.grad[1],
                d2.weight.grad[0, 0], d2.weight.grad[1, 0], d2.bias.grad[0],
            ]
        )
        return float(y[0, 0]), grads

    return evaluate
