"""Reference ReLU forward and AvgPool2d backward: a branchy select and a strided scatter-add.

The engine's ``ReLU.forward`` and windowed ``AvgPool2d.backward`` must equal
these bit for bit. Both are written as methods so a test can also swap them
into the layer classes and train a whole run the reference way.
"""

import numpy as np


def relu_forward(layer, x, mode):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def avgpool_scatter(dout, shape, window, stride):
    """dx of a window x window pool at ``stride``: ``window`` strided column
    scatter-adds into the pooled rows, then ``window`` strided row scatter-adds."""
    n, c, h, w = shape
    ho, wo = dout.shape[2:]
    dout = dout / (window * window)
    drows = np.zeros((n, c, ho, w))
    for j in range(window):
        drows[..., j : j + stride * wo : stride] += dout
    dx = np.zeros(shape)
    for i in range(window):
        dx[:, :, i : i + stride * ho : stride] += drows
    return dx


def avgpool_backward(layer, dout, cache):
    n, c, h, w = cache
    if layer.window is None:
        return np.broadcast_to(dout / (h * w), cache)
    return avgpool_scatter(dout, cache, layer.window, layer.stride)
