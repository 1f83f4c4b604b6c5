"""Reference layer passes that the engine's faster ones must equal bit for bit.

- ``ReLU.forward``: a branchy select;
- the windowed ``AvgPool2d.backward``: a strided scatter-add;
- ``BatchNorm2d``'s forward and backward: ``x.mean``/``x.var`` statistics
  and the two-pass formulas, each sum computed where it is used;
- ``tensor.wide_patches``: an ``as_strided`` view, copied.

The layer passes are written as methods and ``wide_patches`` with the
engine's signature, so a test can also swap them in and train a whole run
the reference way.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from randomout.layers import BN_EPS, BN_MOMENTUM


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


def batchnorm_forward(layer, x, mode):
    g = layer.gamma.value[None, :, None, None]
    b = layer.beta.value[None, :, None, None]
    if mode == "eval":
        xhat = (x - layer.running_mean[None, :, None, None]) / np.sqrt(layer.running_var[None, :, None, None] + BN_EPS)
        return g * xhat + b, None
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    layer.running_mean = BN_MOMENTUM * layer.running_mean + (1 - BN_MOMENTUM) * mean
    layer.running_var = BN_MOMENTUM * layer.running_var + (1 - BN_MOMENTUM) * var
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None, None]) * istd[None, :, None, None]
    return g * xhat + b, (xhat, istd)


def batchnorm_backward(layer, dout, cache):
    xhat, istd = cache
    m = dout.shape[0] * dout.shape[2] * dout.shape[3]
    layer.gamma.grad += (dout * xhat).sum(axis=(0, 2, 3))
    layer.beta.grad += dout.sum(axis=(0, 2, 3))
    s1 = dout.sum(axis=(0, 2, 3))[None, :, None, None]
    s2 = (dout * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
    g = layer.gamma.value[None, :, None, None]
    return g * istd[None, :, None, None] / m * (m * dout - s1 - xhat * s2)


def wide_patches(xf, k, pitch, length):
    n, c, size = xf.shape
    if (k - 1) * (pitch + 1) + length > size:
        raise ValueError(f"runs of length {length} at pitch {pitch} overrun planes of size {size}")
    if k == 1 and length == size:
        return xf
    sn, sc, s = xf.strides
    runs = as_strided(xf, (n, c, k, k, length), (sn, sc, pitch * s, s, s), writeable=False)
    return np.ascontiguousarray(runs).reshape(n, c * k * k, length)
