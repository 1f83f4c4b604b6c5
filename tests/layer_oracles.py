"""Reference layer passes that the engine's faster ones must equal bit for bit.

- ``ReLU.forward``: a branchy select;
- ``Conv2d.forward``: the cropped GEMM output plus the broadcast bias, a
  new array, and for a 1x1 conv the bias added to the uncropped buffer;
- ``Conv2d.backward``: every kernel gradient from patches of x, and a 1x1
  conv's ``dout`` copied into a zero buffer like a larger kernel's;
- the windowed ``AvgPool2d.forward``: strided row and column copies and adds;
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

from randomout import tensor
from randomout.layers import BN_EPS, BN_MOMENTUM


def relu_forward(layer, x, mode):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def conv_forward(layer, x, mode):
    n, c, h, w = x.shape
    ks, k = layer.kernel_size, layer.out_channels
    ho, wo = h - ks + 1, w - ks + 1
    span = (ho - 1) * w + wo
    xf = x.reshape(n, c, h * w)
    wide = np.empty((n, k, ho * w))
    step = layer._block_step(n, h * w)
    for i in range(0, n, step):
        b = slice(i, i + step)
        np.matmul(layer.kernel.value.reshape(k, -1), tensor.wide_patches(xf[b], ks, w, span), out=wide[b, :, :span])
    if ks == 1:
        wide += layer.bias.value[:, None]
        return wide.reshape(n, k, ho, wo), x
    return wide.reshape(n, k, ho, w)[..., :wo] + layer.bias.value[:, None, None], x


def conv_backward(layer, dout, x):
    n, k, ho, wo = dout.shape
    _, c, h, w = x.shape
    ks = layer.kernel_size
    kernel = layer.kernel.value
    layer.bias.grad += dout.reshape(n, k, ho * wo).sum(axis=(0, 2))
    margin = (ks - 1) * (w + 1)
    span = (ho - 1) * w + wo
    dz = np.zeros((n, k, margin + h * w))
    dz[..., margin : margin + ho * w].reshape(n, k, ho, w)[..., :wo] = dout
    dwide = dz[..., margin : margin + span]
    flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    xf = x.reshape(n, c, h * w)
    prods = np.empty((n, k, c * ks * ks))
    dx = np.empty((n, c, h * w)) if layer.input_grad else None
    step = layer._block_step(n, h * w)
    for i in range(0, n, step):
        b = slice(i, i + step)
        np.matmul(dwide[b], tensor.wide_patches(xf[b], ks, w, span).transpose(0, 2, 1), out=prods[b])
        if dx is not None:
            np.matmul(flipped, tensor.wide_patches(dz[b], ks, w, h * w), out=dx[b])
    layer.kernel.grad += prods.sum(axis=0).reshape(kernel.shape)
    return None if dx is None else dx.reshape(x.shape)


def avgpool_forward(layer, x, mode):
    if layer.window is None:
        return x.mean(axis=(2, 3), keepdims=True), x.shape
    win, s = layer.window, layer.stride
    ho, wo = (x.shape[2] - win) // s + 1, (x.shape[3] - win) // s + 1
    rows = x[:, :, 0 : s * ho : s].copy()
    for i in range(1, win):
        rows += x[:, :, i : i + s * ho : s]
    out = rows[..., 0 : s * wo : s].copy()
    for j in range(1, win):
        out += rows[..., j : j + s * wo : s]
    out /= win * win
    return out, x.shape


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
