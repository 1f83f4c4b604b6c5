"""Feed-forward layers with explicit forward and backward passes.

Contract shared by every layer: ``forward(x, mode)`` returns ``(y, cache)``
and ``backward(dout, cache)`` returns ``dx`` while accumulating parameter
gradients into the layer's ParamNodes with ``+=``. Backward never writes
into ``dout``, which may be a read-only broadcast view. The loss is a batch
mean, so the 1/N division happens exactly once, in the softmax
cross-entropy head; layer backward passes sum over the batch.

ReLU uses the convention relu'(0) = 0, so a pre-activation that is <= 0
for every batch element routes an exactly-zero gradient upstream.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .rng import xavier_init

PARAM_ROLES = ("conv_kernel", "conv_bias", "dense_weight", "dense_bias", "bn_gamma", "bn_beta")

BN_EPS = 1e-5
BN_MOMENTUM = 0.9

# Patch bytes one stride-1 conv block may hold: half of a 2 MiB per-core L2
# cache. A 2 MiB budget measured slower on every benchmark workload.
PATCH_BLOCK_BYTES = 1 << 20


@dataclass
class ParamNode:
    """A trainable array paired with its gradient accumulator."""

    id: int
    value: np.ndarray
    grad: np.ndarray
    role: str

    def __post_init__(self):
        if self.role not in PARAM_ROLES:
            raise ValueError(f"unknown param role {self.role!r}")
        if self.grad.shape != self.value.shape:
            raise ValueError(f"grad shape {self.grad.shape} != value shape {self.value.shape}")

    @classmethod
    def create(cls, pid, value, role):
        value = np.asarray(value, dtype=tensor.DTYPE)
        return cls(pid, value, np.zeros_like(value), role)


class Layer:
    """Base layer; subclasses fill in params and the forward/backward pair."""

    params = ()
    kind = "layer"

    def __init__(self, layer_id):
        self.layer_id = layer_id

    def forward(self, x, mode):
        raise NotImplementedError

    def backward(self, dout, cache):
        raise NotImplementedError


class Conv2d(Layer):
    """Valid cross-correlation with a [K,C,kH,kW] kernel and per-channel bias.

    A stride-1 conv runs on row-flattened planes (see ``tensor``'s layout
    contract): its patches are ``tensor.wide_patches`` of x, so every patch
    row is one contiguous run, and one GEMM per image writes Ho rows of W
    columns, of which the last W-Wo wrap around and are dropped. For k = 1
    the patch buffer is x itself. A stride > 1 conv runs on
    ``tensor.im2col``'s contiguous [N, C*kH*kW, Ho*Wo] buffer.

    A stride-1 conv works on blocks of consecutive images, each as large as
    fits in ``PATCH_BLOCK_BYTES`` (see ``_block_step``), so that a block's
    patch copy and GEMMs stay in a core's L2 cache. The train cache keeps
    no patches of its own, whatever the block count: the backward copies
    each block's patches again from x (for k = 1 they are x's own view).
    Every GEMM is the per-image product, so the block size moves no result
    bit.

    The input gradient takes one of two routes, picked from the stride:

    - stride 1: ``dout`` is written at row pitch W into one zero buffer
      with a (k-1)*(W+1) margin in front, so its wrap-around columns stay
      zero. The kernel gradient reads that buffer against the patches, and
      the input gradient is the correlation of the same buffer with the
      flipped, channel-swapped kernel: one ``wide_patches`` and one GEMM
      per block, already in x's [N, C, H*W] layout;
    - stride > 1: one GEMM into patch columns, then ``tensor.col2im``'s
      scatter-add.

    ``input_grad`` is False only for a model's first layer, whose input
    gradient nothing consumes; its backward then skips that work and
    returns None.
    """

    kind = "conv2d"

    def __init__(self, layer_id, in_channels, out_channels, kernel_size, stride, rng, alloc):
        super().__init__(layer_id)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.fan_in = in_channels * kernel_size * kernel_size
        self.fan_out = out_channels * kernel_size * kernel_size
        self.input_grad = True
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.kernel = ParamNode.create(alloc(), xavier_init(shape, self.fan_in, self.fan_out, rng), "conv_kernel")
        self.bias = ParamNode.create(alloc(), np.zeros(out_channels), "conv_bias")
        self.params = (self.kernel, self.bias)

    def _block_step(self, n, plane):
        """Images per stride-1 block: the fewest blocks whose patches fit in PATCH_BLOCK_BYTES, balanced.

        An image's largest buffer is its forward patches (C rows per tap) or,
        when ``input_grad`` is set, the input gradient's (K rows per tap),
        each ``plane`` values long.
        """
        channels = max(self.in_channels, self.out_channels) if self.input_grad else self.in_channels
        rows = channels * self.kernel_size**2
        per_image = tensor.DTYPE().itemsize * rows * plane
        blocks = -(-n * per_image // PATCH_BLOCK_BYTES)
        return -(-n // blocks)

    def forward(self, x, mode):
        n, c, h, w = x.shape
        ks, k, s = self.kernel_size, self.out_channels, self.stride
        ho = tensor.conv_output_size(h, ks, s)
        wo = tensor.conv_output_size(w, ks, s)
        kmat = self.kernel.value.reshape(k, -1)
        if s > 1:
            cols = tensor.im2col(x, ks, ks, s).transpose(0, 2, 1)  # [N, C*kH*kW, Ho*Wo]
            out = (kmat @ cols + self.bias.value[:, None]).reshape(n, k, ho, wo)
            return out, (x, cols)
        span = (ho - 1) * w + wo
        xf = x.reshape(n, c, h * w)
        wide = np.empty((n, k, ho * w), dtype=tensor.DTYPE)
        step = self._block_step(n, h * w)
        for i in range(0, n, step):
            b = slice(i, i + step)
            np.matmul(kmat, tensor.wide_patches(xf[b], ks, w, span), out=wide[b, :, :span])
        # a 1x1 conv's patches are x itself; a larger kernel's are copied again by the backward
        return wide.reshape(n, k, ho, w)[..., :wo] + self.bias.value[:, None, None], (x, xf if ks == 1 else None)

    def backward(self, dout, cache):
        x, cols = cache  # stride 1: cols is None, or x's own view for k = 1
        n, k, ho, wo = dout.shape
        dmat = dout.reshape(n, k, ho * wo)
        kernel = self.kernel.value
        self.bias.grad += dmat.sum(axis=(0, 2))
        ks, s = self.kernel_size, self.stride
        if s > 1:
            self.kernel.grad += (dmat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
            if not self.input_grad:
                return None
            dcols = kernel.reshape(k, -1).T @ dmat  # [N, C*kH*kW, Ho*Wo]
            return tensor.col2im(dcols.transpose(0, 2, 1), x.shape, ks, ks, s)
        _, c, h, w = x.shape
        margin = (ks - 1) * (w + 1)
        span = (ho - 1) * w + wo
        dz = np.zeros((n, k, margin + h * w), dtype=tensor.DTYPE)
        dz[..., margin : margin + ho * w].reshape(n, k, ho, w)[..., :wo] = dout
        dwide = dz[..., margin : margin + span]  # dout at row pitch W, wrap-around columns zero
        flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        xf = x.reshape(n, c, h * w)
        prods = np.empty((n, k, c * ks * ks), dtype=tensor.DTYPE)  # per-image kernel gradients
        dx = np.empty((n, c, h * w), dtype=tensor.DTYPE) if self.input_grad else None
        step = self._block_step(n, h * w)
        for i in range(0, n, step):
            b = slice(i, i + step)
            patches = tensor.wide_patches(xf[b], ks, w, span)
            np.matmul(dwide[b], patches.transpose(0, 2, 1), out=prods[b])
            del patches  # free this block's copy before the input gradient's
            if dx is not None:
                np.matmul(flipped, tensor.wide_patches(dz[b], ks, w, h * w), out=dx[b])
        self.kernel.grad += prods.sum(axis=0).reshape(kernel.shape)
        return None if dx is None else dx.reshape(x.shape)


class ReLU(Layer):
    """max(x, 0) with relu'(0) = 0; the train cache is the mask x > 0.

    The forward is ``np.fmax(x, 0.0)`` plus 0.0, bit for bit
    ``np.where(x > 0, x, 0.0)`` for every float64 but branch-free: fmax
    returns 0.0 for a NaN, and adding 0.0 turns the -0.0 it may return for
    x = -0.0 into +0.0 while leaving every other value as it is. Like
    ``BatchNorm2d``, eval mode returns no cache.
    """

    kind = "relu"

    def forward(self, x, mode):
        y = np.fmax(x, 0.0)
        y += 0.0
        return y, None if mode == "eval" else x > 0

    def backward(self, dout, cache):
        return dout * cache


class Dense(Layer):
    """Affine map x[N,D] @ W[D,U] + b[U], Xavier-initialized."""

    kind = "dense"

    def __init__(self, layer_id, in_features, units, rng, alloc):
        super().__init__(layer_id)
        self.in_features = in_features
        self.units = units
        self.weight = ParamNode.create(
            alloc(), xavier_init((in_features, units), in_features, units, rng), "dense_weight"
        )
        self.bias = ParamNode.create(alloc(), np.zeros(units), "dense_bias")
        self.params = (self.weight, self.bias)

    def forward(self, x, mode):
        return x @ self.weight.value + self.bias.value, x

    def backward(self, dout, cache):
        self.weight.grad += cache.T @ dout
        self.bias.grad += dout.sum(axis=0)
        return dout @ self.weight.value.T


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, mode):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache):
        return dout.reshape(cache)


class AvgPool2d(Layer):
    """Valid average pooling over window x window patches; window None pools all of HxW.

    A window is summed separably: ``window`` strided row slices, then
    ``window`` strided column slices.

    Backward is the adjoint of that sum on row-flattened planes, the way
    ``Conv2d.backward`` builds its ``dz``: ``dout / window**2`` is written
    at row pitch W and at the pool stride into one zero buffer that holds
    every plane back to back behind a (window-1)*(W+1) margin. Then
    ``window`` column shifts (offsets of 1) and ``window`` row shifts
    (offsets of W) are summed, each one contiguous run over all planes. A
    shift past the start of a row or plane reads zeros: the margin, or the
    last columns and rows of the plane before, where no window starts. So
    the sums add the terms of a strided scatter-add in its order (columns
    j, then rows i), plus zeros. The zeros move no bit, because the written
    values first get +0.0, which turns -0.0 into +0.0 as a scatter into a
    zero buffer does, and x + 0.0 is x for every other x.
    """

    kind = "avgpool"

    def __init__(self, layer_id, window, stride):
        super().__init__(layer_id)
        self.window = window
        self.stride = stride

    def forward(self, x, mode):
        if self.window is None:
            return x.mean(axis=(2, 3), keepdims=True), x.shape
        win, s = self.window, self.stride
        _, _, h, w = x.shape
        ho = tensor.conv_output_size(h, win, s)
        wo = tensor.conv_output_size(w, win, s)
        rows = x[:, :, 0 : s * ho : s].copy()
        for i in range(1, win):
            rows += x[:, :, i : i + s * ho : s]
        out = rows[..., 0 : s * wo : s].copy()
        for j in range(1, win):
            out += rows[..., j : j + s * wo : s]
        out /= win * win
        return out, x.shape

    def backward(self, dout, cache):
        n, c, h, w = cache
        if self.window is None:
            return np.broadcast_to(dout / (h * w), cache)
        win, s = self.window, self.stride
        ho, wo = dout.shape[2:]
        size = n * c * h * w
        margin = (win - 1) * (w + 1)
        dz = np.zeros(margin + size, dtype=tensor.DTYPE)
        starts = dz[margin:].reshape(cache)[:, :, : s * ho : s, : s * wo : s]
        np.add(dout / (win * win), 0.0, out=starts)
        if win == 1:
            return dz.reshape(cache)
        # column sums keep (win-1)*W zeros in front: the rows above the first plane
        drows = _shifted_sum(dz, 1, win, (win - 1) * w + size)
        return _shifted_sum(drows, w, win, size).reshape(cache)


def _shifted_sum(buf, offset, count, length):
    """Sum of ``buf`` shifted back by t*offset for t = 0..count-1 (count >= 2), added in t order.

    Term t is the run ``buf[(count-1-t)*offset :]`` of ``length`` values, so
    the result's first value lines up with ``buf[(count-1)*offset]``.
    """
    end = (count - 1) * offset
    out = np.add(buf[end : end + length], buf[end - offset : end - offset + length])
    for t in range(2, count):
        out += buf[end - t * offset : end - t * offset + length]
    return out


class BatchNorm2d(Layer):
    """Per-channel batch normalization over the (N, H, W) axes.

    Train mode normalizes with biased batch statistics and updates the
    running mean/var with momentum 0.9; eval mode uses the running stats.
    Batches of size 1 are rejected in train mode (undefined variance).

    The train forward computes its statistics in one pass the way numpy's
    ``x.var`` does (the sum over (N, H, W) divided by m, then the sum of
    squared deviations divided by m) and reuses the centered input as
    xhat. The backward sums ``dout`` and ``dout * xhat`` once each, for
    both the parameter gradients and dx. These are the float operations of
    ``x.mean``, ``x.var`` and the two-pass formulas, on the same operands
    and in the same order, so no result bit moves.
    """

    kind = "batchnorm"

    def __init__(self, layer_id, channels, alloc):
        super().__init__(layer_id)
        self.channels = channels
        self.gamma = ParamNode.create(alloc(), np.ones(channels), "bn_gamma")
        self.beta = ParamNode.create(alloc(), np.zeros(channels), "bn_beta")
        self.params = (self.gamma, self.beta)
        self.running_mean = np.zeros(channels, dtype=tensor.DTYPE)
        self.running_var = np.ones(channels, dtype=tensor.DTYPE)

    def forward(self, x, mode):
        g = self.gamma.value[None, :, None, None]
        b = self.beta.value[None, :, None, None]
        if mode == "eval":
            y = x - self.running_mean[None, :, None, None]
            y /= np.sqrt(self.running_var[None, :, None, None] + BN_EPS)
            np.multiply(g, y, out=y)
            y += b
            return y, None
        if x.shape[0] < 2:
            raise ValueError(f"batchnorm layer {self.layer_id}: train-mode batch of size 1 has undefined variance")
        m = x.shape[0] * x.shape[2] * x.shape[3]
        mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True) / m
        xhat = x - mean  # centered now, normalized below
        var = np.add.reduce(np.square(xhat), axis=(0, 2, 3), keepdims=True) / m
        self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean.reshape(-1)
        self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var.reshape(-1)
        istd = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= istd
        y = g * xhat
        y += b
        return y, (xhat, istd.reshape(-1))

    def backward(self, dout, cache):
        xhat, istd = cache
        m = dout.shape[0] * dout.shape[2] * dout.shape[3]
        s1 = dout.sum(axis=(0, 2, 3))
        s2 = (dout * xhat).sum(axis=(0, 2, 3))
        self.gamma.grad += s2
        self.beta.grad += s1
        # dx = gamma*istd/m * (m*dout - sum(dout) - xhat * sum(dout*xhat))
        coef = self.gamma.value[None, :, None, None] * istd[None, :, None, None] / m
        dx = m * dout
        dx -= s1[None, :, None, None]
        dx -= xhat * s2[None, :, None, None]
        return np.multiply(coef, dx, out=dx)


def run_sequence(layers, x, mode):
    """Run layers in order; returns (y, caches), one cache per layer.

    An eval forward keeps no caches and returns None for them: each
    layer's cache (conv patches, ReLU masks, ...) is dropped as soon as
    that layer returns, so it never outlives the layer that made it.
    """
    if mode == "eval":
        for layer in layers:
            x = layer.forward(x, mode)[0]
        return x, None
    caches = []
    for layer in layers:
        x, c = layer.forward(x, mode)
        caches.append(c)
    return x, caches


class Branches(Layer):
    """Parallel layer sequences over one input, concatenated channel-wise.

    In eval mode the branches keep no caches and the cache returned is None.
    """

    kind = "concat"

    def __init__(self, layer_id, branches):
        super().__init__(layer_id)
        self.branches = branches  # list of layer lists
        self.params = tuple(p for seq in branches for layer in seq for p in layer.params)

    def forward(self, x, mode):
        outs, caches = [], []
        for seq in self.branches:
            y, seq_cache = run_sequence(seq, x, mode)
            outs.append(y)
            caches.append(seq_cache)
        y = np.concatenate(outs, axis=1)
        if mode == "eval":
            return y, None
        return y, (caches, [o.shape[1] for o in outs])

    def backward(self, dout, cache):
        caches, widths = cache
        dx = None
        offset = 0
        for seq, seq_cache, width in zip(self.branches, caches, widths):
            d = dout[:, offset : offset + width]
            offset += width
            for layer, c in zip(reversed(seq), reversed(seq_cache)):
                d = layer.backward(d, c)
            dx = d if dx is None else dx + d
        return dx


class SoftmaxCrossEntropy:
    """Mean softmax cross-entropy over the batch, computed from logits.

    Uses max-subtraction stabilization; returns the loss and d(loss)/d(logits).
    """

    def loss_and_grad(self, logits, labels):
        n, k = logits.shape
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"labels out of range [0, {k})")
        shifted = logits - logits.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=1))
        loss = float((logsumexp - shifted[np.arange(n), labels]).mean())
        probs = np.exp(shifted - logsumexp[:, None])
        probs[np.arange(n), labels] -= 1.0
        return loss, probs / n
