"""Feed-forward layers with explicit forward and backward passes.

Contract shared by every layer: ``forward(x, mode)`` returns ``(y, cache)``
and ``backward(dout, cache)`` returns ``dx`` while accumulating parameter
gradients into the layer's ParamNodes with ``+=``. Backward never writes
into ``dout``, which may be a read-only broadcast view. The loss is a batch
mean, so the 1/N division happens exactly once, in the softmax
cross-entropy head; layer backward passes sum over the batch.

ReLU uses the convention relu'(0) = 0, so a pre-activation that is <= 0
for every batch element routes an exactly-zero gradient upstream.

A layer computes in its parameters' dtype, and a layer without parameters
in its input's. Training is float64 throughout; only the forward-only copy
of ``Model.astype`` holds float32 parameters.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .rng import xavier_init

BN_EPS = 1e-5
BN_MOMENTUM = 0.9

# Patch bytes one stride-1 conv block may hold: half of a 2 MiB per-core L2
# cache. A 2 MiB budget measured slower on every benchmark workload.
PATCH_BLOCK_BYTES = 1 << 20

# Shortest wide row (``span``) whose kernel gradient is taken one tap at a
# time, straight from x, instead of from patches of x. Batch 16 on a 2-core
# VM, µs per backward, patches -> taps: 332 -> 265 on mini_inception's stem
# (3->4, 32x32), 634 -> 552 at 4->4 30x30, 904 -> 694 at 8->4 28x28 (spans
# 726-958), but 176 -> 198 on cratercnn's 4->4 12x12 k4 (span 105). A
# single input channel stays on patches at any span (no input gradient,
# median of 3 alternating rounds): 209 -> 234 at 1->4 28x28 k4 (span 697),
# 293 -> 382 at 1->8 28x28 k4, 232 -> 311 at 1->4 32x32 k4 (span 925),
# 132 -> 140 at 1->4 28x28 k3, 244 -> 254 at 1->8 28x28 k3, 328 -> 351 at
# 1->8 32x32 k3.
TAP_SPAN_MIN = 256


@dataclass(eq=False)  # a node is itself, not its arrays' contents
class ParamNode:
    """A trainable array paired with its gradient accumulator.

    ``pack`` (every built Model packs its params) sets ``offset``, the
    node's one identity: where its slice of the model's flat buffers
    starts. ``view`` reads that slice of any buffer laid out like the
    model's; ``value`` and ``grad`` become its views of the model's own,
    written in place, never rebound. A forward-only copy's nodes have no
    ``grad`` (None).
    """

    value: np.ndarray
    grad: np.ndarray | None
    offset: int | None = None

    def __post_init__(self):
        if self.grad is not None and self.grad.shape != self.value.shape:
            raise ValueError(f"grad shape {self.grad.shape} != value shape {self.value.shape}")

    @classmethod
    def create(cls, value):
        value = np.array(value, dtype=tensor.DTYPE)  # owned, so that ``pack`` may move it
        return cls(value, np.zeros_like(value))

    def view(self, flat):
        """This param's slice of ``flat``, a buffer laid out like its model's, in the param's shape."""
        return flat[self.offset : self.offset + self.value.size].reshape(self.value.shape)


def pack(params):
    """Two flat float64 buffers holding every param's value and every grad, in order.

    Each node gets its ``offset``, back to back in ``params`` order, and its
    ``value`` and ``grad`` are copied in and become its ``view``s of the
    buffers, so a pass over a buffer updates every param at once.
    ``Model`` packs its params once, when it is built.
    """
    size = sum(p.value.size for p in params)
    values, grads = np.empty(size, dtype=tensor.DTYPE), np.empty(size, dtype=tensor.DTYPE)
    offset = 0
    for p in params:
        p.offset, offset = offset, offset + p.value.size
        value, grad = p.view(values), p.view(grads)
        value[...], grad[...] = p.value, p.grad
        p.value, p.grad = value, grad
    return values, grads


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
    """Stride-1 valid cross-correlation with a [K,C,kH,kW] kernel and per-channel bias.

    The conv runs on row-flattened planes (see ``tensor``'s layout
    contract): its patches are ``tensor.wide_patches`` of x, and one GEMM
    per image writes Ho rows of W columns, of which the last W-Wo wrap
    around and are dropped. It works on blocks of consecutive images, each
    as large as fits in ``PATCH_BLOCK_BYTES`` (see ``_block_step``), so a
    block's patch copy and GEMMs stay in a core's L2 cache; every GEMM is
    the per-image product, so the block size moves no result bit. The
    train cache is x alone. The output is the GEMMs' buffer cropped to its
    first Wo columns per row, copied contiguous, with the bias added in
    place. A 1x1 conv has no wrap-around columns: its patches are x's own
    view, and its crop is the whole buffer, so nothing is copied.

    The backward writes ``dout`` at row pitch W into one zero buffer with a
    (k-1)*(W+1) margin in front, so its wrap-around columns stay zero; for
    k = 1 that buffer is ``dout`` itself. The input gradient is the
    buffer's correlation with the flipped, channel-swapped kernel, already
    in x's [N, C, H*W] layout. The kernel gradient takes one of two routes,
    by the layer's shape:

    - per tap, when k > 1, C > 1 and the wide row is at least
      ``TAP_SPAN_MIN`` long: tap (i, j) is one batched GEMM of the buffer
      against x's run at offset i*W+j, read in place, so x is never copied;
    - otherwise from each block's patches of x, copied again (short rows
      and single channels make GEMMs too thin to pay for skipping the copy;
      see ``TAP_SPAN_MIN`` for the measurements).

    Both sum the per-image products over the batch in image order, but
    OpenBLAS picks its kernel by GEMM shape and CPU, so the two routes agree
    to the last bit only at some shapes and on some CPUs. ``input_grad`` is False only for a
    model's first layer, whose input gradient nothing consumes; its
    backward then skips that work and returns None.
    """

    kind = "conv2d"

    def __init__(self, layer_id, in_channels, out_channels, kernel_size, rng):
        super().__init__(layer_id)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.fan_in = in_channels * kernel_size * kernel_size
        self.fan_out = out_channels * kernel_size * kernel_size
        self.input_grad = True
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.kernel = ParamNode.create(xavier_init(shape, self.fan_in, self.fan_out, rng))
        self.bias = ParamNode.create(np.zeros(out_channels))
        self.params = (self.kernel, self.bias)

    def _block_step(self, n, plane):
        """Images per block: the fewest blocks whose patches fit in PATCH_BLOCK_BYTES, balanced.

        An image's largest buffer is its forward patches (C rows per tap) or,
        when ``input_grad`` is set, the input gradient's (K rows per tap),
        each ``plane`` values long.
        """
        channels = max(self.in_channels, self.out_channels) if self.input_grad else self.in_channels
        rows = channels * self.kernel_size**2
        per_image = self.kernel.value.itemsize * rows * plane
        blocks = -(-n * per_image // PATCH_BLOCK_BYTES)
        return -(-n // blocks)

    def forward(self, x, mode):
        n, c, h, w = x.shape
        ks, k = self.kernel_size, self.out_channels
        ho, wo = h - ks + 1, w - ks + 1
        kmat = self.kernel.value.reshape(k, -1)
        span = (ho - 1) * w + wo
        xf = x.reshape(n, c, h * w)
        wide = np.empty((n, k, ho * w), dtype=kmat.dtype)
        step = self._block_step(n, h * w)
        for i in range(0, n, step):
            b = slice(i, i + step)
            np.matmul(kmat, tensor.wide_patches(xf[b], ks, w, span), out=wide[b, :, :span])
        y = np.ascontiguousarray(wide.reshape(n, k, ho, w)[..., :wo])  # a 1x1 conv's is wide itself
        y += self.bias.value[:, None, None]
        return y, x

    def backward(self, dout, x):
        n, k, ho, wo = dout.shape
        _, c, h, w = x.shape
        ks = self.kernel_size
        kernel = self.kernel.value
        self.bias.grad += dout.reshape(n, k, ho * wo).sum(axis=(0, 2))
        margin = (ks - 1) * (w + 1)
        span = (ho - 1) * w + wo
        if ks == 1:
            dz = np.ascontiguousarray(dout).reshape(n, k, h * w)
        else:
            dz = np.zeros((n, k, margin + h * w), dtype=tensor.DTYPE)
            dz[..., margin : margin + ho * w].reshape(n, k, ho, w)[..., :wo] = dout
        dwide = dz[..., margin : margin + span]  # dout at row pitch W, wrap-around columns zero
        flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        xf = x.reshape(n, c, h * w)
        dx = np.empty((n, c, h * w), dtype=tensor.DTYPE) if self.input_grad else None
        per_tap = ks > 1 and c > 1 and span >= TAP_SPAN_MIN
        if per_tap:
            taps = np.empty((ks * ks, n, k, c), dtype=tensor.DTYPE)  # per-tap, per-image kernel gradients
            for t in range(ks * ks):
                o = (t // ks) * w + t % ks
                np.matmul(dwide, xf[:, :, o : o + span].transpose(0, 2, 1), out=taps[t])
            self.kernel.grad += taps.sum(axis=1).transpose(1, 2, 0).reshape(kernel.shape)
        else:
            prods = np.empty((n, k, c * ks * ks), dtype=tensor.DTYPE)  # per-image kernel gradients
        step = self._block_step(n, h * w)
        for i in range(0, n, step):
            b = slice(i, i + step)
            if not per_tap:
                patches = tensor.wide_patches(xf[b], ks, w, span)
                np.matmul(dwide[b], patches.transpose(0, 2, 1), out=prods[b])
                del patches  # free this block's copy before the input gradient's
            if dx is not None:
                np.matmul(flipped, tensor.wide_patches(dz[b], ks, w, h * w), out=dx[b])
        if not per_tap:
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
    """Affine map x[N,D] @ W[D,U] + b[U], Xavier-initialized.

    An input of any shape [N,...] is read row by row, flat: D is the product
    of its trailing dims, and the input gradient comes back in x's shape.
    """

    kind = "dense"

    def __init__(self, layer_id, in_features, units, rng):
        super().__init__(layer_id)
        self.in_features = in_features
        self.units = units
        self.weight = ParamNode.create(xavier_init((in_features, units), in_features, units, rng))
        self.bias = ParamNode.create(np.zeros(units))
        self.params = (self.weight, self.bias)

    def forward(self, x, mode):
        return x.reshape(len(x), -1) @ self.weight.value + self.bias.value, x

    def backward(self, dout, x):
        self.weight.grad += x.reshape(len(x), -1).T @ dout
        self.bias.grad += dout.sum(axis=0)
        return (dout @ self.weight.value.T).reshape(x.shape)


class AvgPool2d(Layer):
    """Valid, stride-1 average pooling over window x window patches; window None pools all of HxW.

    Like a conv, a window over H x W gives H-window+1 x W-window+1. The
    forward sums a window separably on the flat batch, as long contiguous
    runs: ``window`` row shifts (offsets of W), then ``window`` column
    shifts (offsets of 1) into one buffer of x's size, whose first
    H-window+1 rows and W-window+1 columns (the window starts) are divided
    by window**2. Shifted runs also cross row and plane ends, but only into
    sums no window starts at, which are never read. So every output adds
    the terms of shifted row and then column slices in their order, bit
    for bit. The global window is ``mean``.

    Backward is the adjoint of that sum on row-flattened planes, the way
    ``Conv2d.backward`` builds its ``dz``: ``dout / window**2`` is written
    into the window starts of one zero buffer that holds every plane back
    to back behind a (window-1)*(W+1) margin. Then ``window`` column shifts
    (offsets of 1) and ``window`` row shifts (offsets of W) are summed, each
    one contiguous run over all planes. A shift past the start of a row or
    plane reads zeros: the margin, or the last columns and rows of the
    plane before, where no window starts. So the sums add the terms of a
    shifted scatter-add in its order (columns j, then rows i), plus zeros.
    The zeros move no bit, because the written values first get +0.0,
    which turns -0.0 into +0.0 as a scatter into a zero buffer does, and
    x + 0.0 is x for every other x.
    """

    kind = "avgpool"

    def __init__(self, layer_id, window):
        super().__init__(layer_id)
        self.window = window

    def forward(self, x, mode):
        if self.window is None:
            return x.mean(axis=(2, 3), keepdims=True), x.shape
        win = self.window
        _, _, h, w = x.shape
        ho, wo = h - win + 1, w - win + 1
        sums = x.reshape(-1)
        if win > 1:
            rows = _sum_runs(sums, range(0, win * w, w), sums.size - (win - 1) * w)
            sums = np.empty(x.size, dtype=x.dtype)
            _sum_runs(rows, range(win), rows.size - (win - 1), out=sums[: rows.size - (win - 1)])
        # the sums at the window starts; the rest, where no window starts, is never read
        return np.divide(sums.reshape(x.shape)[:, :, :ho, :wo], win * win), x.shape

    def backward(self, dout, cache):
        n, c, h, w = cache
        if self.window is None:
            return np.broadcast_to(dout / (h * w), cache)
        win = self.window
        ho, wo = dout.shape[2:]
        size = n * c * h * w
        margin = (win - 1) * (w + 1)
        dz = np.zeros(margin + size, dtype=tensor.DTYPE)
        starts = dz[margin:].reshape(cache)[:, :, :ho, :wo]
        np.add(dout / (win * win), 0.0, out=starts)
        if win == 1:
            return dz.reshape(cache)
        # column sums keep (win-1)*W zeros in front: the rows above the first plane
        drows = _sum_runs(dz, range(win - 1, -1, -1), (win - 1) * w + size)
        return _sum_runs(drows, range((win - 1) * w, -1, -w), size).reshape(cache)


def _sum_runs(buf, starts, length, out=None):
    """Sum of the runs ``buf[s : s + length]`` for s in ``starts`` (at least two), added in that order."""
    out = np.add(buf[starts[0] : starts[0] + length], buf[starts[1] : starts[1] + length], out=out)
    for s in starts[2:]:
        out += buf[s : s + length]
    return out


class BatchNorm2d(Layer):
    """Per-channel batch normalization over the (N, H, W) axes.

    Train mode normalizes with biased batch statistics and updates the
    running mean/var with momentum 0.9; eval mode uses the running stats.
    Each channel's statistics cover N*H*W values, so a batch of one image
    trains too.

    The train forward computes its statistics in one pass the way numpy's
    ``x.var`` does (the sum over (N, H, W) divided by m, then the sum of
    squared deviations divided by m) and reuses the centered input as
    xhat. The backward sums ``dout`` and ``dout * xhat`` once each, for
    both the parameter gradients and dx. These are the float operations of
    ``x.mean``, ``x.var`` and the two-pass formulas, on the same operands
    and in the same order, so no result bit moves.
    """

    kind = "batchnorm"

    def __init__(self, layer_id, channels):
        super().__init__(layer_id)
        self.channels = channels
        self.gamma = ParamNode.create(np.ones(channels))
        self.beta = ParamNode.create(np.zeros(channels))
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
    layer's cache (conv inputs, ReLU masks, ...) is dropped as soon as
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


def backward_sequence(layers, dout, caches):
    """Backpropagate dout through layers in reverse, given run_sequence's caches; returns the input gradient."""
    for layer, c in zip(reversed(layers), reversed(caches)):
        dout = layer.backward(dout, c)
    return dout


class Branches(Layer):
    """Parallel layer sequences over one input, concatenated channel-wise.

    Its branch layers hold its params (``Model`` walks the branches). In
    eval mode the branches keep no caches and the cache returned is None.
    """

    kind = "concat"

    def __init__(self, layer_id, branches):
        super().__init__(layer_id)
        self.branches = branches  # list of layer lists

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
        for seq, seq_cache, d in zip(self.branches, caches, np.split(dout, np.cumsum(widths)[:-1], axis=1)):
            d = backward_sequence(seq, d, seq_cache)
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
