"""A fixed reference kernel that measures the machine's current speed.

On a shared host the speed available to one process drifts by tens of
percent over minutes, so wall times taken minutes apart are not comparable.
The benchmark times this kernel between training runs and divides every
measured time by it. The kernel never calls the engine, so changes to the
engine do not move it: it mixes the same kinds of work as a training step
(strided patch copies, small matrix products, elementwise passes, a
scatter-add and many small interpreter-level calls) on a small input like
the crater workloads' and a larger one like the CIFAR workload's.

``REFERENCE_S`` is about what one ``kernel_s()`` call takes inside the
benchmark process on the machine the benchmark was written on (2-core
shared VM, Python 3.11, numpy 2.4 with scipy-openblas). A time at the
reference speed is a wall time scaled by the passes timed around it:
``wall_s * REFERENCE_S / mean(passes)``.
"""

import time

import numpy as np

REFERENCE_S = 0.014


class _ConvStep:
    """Forward and backward of one valid convolution through patch columns.

    Every array is allocated once, so the pass does not depend on how the
    allocator of the process happens to be tuned by earlier work.
    """

    def __init__(self, rng, x_shape, k_shape):
        n, c, h, w = x_shape
        k, _, kh, kw = k_shape
        ho, wo = h - kh + 1, w - kw + 1
        self.x = rng.standard_normal(x_shape)
        self.kmat = rng.standard_normal((k, c * kh * kw))
        self.cols6 = np.empty((n, c, kh, kw, ho, wo))
        self.cols = self.cols6.reshape(n, c * kh * kw, ho * wo).transpose(0, 2, 1)
        self.out = np.empty((n, ho * wo, k))
        self.mask = np.empty((n, ho * wo, k))
        self.grad_cols = np.empty((n, ho * wo, c * kh * kw))
        self.grad_patches = self.grad_cols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
        self.grad_x = np.empty(x_shape)
        self.window = [(i, j, np.s_[:, :, i : i + ho, j : j + wo]) for i in range(kh) for j in range(kw)]

    def __call__(self):
        for i, j, sl in self.window:
            self.cols6[:, :, i, j] = self.x[sl]
        np.matmul(self.cols, self.kmat.T, out=self.out)
        np.maximum(self.out, 0.0, out=self.out)
        np.greater(self.out, 0.0, out=self.mask)
        np.matmul(self.mask, self.kmat, out=self.grad_cols)
        self.grad_x.fill(0.0)
        for i, j, sl in self.window:
            self.grad_x[sl] += self.grad_patches[:, :, i, j]
        return float(self.grad_x.sum()) + float(self.out.mean())


_rng = np.random.default_rng(0)
# a crater-sized step (1x15x15 input, 4x4 kernels) and a CIFAR-sized one
_SMALL = _ConvStep(_rng, (16, 1, 15, 15), (4, 1, 4, 4))
_LARGE = _ConvStep(_rng, (16, 4, 32, 32), (4, 4, 3, 3))


def kernel_s():
    """Seconds one pass of the fixed reference kernel takes now."""
    start = time.perf_counter()
    for _ in range(12):
        _SMALL()
    for _ in range(2):
        _LARGE()
    return time.perf_counter() - start
