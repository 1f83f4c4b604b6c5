"""Dense array kernels: shape checks and the conv patch layouts.

All functions are pure (inputs are never mutated) and operate on row-major
numpy arrays. Training, gradients and every recorded value stay float64:
the gradient checks resolve 1e-4 relative error, which float32 cannot.
Only ``experiments.evaluate``'s forward may run in float32, and it keeps a
float32 prediction only where its guard (``EVAL_GUARD``) finds the top two
logits far enough apart; ``wide_patches`` copies in its input's dtype.

Window convention: cross-correlation (no kernel flip), valid padding
only (no zero padding), stride 1, output size H - kH + 1. The conv and
pool layers in layers.py rely on exactly this convention. Only the test
oracles ``im2col`` and ``col2im`` take a stride, with output size
(H - kH)//stride + 1.

Layout contract. Every conv works on row-flattened planes
``xf = x.reshape(N, C, H*W)``: the patch row for kernel tap (c, i, j) is the
contiguous run ``xf[:, c, i*W+j : i*W+j+L]``, one "wide row" that steps over
all Ho output rows at pitch W, ``L = (Ho-1)*W + Wo`` long. ``wide_patches``
copies those runs into a C-contiguous ``[N, C*k*k, L]`` buffer (for k = 1
the buffer is ``xf`` itself). It reads them through one 5-D view made with
the ``np.ndarray`` constructor on xf's buffer, so xf must be C-contiguous;
``x.reshape`` of a C-contiguous x, and any slice of its first axis, is. A
GEMM on the buffer yields Ho rows of W columns whose
last W-Wo columns wrap around into the next row and are dropped. The
patches of images b are ``wide_patches(xf[b], ...)``, the rows b of the
whole batch's buffer, so a caller may copy them one block of images at a
time (``layers.Conv2d`` does, to bound its buffers).
``im2col`` returns ``[N, Ho*Wo, C*kh*kw]`` as the transposed view of a
C-contiguous ``[N, C*kh*kw, Ho*Wo]`` buffer; it and its adjoint ``col2im``
have no runtime caller (see ``im2col``).
"""

import numpy as np

DTYPE = np.float64


def check_shape(dims):
    """Validate that dims is a sequence of positive integers."""
    dims = tuple(dims)
    if len(dims) == 0:
        raise ValueError("shape must have at least one dim")
    for d in dims:
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"invalid shape {dims}: every dim must be a positive int")
    return dims


def wide_patches(xf, k, pitch, length):
    """Copy the k*k shifted runs of each plane of xf[N, C, S] into [N, C*k*k, length].

    Row (c, i, j) is ``xf[:, c, i*pitch+j : i*pitch+j+length]``. A run that
    would end past its plane (``(k-1)*(pitch+1) + length > S``) raises
    ValueError, and so does an xf that is not C-contiguous: the runs are
    read through a view built on xf's buffer. With k = 1 and length = S the
    only run is the plane itself, and xf is returned without a copy.
    """
    n, c, size = xf.shape
    if (k - 1) * (pitch + 1) + length > size:
        raise ValueError(f"runs of length {length} at pitch {pitch} overrun planes of size {size}")
    if k == 1 and length == size:
        return xf
    if not xf.flags.c_contiguous:
        raise ValueError("wide_patches needs a C-contiguous xf")
    s = xf.itemsize
    runs = np.ndarray((n, c, k, k, length), xf.dtype, xf, 0, (c * size * s, size * s, pitch * s, s, s))
    return np.ascontiguousarray(runs).reshape(n, c * k * k, length)


def im2col(x, kh, kw, stride):
    """Unfold x[N,C,H,W] into patch columns [N, Ho*Wo, C*kh*kw].

    Column order within a patch is (channel, row, col), matching a
    row-major reshape of a [C,kh,kw] kernel slab. No conv calls this or
    ``col2im``: tests use them as oracles, and the benchmark's span tracer
    wraps them by name, so moving them into ``tests/`` is a benchmark
    change (ROADMAP open item 2).
    """
    n, c, h, w = x.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo).transpose(0, 2, 1)


def col2im(cols, x_shape, kh, kw, stride):
    """Scatter-add patch columns back to an input-shaped array (im2col adjoint; a test oracle, see im2col)."""
    n, c, h, w = x_shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = cols.transpose(0, 2, 1).reshape(n, c, kh, kw, ho, wo)
    x = np.zeros(x_shape, dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols[:, :, i, j]
    return x
