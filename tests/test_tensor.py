"""Tensor kernels and the conv forward pass vs naive loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layer_oracles
from randomout import tensor
from randomout.layers import Conv2d


def naive_conv2d(x, kernel, bias):
    n, c, h, w = x.shape
    k, _, kh, kw = kernel.shape
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((n, k, ho, wo))
    for ni in range(n):
        for ki in range(k):
            for oi in range(ho):
                for oj in range(wo):
                    acc = bias[ki]
                    for ci in range(c):
                        for ii in range(kh):
                            for jj in range(kw):
                                acc += x[ni, ci, oi + ii, oj + jj] * kernel[ki, ci, ii, jj]
                    out[ni, ki, oi, oj] = acc
    return out


def conv_forward(x, kernel, bias):
    """Conv2d.forward with a square kernel and the bias set by hand."""
    k, c, ks, _ = kernel.shape
    conv = Conv2d(0, c, k, ks, np.random.default_rng(0))
    conv.kernel.value[...] = kernel
    conv.bias.value[...] = bias
    return conv.forward(x, "train")[0]


def test_conv2d_matches_six_loop_oracle():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(2, 3, 8, 9))
    kernel = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    got = conv_forward(x, kernel, bias)
    np.testing.assert_allclose(got, naive_conv2d(x, kernel, bias), rtol=1e-12, atol=1e-12)


def test_conv2d_single_pixel_identity():
    # 1x1 input and kernel: conv is just a weighted channel sum plus bias
    x = np.array([[[[2.0]], [[3.0]]]])
    kernel = np.array([[[[5.0]], [[7.0]]]])
    out = conv_forward(x, kernel, np.array([1.0]))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 2.0 * 5.0 + 3.0 * 7.0 + 1.0


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(3, 12),
    w=st.integers(3, 12),
    ks=st.integers(1, 3),
    n=st.integers(1, 3),
    c=st.integers(1, 3),
)
def test_conv2d_shape_property(h, w, ks, n, c):
    rng = np.random.default_rng(h * 100 + w)
    x = rng.normal(size=(n, c, h, w))
    kernel = rng.normal(size=(2, c, ks, ks))
    out = conv_forward(x, kernel, np.zeros(2))
    assert out.shape == (n, 2, h - ks + 1, w - ks + 1)


def test_conv2d_is_linear_in_input():
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=(1, 2, 6, 6))
    x2 = rng.normal(size=(1, 2, 6, 6))
    kernel = rng.normal(size=(3, 2, 3, 3))
    bias = np.zeros(3)
    lhs = conv_forward(2.0 * x1 - 0.5 * x2, kernel, bias)
    rhs = 2.0 * conv_forward(x1, kernel, bias) - 0.5 * conv_forward(x2, kernel, bias)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_im2col_patch_layout():
    # one 2x2 patch: order must be (channel, row, col)
    x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
    cols = tensor.im2col(x, 2, 2, 1)
    assert cols.shape == (1, 1, 8)
    np.testing.assert_array_equal(cols[0, 0], np.arange(8))


@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_is_view_of_contiguous_patch_buffer(stride):
    # the 1x1 conv test's im2col-route GEMM runs on this buffer, not on a strided copy
    x = np.random.default_rng(19).normal(size=(2, 3, 7, 6))
    assert tensor.im2col(x, 3, 2, stride).transpose(0, 2, 1).flags.c_contiguous


@pytest.mark.parametrize("shape,k", [((2, 3, 8, 7), 3), ((3, 1, 15, 15), 4), ((2, 2, 6, 11), 4), ((2, 3, 5, 4), 1)])
def test_wide_patches_hold_im2col_patches_at_every_output(shape, k):
    n, c, h, w = shape
    x = np.random.default_rng(21).normal(size=shape)
    ho, wo = h - k + 1, w - k + 1
    wide = tensor.wide_patches(x.reshape(n, c, h * w), k, w, (ho - 1) * w + wo)
    assert wide.shape == (n, c * k * k, (ho - 1) * w + wo)
    assert wide.flags.c_contiguous
    patches = tensor.im2col(x, k, k, 1)  # [N, Ho*Wo, C*k*k]
    for oi in range(ho):
        for oj in range(wo):
            assert wide[:, :, oi * w + oj].tobytes() == patches[:, oi * wo + oj].tobytes()


def test_wide_patches_k1_is_the_input_and_overruns_raise():
    xf = np.random.default_rng(22).normal(size=(2, 3, 20))
    assert tensor.wide_patches(xf, 1, 5, 20) is xf
    assert tensor.wide_patches(xf, 2, 5, 14).shape == (2, 12, 14)
    with pytest.raises(ValueError, match="overrun"):
        tensor.wide_patches(xf, 2, 5, 15)


@pytest.mark.parametrize("shape,k", [((2, 3, 9, 7), 3), ((2, 2, 11, 5), 4), ((3, 1, 15, 15), 2), ((2, 4, 5, 9), 1)])
def test_wide_patches_are_bitwise_the_as_strided_copy(shape, k):
    n, c, h, w = shape
    xf = (np.random.default_rng(23).normal(size=shape) + 1e3).reshape(n, c, h * w)
    span = (h - k) * w + w - k + 1
    for block in (xf, xf[1:], xf[:1]):
        got, want = tensor.wide_patches(block, k, w, span), layer_oracles.wide_patches(block, k, w, span)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_wide_patches_reject_a_non_contiguous_input():
    xf = np.random.default_rng(24).normal(size=(2, 6, 20))
    for bad in (xf[:, ::2], xf[:, :, :16], np.asfortranarray(xf)):
        with pytest.raises(ValueError, match="C-contiguous"):
            tensor.wide_patches(bad, 2, 4, 11)


def test_col2im_is_im2col_adjoint():
    # <im2col(x), c> == <x, col2im(c)> for random x, c
    rng = np.random.default_rng(17)
    for stride in (1, 2):
        x = rng.normal(size=(2, 3, 7, 6))
        cols_shape = tensor.im2col(x, 3, 2, stride).shape
        assert cols_shape == (2, ((7 - 3) // stride + 1) * ((6 - 2) // stride + 1), 3 * 3 * 2)
        c = rng.normal(size=cols_shape)
        lhs = float(np.sum(tensor.im2col(x, 3, 2, stride) * c))
        rhs = float(np.sum(x * tensor.col2im(c, x.shape, 3, 2, stride)))
        assert abs(lhs - rhs) < 1e-9


def test_im2col_col2im_counts_overlaps():
    # all-ones columns scatter to per-pixel patch counts
    x_shape = (1, 1, 4, 4)
    cols = np.ones((1, 9, 4))
    back = tensor.col2im(cols, x_shape, 2, 2, 1)
    # interior pixels belong to 4 patches, corners to 1, edges to 2
    expected = np.array(
        [
            [1, 2, 2, 1],
            [2, 4, 4, 2],
            [2, 4, 4, 2],
            [1, 2, 2, 1],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(back[0, 0], expected)


def test_zeros_and_shape_helpers():
    assert tensor.check_shape([2, np.int64(3)]) == (2, 3)
    with pytest.raises(ValueError):
        tensor.check_shape(())
    with pytest.raises(ValueError):
        tensor.check_shape((2, 0))
    with pytest.raises(ValueError):
        tensor.check_shape((2.5,))


def test_conv2d_dtype_is_float64():
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = conv_forward(x, np.ones((1, 1, 2, 2), dtype=np.float32), np.zeros(1, dtype=np.float32))
    assert out.dtype == np.float64
