"""Layer semantics: oracles for forward values and gradient behavior."""

import numpy as np
import pytest

import layer_oracles
from layer_oracles import avgpool_scatter, relu_forward
from randomout import layers
from randomout.layers import (
    BN_EPS,
    BN_MOMENTUM,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    ParamNode,
    ReLU,
    SoftmaxCrossEntropy,
    backward_sequence,
)
from randomout.models import build_cratercnn
from randomout.rng import derive_stream


def make_alloc():
    counter = iter(range(10_000))
    return lambda: next(counter)


def test_param_node_validation():
    node = ParamNode.create(1, np.ones((2, 2)))
    assert node.grad.shape == (2, 2) and not node.grad.any()
    with pytest.raises(ValueError, match="grad shape"):
        ParamNode(2, np.ones(3), np.zeros(4))


def test_relu_forward_and_zero_convention():
    relu = ReLU(0)
    x = np.array([[-1.0, 0.0, 2.0]])
    y, cache = relu.forward(x, "train")
    np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])
    # relu'(0) = 0: gradient at exactly zero input is exactly zero
    dx = relu.backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])


RELU_SPECIAL = {
    "nan": np.nan,
    "-nan": -np.nan,
    "0": 0.0,
    "-0": -0.0,
    "inf": np.inf,
    "-inf": -np.inf,
    "subnormal": 5e-324,
    "-subnormal": -5e-324,
    "1": 1.0,
    "-1": -1.0,
}
# numpy's fmax gives -0.0 for fmax(-0.0, 0.0) in its scalar loop but +0.0 in its
# SIMD loop, so every special value is also passed alone, as a 1-element array
RELU_CASES = {
    "special": np.array(list(RELU_SPECIAL.values())),
    **{f"alone({name})": np.array([v]) for name, v in RELU_SPECIAL.items()},
    "random": np.random.default_rng(4).normal(size=(16, 4, 30, 30)),
}


@pytest.mark.parametrize("case", list(RELU_CASES))
def test_relu_forward_is_bitwise_the_select(case):
    # fmax drops a NaN to 0.0 and the added 0.0 makes fmax's possible -0.0 a +0.0
    x = RELU_CASES[case]
    relu = ReLU(0)
    y, mask = relu.forward(x, "train")
    expected, expected_mask = relu_forward(relu, x, "train")
    np.testing.assert_array_equal(y.view(np.int64), expected.view(np.int64))
    assert mask.dtype == bool and np.array_equal(mask, expected_mask)
    y_eval, cache = relu.forward(x, "eval")
    assert cache is None
    assert y_eval.tobytes() == y.tobytes()


def test_relu_dead_input_routes_exact_zero_gradient():
    relu = ReLU(0)
    x = -np.abs(np.random.default_rng(3).normal(size=(4, 5)))
    _, cache = relu.forward(x, "train")
    dx = relu.backward(np.ones((4, 5)), cache)
    assert not dx.any()


def test_dense_forward_matches_manual_affine():
    rng = derive_stream(7, "init")
    dense = Dense(0, 3, 2, rng, make_alloc())
    x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    y, _ = dense.forward(x, "train")
    np.testing.assert_allclose(y, x @ dense.weight.value + dense.bias.value, rtol=1e-15)


def test_dense_backward_accumulates_gradients():
    rng = derive_stream(8, "init")
    dense = Dense(0, 2, 2, rng, make_alloc())
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    _, cache = dense.forward(x, "train")
    dout = np.array([[1.0, 0.0], [0.0, 1.0]])
    dx = dense.backward(dout, cache)
    np.testing.assert_allclose(dense.weight.grad, x.T @ dout)
    np.testing.assert_allclose(dense.bias.grad, dout.sum(axis=0))
    np.testing.assert_allclose(dx, dout @ dense.weight.value.T)
    # += semantics: a second backward doubles the accumulators
    dense.backward(dout, cache)
    np.testing.assert_allclose(dense.weight.grad, 2 * (x.T @ dout))


def test_conv2d_bias_gradient_is_spatial_sum():
    rng = derive_stream(9, "init")
    conv = Conv2d(0, 1, 2, 2, rng, make_alloc())
    x = np.random.default_rng(0).normal(size=(3, 1, 4, 4))
    _, cache = conv.forward(x, "train")
    dout = np.random.default_rng(1).normal(size=(3, 2, 3, 3))
    conv.backward(dout, cache)
    np.testing.assert_allclose(conv.bias.grad, dout.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_conv2d_kernel_gradient_matches_loop_oracle():
    rng = derive_stream(10, "init")
    conv = Conv2d(0, 2, 2, 2, rng, make_alloc())
    x = np.random.default_rng(2).normal(size=(2, 2, 4, 4))
    _, cache = conv.forward(x, "train")
    dout = np.random.default_rng(3).normal(size=(2, 2, 3, 3))
    conv.backward(dout, cache)
    expected = np.zeros_like(conv.kernel.value)
    k, c, kh, kw = expected.shape
    for ni in range(x.shape[0]):
        for ki in range(k):
            for ci in range(c):
                for ii in range(kh):
                    for jj in range(kw):
                        for oi in range(dout.shape[2]):
                            for oj in range(dout.shape[3]):
                                expected[ki, ci, ii, jj] += dout[ni, ki, oi, oj] * x[ni, ci, oi + ii, oj + jj]
    np.testing.assert_allclose(conv.kernel.grad, expected, rtol=1e-10, atol=1e-12)


def loop_conv_grads(x, kernel, dout):
    """Kernel, bias and input gradients of a valid stride-1 cross-correlation, one product at a time."""
    dkernel, dx = np.zeros_like(kernel), np.zeros_like(x)
    k, c, kh, kw = kernel.shape
    for ni in range(x.shape[0]):
        for ki in range(k):
            for oi in range(dout.shape[2]):
                for oj in range(dout.shape[3]):
                    g = dout[ni, ki, oi, oj]
                    for ci in range(c):
                        for ii in range(kh):
                            for jj in range(kw):
                                dkernel[ki, ci, ii, jj] += g * x[ni, ci, oi + ii, oj + jj]
                                dx[ni, ci, oi + ii, oj + jj] += g * kernel[ki, ci, ii, jj]
    return dkernel, dout.sum(axis=(0, 2, 3)), dx


@pytest.mark.parametrize(
    "in_ch,out_ch,ks,hw,n",
    [
        # id "1" is the original case
        pytest.param(2, 3, 3, (8, 7), 2, id="1"),
        pytest.param(5, 3, 1, (6, 5), 2, id="1x1-c5-to-3"),
        pytest.param(3, 5, 1, (6, 6), 2, id="1x1-c3-to-5"),
        pytest.param(3, 2, 4, (9, 9), 2, id="4x4-c3-to-2"),
        pytest.param(2, 6, 4, (7, 10), 2, id="4x4-c2-to-6-nonsquare"),
        pytest.param(6, 2, 3, (5, 9), 2, id="3x3-c6-to-2-nonsquare"),
        # the workload shapes, where every output row wraps into the next
        pytest.param(1, 3, 4, (15, 15), 3, id="crater-conv1-15x15-k4"),
        pytest.param(3, 3, 4, (12, 12), 2, id="crater-conv2-12x12-k4"),
        pytest.param(2, 2, 3, (32, 32), 2, id="inception-stem-32x32-k3"),
        # per-tap kernel gradient where its bits differ from the patch route's: the width-2 stem
        pytest.param(3, 2, 3, (32, 32), 2, id="inception-w2-stem-32x32-k3"),
        pytest.param(2, 3, 3, (11, 6), 3, id="3x3-tall-w-lt-h"),
        pytest.param(2, 2, 4, (6, 13), 3, id="4x4-wide-w-gt-h"),
        pytest.param(3, 2, 1, (7, 4), 3, id="1x1-tall-w-lt-h"),
    ],
)
def test_conv2d_input_gradient_matches_loop_oracle(in_ch, out_ch, ks, hw, n):
    conv = Conv2d(0, in_ch, out_ch, ks, derive_stream(11, "init"), make_alloc())
    x = np.random.default_rng(4).normal(size=(n, in_ch, *hw))
    y, cache = conv.forward(x, "train")
    dout = np.random.default_rng(5).normal(size=y.shape)
    dx = conv.backward(dout, cache)
    dkernel, dbias, expected = loop_conv_grads(x, conv.kernel.value, dout)
    np.testing.assert_allclose(dx, expected, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(conv.kernel.grad, dkernel, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(conv.bias.grad, dbias, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("ks", [1, 3, 4])
def test_conv2d_stride_1_backward_never_scatters(monkeypatch, ks):
    # no conv unfolds or scatters: forward and backward run on wide rows
    def forbidden(*args):
        raise AssertionError("conv called im2col or col2im")

    monkeypatch.setattr(layers.tensor, "im2col", forbidden)
    monkeypatch.setattr(layers.tensor, "col2im", forbidden)
    conv = Conv2d(0, 3, 4, ks, derive_stream(13, "init"), make_alloc())
    # one block of 2 images, then 5 images in blocks of one
    for n, budget in ((2, layers.PATCH_BLOCK_BYTES), (5, 1)):
        monkeypatch.setattr(layers, "PATCH_BLOCK_BYTES", budget)
        x = np.random.default_rng(7).normal(size=(n, 3, 8, 11))
        y, cache = conv.forward(x, "train")
        assert y.flags.c_contiguous
        conv.input_grad = True
        assert conv.backward(np.ones_like(y), cache).shape == x.shape
        conv.input_grad = False
        assert conv.backward(np.ones_like(y), cache) is None


# mini_inception's 3x3 convs at widths 4 and 8, batch 16: (in, out, H=W, input_grad)
PER_TAP_SHAPES = [(3, 4, 32, False), (4, 4, 30, True), (8, 4, 28, True), (3, 8, 32, False), (8, 8, 30, True), (16, 8, 28, True)]


@pytest.mark.parametrize("in_ch,out_ch,hw,input_grad", PER_TAP_SHAPES)
def test_conv2d_per_tap_kernel_gradient_matches_the_patch_route(in_ch, out_ch, hw, input_grad):
    # dx and dbias run the same code on both routes, so they keep their bytes.
    # The kernel gradient's GEMMs change shape, and OpenBLAS picks its kernel
    # by shape and CPU: bits held on some kernels (SkylakeX, Haswell) and not
    # on others (Nehalem), so it is checked to a tolerance.
    conv = Conv2d(0, in_ch, out_ch, 3, derive_stream(16, "init"), make_alloc())
    conv.input_grad = input_grad
    rng = np.random.default_rng(13)
    x = rng.normal(size=(16, in_ch, hw, hw))
    dout = rng.normal(size=(16, out_ch, hw - 2, hw - 2))
    assert (hw - 3) * hw + hw - 2 >= layers.TAP_SPAN_MIN
    got = [conv.backward(dout, x), conv.kernel.grad.copy(), conv.bias.grad.copy()]
    assert (got[0] is None) != input_grad
    conv.kernel.grad[...] = 0
    conv.bias.grad[...] = 0
    expected = [layer_oracles.conv_backward(conv, dout, x), conv.kernel.grad, conv.bias.grad]
    for name, a, b in zip(("dx", "dbias"), got[::2], expected[::2]):
        assert a is b is None or a.tobytes() == b.tobytes(), name
    np.testing.assert_allclose(got[1], expected[1], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "in_ch,out_ch,ks,hw,copies_x",
    [(3, 4, 3, 32, False), (8, 4, 3, 28, False), (1, 4, 4, 15, True), (4, 4, 4, 12, True), (1, 4, 4, 28, True)],
    ids=["inception-stem", "inception-block2", "crater-conv1", "crater-conv2", "one-channel-span-697"],
)
def test_conv2d_per_tap_backward_copies_no_patches_of_x(monkeypatch, in_ch, out_ch, ks, hw, copies_x):
    conv = Conv2d(0, in_ch, out_ch, ks, derive_stream(17, "init"), make_alloc())
    x = np.random.default_rng(14).normal(size=(16, in_ch, hw, hw))
    y, cache = conv.forward(x, "train")
    copied = []
    copy = layers.tensor.wide_patches
    monkeypatch.setattr(layers.tensor, "wide_patches", lambda xf, *a: copied.append(xf) or copy(xf, *a))
    for input_grad in (False, True):
        conv.input_grad = input_grad
        copied.clear()
        conv.backward(np.ones_like(y), cache)
        of_x = sum(np.shares_memory(xf, x) for xf in copied)
        assert (of_x > 0) == copies_x
        assert (len(copied) > of_x) == input_grad  # the input gradient's patches of dz


# every conv shape of the benchmark workloads at batch 16 (cratercnn w4 and w8,
# mini_inception w4's 3x3 and 1x1 convs), and a non-square input
FORWARD_SHAPES = {
    "crater-w4-conv1": (1, 4, 4, (15, 15)),
    "crater-w4-conv2": (4, 4, 4, (12, 12)),
    "crater-w8-conv1": (1, 8, 4, (15, 15)),
    "crater-w8-conv2": (8, 8, 4, (12, 12)),
    "inception-stem": (3, 4, 3, (32, 32)),
    "inception-3x3-a": (4, 4, 3, (30, 30)),
    "inception-3x3-b": (8, 4, 3, (28, 28)),
    "inception-1x1-a": (4, 4, 1, (30, 30)),
    "inception-1x1-b": (8, 4, 1, (28, 28)),
    "3x3-nonsquare": (3, 5, 3, (9, 13)),
}


@pytest.mark.parametrize("in_ch,out_ch,ks,hw", FORWARD_SHAPES.values(), ids=FORWARD_SHAPES.keys())
def test_conv2d_forward_is_bitwise_the_broadcast_bias_epilogue(in_ch, out_ch, ks, hw):
    conv = Conv2d(0, in_ch, out_ch, ks, derive_stream(16, "init"), make_alloc())
    conv.bias.value[:] = np.random.default_rng(3).normal(size=out_ch)
    x = np.random.default_rng(4).normal(size=(16, in_ch, *hw))
    y, cache = conv.forward(x, "train")
    expected, _ = layer_oracles.conv_forward(conv, x, "train")
    assert cache is x and y.flags.c_contiguous
    assert y.shape == expected.shape and y.tobytes() == expected.tobytes()


def conv_pass(conv, x, dout):
    """y, dx, kernel and bias gradients, then the kernel gradient of an input_grad=False backward."""
    conv.kernel.grad[...] = 0
    conv.bias.grad[...] = 0
    conv.input_grad = True
    y, cache = conv.forward(x, "train")
    dx = conv.backward(dout, cache)
    grads = (conv.kernel.grad.copy(), conv.bias.grad.copy())
    conv.kernel.grad[...] = 0
    conv.input_grad = False
    assert conv.backward(dout, cache) is None
    return (y, dx, *grads, conv.kernel.grad.copy()), cache


@pytest.mark.parametrize("split,step", [("one-image", 1), ("uneven", 3)])
@pytest.mark.parametrize(
    "in_ch,out_ch,ks,hw",
    [(3, 4, 3, (8, 11)), (5, 3, 1, (6, 5)), (1, 4, 4, (15, 15))],
    ids=["3x3-nonsquare", "1x1", "crater-conv1"],
)
def test_conv2d_blocks_are_bitwise_one_block(monkeypatch, split, step, in_ch, out_ch, ks, hw):
    conv = Conv2d(0, in_ch, out_ch, ks, derive_stream(15, "init"), make_alloc())
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, in_ch, *hw))
    dout = rng.normal(size=(16, out_ch, hw[0] - ks + 1, hw[1] - ks + 1))
    monkeypatch.setattr(layers, "PATCH_BLOCK_BYTES", 1 << 40)
    whole, cache = conv_pass(conv, x, dout)
    # no block count caches patches: the train cache is x, and the backward copies patches again
    assert cache is x
    # a budget of 1 byte leaves one image per block; 3 images' bytes split 16 as 3+3+3+3+3+1.
    # conv_pass leaves input_grad False, so an image's bytes are its C forward patch rows per tap.
    per_image = 8 * in_ch * ks * ks * hw[0] * hw[1]
    monkeypatch.setattr(layers, "PATCH_BLOCK_BYTES", 1 if split == "one-image" else 3 * per_image)
    assert not conv.input_grad and conv._block_step(16, hw[0] * hw[1]) == step
    blocked, cache = conv_pass(conv, x, dout)
    assert cache is x
    for name, a, b in zip(("y", "dx", "dkernel", "dbias", "dkernel-no-input-grad"), whole, blocked):
        assert a.tobytes() == b.tobytes(), name
    dkernel, dbias, dx = loop_conv_grads(x, conv.kernel.value, dout)
    _, got_dx, got_dkernel, got_dbias, got_dkernel_only = blocked
    np.testing.assert_allclose(got_dx, dx, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_dkernel, dkernel, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_dkernel_only, dkernel, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(got_dbias, dbias, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "in_ch,out_ch,ks,hw,blocks",
    [(1, 4, 4, 15, (1, 2)), (1, 8, 4, 15, (1, 4)), (3, 4, 3, 32, (4, 4))],
    ids=["cratercnn-w4", "cratercnn-w8", "mini_inception-stem"],
)
def test_conv2d_block_step_counts_input_gradient_rows_only_when_needed(in_ch, out_ch, ks, hw, blocks):
    # a first conv (input_grad False) never allocates the K-row input-gradient patches
    conv = Conv2d(0, in_ch, out_ch, ks, derive_stream(15, "init"), make_alloc())
    for input_grad, expected in zip((False, True), blocks):
        conv.input_grad = input_grad
        assert -(-16 // conv._block_step(16, hw * hw)) == expected


# the two 1x1 conv inputs of mini_inception width 4 at batch 16
@pytest.mark.parametrize("shape", [(16, 4, 30, 30), (16, 8, 28, 28)], ids=["block1", "block2"])
def test_conv2d_1x1_forward_is_bitwise_the_im2col_route(shape):
    conv = Conv2d(0, shape[1], 4, 1, derive_stream(14, "init"), make_alloc())
    x = np.random.default_rng(8).normal(size=shape)
    y, cache = conv.forward(x, "train")
    assert cache is x
    patches = layers.tensor.im2col(x, 1, 1, 1).transpose(0, 2, 1)
    expected = conv.kernel.value.reshape(4, -1) @ patches + conv.bias.value[:, None]
    assert y.tobytes() == expected.reshape(y.shape).tobytes()


@pytest.mark.parametrize("shape", [(16, 4, 30, 30), (16, 8, 28, 28)], ids=["block1", "block2"])
@pytest.mark.parametrize("split", [False, True], ids=["contiguous", "split-view"])
def test_conv2d_1x1_backward_is_bitwise_the_zero_buffer_route(shape, split):
    conv = Conv2d(0, shape[1], 4, 1, derive_stream(14, "init"), make_alloc())
    rng = np.random.default_rng(9)
    x = rng.normal(size=shape)
    y, cache = conv.forward(x, "train")
    d = rng.normal(size=(16, 8, *y.shape[2:]))
    # Branches.backward hands each branch an np.split view of its gradient
    dout = np.split(d, 2, axis=1)[1] if split else d[:, 4:].copy()
    assert dout.flags.c_contiguous != split
    got = [conv.backward(dout, cache), conv.kernel.grad.copy(), conv.bias.grad.copy()]
    conv.kernel.grad[...] = 0
    conv.bias.grad[...] = 0
    expected = [layer_oracles.conv_backward(conv, dout, cache), conv.kernel.grad, conv.bias.grad]
    for name, a, b in zip(("dx", "dkernel", "dbias"), got, expected):
        assert a.tobytes() == b.tobytes(), name


def test_model_first_conv_gradients_without_input_gradient():
    model = build_cratercnn(3, derive_stream(12, "init"))
    first = model.layers[0]
    x = np.random.default_rng(6).uniform(size=(2, 1, 15, 15))
    logits, (_, caches) = model.forward(x)
    dlogits = np.random.default_rng(7).normal(size=logits.shape)
    # the gradient that reaches the first conv's output, from the layers above it
    d = dlogits
    for layer, c in zip(reversed(model.layers[1:]), reversed(caches[1:])):
        d = layer.backward(d, c)
    model.zero_grads()
    assert backward_sequence(model.layers, dlogits, caches) is None
    dkernel, dbias, _ = loop_conv_grads(x, first.kernel.value, d)
    np.testing.assert_allclose(first.kernel.grad, dkernel, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(first.bias.grad, dbias, rtol=1e-10, atol=1e-12)


def loop_avgpool(x, window):
    """Forward values and backward map of average pooling, one window at a time."""
    n, c, h, w = x.shape
    wh, ww = (h, w) if window is None else (window, window)
    ho, wo = h - wh + 1, w - ww + 1
    out = np.zeros((n, c, ho, wo))
    for oi in range(ho):
        for oj in range(wo):
            out[:, :, oi, oj] = x[:, :, oi : oi + wh, oj : oj + ww].mean(axis=(2, 3))

    def backward(dout):
        dx = np.zeros_like(x)
        for oi in range(ho):
            for oj in range(wo):
                dx[:, :, oi : oi + wh, oj : oj + ww] += dout[:, :, oi, oj, None, None] / (wh * ww)
        return dx

    return out, backward


def pool_cases(cases):
    """Params from (index, window, input shape), with ids ``<window>-1-shape<index>`` (1 being the stride) so a case keeps its name."""
    return [pytest.param(window, shape, id=f"{window}-1-shape{i}") for i, window, shape in cases]


POOL_CASES = [(0, 3, (2, 3, 7, 7)), (2, None, (2, 3, 7, 5)), (3, 1, (2, 3, 7, 7)), (4, 2, (2, 3, 7, 7))]
INCEPTION_POOL_INPUTS = [(5, 3, (16, 4, 30, 30)), (6, 3, (16, 4, 28, 28))]  # mini_inception width 4, batch 16


@pytest.mark.parametrize("window,shape", pool_cases(POOL_CASES))
def test_avgpool_matches_loop_oracle(window, shape):
    pool = AvgPool2d(0, window)
    x = np.random.default_rng(8).normal(size=shape)
    y, cache = pool.forward(x, "train")
    expected, oracle_backward = loop_avgpool(x, window)
    np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-15)
    dout = np.random.default_rng(9).normal(size=y.shape)
    np.testing.assert_allclose(pool.backward(dout, cache), oracle_backward(dout), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("window,shape", pool_cases(POOL_CASES))
def test_avgpool_backward_is_forward_adjoint(window, shape):
    # <pool(x), g> == <x, pool_backward(g)>
    pool = AvgPool2d(0, window)
    rng = np.random.default_rng(10)
    x = rng.normal(size=shape)
    y, cache = pool.forward(x, "train")
    g = rng.normal(size=y.shape)
    assert abs(np.sum(y * g) - np.sum(x * pool.backward(g, cache))) < 1e-12


@pytest.mark.parametrize(
    "window,shape",
    pool_cases(
        # window 1 has no margin and no shift
        [(0, 1, (2, 3, 7, 7)), (1, 2, (2, 3, 7, 7)), (2, 3, (2, 3, 7, 7)), (3, 5, (2, 3, 9, 8))]
        + INCEPTION_POOL_INPUTS
    ),
)
def test_avgpool_backward_is_bitwise_the_scatter(window, shape):
    pool = AvgPool2d(0, window)
    rng = np.random.default_rng(12)
    _, cache = pool.forward(rng.normal(size=shape), "train")
    ho, wo = shape[2] - window + 1, shape[3] - window + 1
    # a ReLU's backward leaves -0.0 where a negative gradient meets a dead unit; one plane is all -0.0
    dout = rng.normal(size=(*shape[:2], ho, wo)) * (rng.normal(size=(*shape[:2], ho, wo)) > 0)
    dout[0, 0] = -0.0
    dx = pool.backward(dout, cache)
    assert dx.shape == shape and dx.tobytes() == avgpool_scatter(dout, shape, window).tobytes()


@pytest.mark.parametrize("window,shape", pool_cases(POOL_CASES + INCEPTION_POOL_INPUTS))
def test_avgpool_forward_is_bitwise_the_strided_sums(window, shape):
    pool = AvgPool2d(0, window)
    x = np.random.default_rng(15).normal(size=shape)
    x[0, 0, :2, :5] = [[-0.0, np.nan, np.inf, -np.inf, 5e-324], [-0.0, -5e-324, 5e-324, -0.0, 1.0]]
    x[1, -1] = -0.0
    with np.errstate(invalid="ignore"):
        y, cache = pool.forward(x, "train")
        expected, _ = layer_oracles.avgpool_forward(pool, x, "train")
    assert cache == shape and y.shape == expected.shape and y.tobytes() == expected.tobytes()


def test_flatten_round_trip():
    flat = Flatten(0)
    x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
    y, cache = flat.forward(x, "train")
    assert y.shape == (2, 12)
    np.testing.assert_array_equal(flat.backward(y, cache), x)


def test_batchnorm_normalizes_with_biased_variance():
    bn = BatchNorm2d(0, 2, make_alloc())
    x = np.random.default_rng(4).normal(loc=3.0, scale=2.0, size=(4, 2, 3, 3))
    y, _ = bn.forward(x, "train")
    # per channel: mean ~0, biased variance ~1 (up to the eps in the denominator)
    got_mean = y.mean(axis=(0, 2, 3))
    got_var = y.var(axis=(0, 2, 3))
    np.testing.assert_allclose(got_mean, 0.0, atol=1e-12)
    expected_var = x.var(axis=(0, 2, 3)) / (x.var(axis=(0, 2, 3)) + BN_EPS)
    np.testing.assert_allclose(got_var, expected_var, rtol=1e-10)


def test_batchnorm_running_stats_update_and_eval():
    bn = BatchNorm2d(0, 1, make_alloc())
    x = np.random.default_rng(5).normal(loc=1.0, size=(8, 1, 2, 2))
    bn.forward(x, "train")
    expected_mean = (1 - BN_MOMENTUM) * x.mean()
    expected_var = BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * x.var()
    np.testing.assert_allclose(bn.running_mean, [expected_mean], rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, [expected_var], rtol=1e-12)
    # eval uses running stats, works for batch of 1, and never mutates them
    saved = bn.running_mean.copy(), bn.running_var.copy()
    one = x[:1]
    y, _ = bn.forward(one, "eval")
    manual = (one - bn.running_mean) / np.sqrt(bn.running_var + BN_EPS)
    np.testing.assert_allclose(y, manual, rtol=1e-12)
    np.testing.assert_array_equal(bn.running_mean, saved[0])
    np.testing.assert_array_equal(bn.running_var, saved[1])


def test_batchnorm_rejects_singleton_train_batch():
    bn = BatchNorm2d(3, 2, make_alloc())
    with pytest.raises(ValueError, match="batchnorm layer 3"):
        bn.forward(np.zeros((1, 2, 2, 2)), "train")


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 5, 7), (2, 4, 9, 9), (2, 1, 3, 11), (3, 8, 7, 5)])
def test_batchnorm_is_bitwise_the_two_pass_reference(shape):
    # one-pass statistics and reused sums move no bit of the output, the
    # cache, the grads or the running statistics, over two steps and an eval;
    # the +1e3 offset makes the mean's rounding show in the variance
    c = shape[1]
    rng = np.random.default_rng(31)
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    engine, ref = BatchNorm2d(0, c, make_alloc()), BatchNorm2d(0, c, make_alloc())
    for bn in (engine, ref):
        bn.gamma.value[...] = gamma
        bn.beta.value[...] = beta
    for _ in range(2):
        x = rng.normal(scale=3.0, size=shape) + 1e3
        dout = rng.normal(size=shape)
        dout.flags.writeable = False  # backward never writes into dout
        y, cache = engine.forward(x, "train")
        y_ref, cache_ref = layer_oracles.batchnorm_forward(ref, x, "train")
        assert_same_bits(y, y_ref)
        for a, b in zip(cache, cache_ref):
            assert_same_bits(a, b)
        assert_same_bits(engine.backward(dout, cache), layer_oracles.batchnorm_backward(ref, dout, cache_ref))
        assert_same_bits(engine.gamma.grad, ref.gamma.grad)
        assert_same_bits(engine.beta.grad, ref.beta.grad)
        assert_same_bits(engine.running_mean, ref.running_mean)
        assert_same_bits(engine.running_var, ref.running_var)
    x = rng.normal(size=(1, *shape[1:])) + 1e3
    assert_same_bits(engine.forward(x, "eval")[0], layer_oracles.batchnorm_forward(ref, x, "eval")[0])


def test_softmax_ce_matches_manual_log_softmax():
    head = SoftmaxCrossEntropy()
    logits = np.array([[2.0, 1.0, 0.1], [-1.0, 3.0, 0.0]])
    labels = np.array([0, 1])
    loss, grad = head.loss_and_grad(logits, labels)
    # manual: -log softmax[label], averaged
    expected = 0.0
    for i, lab in enumerate(labels):
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        expected += -np.log(p[lab])
    expected /= 2
    assert abs(loss - expected) < 1e-12
    # gradient: (softmax - onehot)/N
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    probs[np.arange(2), labels] -= 1
    np.testing.assert_allclose(grad, probs / 2, rtol=1e-12)


def test_softmax_ce_is_stable_for_huge_logits():
    head = SoftmaxCrossEntropy()
    loss, grad = head.loss_and_grad(np.array([[1000.0, 0.0]]), np.array([0]))
    assert np.isfinite(loss) and loss < 1e-12
    assert np.isfinite(grad).all()


def test_softmax_ce_rejects_out_of_range_labels():
    head = SoftmaxCrossEntropy()
    with pytest.raises(ValueError, match=r"labels out of range"):
        head.loss_and_grad(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match=r"labels out of range"):
        head.loss_and_grad(np.zeros((2, 3)), np.array([-1, 0]))


def test_softmax_ce_gradient_vs_finite_difference():
    head = SoftmaxCrossEntropy()
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    _, grad = head.loss_and_grad(logits, labels)
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            up, down = logits.copy(), logits.copy()
            up[i, j] += eps
            down[i, j] -= eps
            num = (head.loss_and_grad(up, labels)[0] - head.loss_and_grad(down, labels)[0]) / (2 * eps)
            assert abs(num - grad[i, j]) < 1e-9


def test_loss_mean_semantics_batch_of_identical_rows():
    # batch mean: duplicating a batch leaves the loss unchanged but halves
    # the per-logit gradient contribution of each copy
    head = SoftmaxCrossEntropy()
    logits = np.array([[0.3, -0.2]])
    labels1 = np.array([1])
    loss1, grad1 = head.loss_and_grad(logits, labels1)
    loss2, grad2 = head.loss_and_grad(np.vstack([logits, logits]), np.array([1, 1]))
    assert abs(loss1 - loss2) < 1e-15
    np.testing.assert_allclose(grad2, np.vstack([grad1, grad1]) / 2, rtol=1e-12)
