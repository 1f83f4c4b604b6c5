"""Architecture builders: shapes, parameter registry, filter groups."""

import numpy as np
import pytest

from randomout.layers import BatchNorm2d, Conv2d, Dense
from randomout.model import LayerSpec, build_model, filter_groups
from randomout.models import (
    ModelSpec,
    build_cratercnn,
    build_from_spec,
    build_mini_inception,
    declared_filter_count,
)
from randomout.rng import derive_stream


def init_rng(seed=0):
    return derive_stream(seed, "init")


def test_cratercnn_shape_pipeline():
    # [N,1,15,15] -4x4-> [N,w,12,12] -4x4-> [N,w,9,9] -> flatten -> [N,2]
    model = build_cratercnn(4, init_rng())
    x = np.random.default_rng(0).uniform(size=(3, 1, 15, 15))
    logits, cache = model.forward(x)
    assert logits.shape == (3, 2)
    convs = [l for l in model.layers if isinstance(l, Conv2d)]
    assert len(convs) == 2
    assert convs[0].kernel.value.shape == (4, 1, 4, 4)
    assert convs[1].kernel.value.shape == (4, 4, 4, 4)
    dense = model.layers[-1]
    assert dense.weight.value.shape == (4 * 9 * 9, 2)


def test_cratercnn_width_scales_groups():
    for width in (1, 3, 8):
        model = build_cratercnn(width, init_rng())
        spec = ModelSpec(name="cratercnn", width=width)
        groups = filter_groups(model)
        assert len(groups) == 2 * width == declared_filter_count(spec)


def test_filter_groups_cover_conv_params_disjointly():
    model = build_cratercnn(4, init_rng())
    groups = filter_groups(model)
    seen = {}
    for g in groups:
        key = (g.kernel_param.id, g.kernel_slice)
        assert key not in seen
        seen[key] = True
        assert g.kernel_param.value[g.kernel_slice].shape == (1, 4, 4) or g.kernel_param.value[
            g.kernel_slice
        ].shape == (4, 4, 4)
    covered = sum(int(np.prod(g.kernel_param.value[g.kernel_slice].shape)) for g in groups)
    conv_kernel_elems = sum(p.value.size for p in model.params if p.role == "conv_kernel")
    assert covered == conv_kernel_elems


def test_groups_ordered_by_layer_then_filter():
    model = build_cratercnn(3, init_rng())
    order = [(g.layer_id, g.filter_index) for g in filter_groups(model)]
    assert order == sorted(order)


def test_same_seed_same_weights_different_seed_differs():
    a = build_cratercnn(4, init_rng(11))
    b = build_cratercnn(4, init_rng(11))
    c = build_cratercnn(4, init_rng(12))
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.value, pb.value)
    assert any(not np.array_equal(pa.value, pc.value) for pa, pc in zip(a.params, c.params))


def test_batchnorm_flag_controls_bn_layers():
    plain = build_cratercnn(2, init_rng())
    bn = build_cratercnn(2, init_rng(), with_batchnorm=True)
    assert not any(isinstance(l, BatchNorm2d) for l in plain.layers)
    assert sum(isinstance(l, BatchNorm2d) for l in bn.layers) == 2
    assert not any(p.role.startswith("bn_") for p in plain.params)
    assert any(p.role == "bn_gamma" for p in bn.params)


def test_mini_inception_shapes_and_groups():
    model = build_mini_inception(2, init_rng(), input_shape=(3, 12, 12))
    x = np.random.default_rng(1).uniform(size=(2, 3, 12, 12))
    logits, _ = model.forward(x)
    assert logits.shape == (2, 10)
    spec = ModelSpec(name="mini_inception", width=2, num_classes=10, input_shape=(3, 12, 12))
    groups = filter_groups(model)
    assert len(groups) == declared_filter_count(spec) == 5 * 2


def test_mini_inception_concat_sums_branch_channels():
    model = build_mini_inception(3, init_rng(), input_shape=(3, 16, 16))
    x = np.random.default_rng(2).uniform(size=(1, 3, 16, 16))
    concat = next(l for l in model.layers if l.kind == "concat")
    seen = {}

    orig_forward = concat.forward

    def spy(xin, mode):
        y, c = orig_forward(xin, mode)
        seen["in"] = xin.shape
        seen["out"] = y.shape
        return y, c

    concat.forward = spy
    model.forward(x)
    assert seen["out"][1] == 2 * 3  # two branches of base_width channels each
    assert seen["out"][2] == seen["in"][2] - 2  # both branches lose 2 pixels


def test_mini_inception_width_floor():
    with pytest.raises(ValueError, match="base_width"):
        build_mini_inception(1, init_rng())


def test_cratercnn_width_floor():
    with pytest.raises(ValueError, match="width"):
        build_cratercnn(0, init_rng())


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown model name"):
        ModelSpec(name="resnet", width=4)


def test_build_from_spec_dispatch():
    crater = build_from_spec(ModelSpec(name="cratercnn", width=2), init_rng())
    assert crater.input_shape == (1, 15, 15) and crater.num_classes == 2
    mini = build_from_spec(
        ModelSpec(name="mini_inception", width=2, num_classes=10, input_shape=(3, 12, 12)), init_rng()
    )
    assert mini.input_shape == (3, 12, 12) and mini.num_classes == 10


def test_rejects_wrong_input_shape():
    model = build_cratercnn(2, init_rng())
    with pytest.raises(ValueError, match="input shape"):
        model.forward(np.zeros((1, 1, 14, 14)))


def test_conv2d_input_validation():
    # the conv layer trusts its input: the builder and Model.forward reject bad shapes
    head = [LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("softmax_ce", units=2)]
    model = build_model([LayerSpec("conv2d", out_channels=3, kernel_size=2)] + head, (2, 5, 5), init_rng())
    with pytest.raises(ValueError, match="input shape"):  # channel count differs from the kernel's
        model.forward(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ValueError, match="input shape"):  # not 4-d
        model.forward(np.zeros((2, 5, 5)))
    with pytest.raises(ValueError, match="larger than input"):
        build_model([LayerSpec("conv2d", out_channels=3, kernel_size=6)] + head, (2, 5, 5), init_rng())
    # the bias is built from out_channels, so it cannot mismatch the kernel
    assert model.layers[0].bias.value.shape == (3,)


@pytest.mark.parametrize("input_shape", [(1, 12, 16), (1, 16, 12)])
def test_mini_inception_global_pool_on_non_square_input(input_shape):
    width = 2
    model = build_mini_inception(width, init_rng(), input_shape=input_shape)
    dense = next(l for l in model.layers if isinstance(l, Dense))
    assert dense.in_features == 2 * width
    logits, _ = model.forward(np.random.default_rng(0).uniform(size=(3,) + input_shape))
    assert logits.shape == (3, 10)


@pytest.mark.parametrize("name", ["cratercnn", "mini_inception"])
def test_eval_forward_keeps_no_cache(name):
    spec = ModelSpec(name=name, width=2, with_batchnorm=True, num_classes=3, input_shape=(2, 9, 9))
    model = build_from_spec(spec, init_rng())
    x = np.random.default_rng(0).uniform(size=(4, 2, 9, 9))
    train_logits, cache = model.forward(x, "train")
    assert cache[0] is train_logits
    assert len(cache[1]) == len(model.layers)
    assert all(c is not None for c in cache[1])
    logits, eval_cache = model.forward(x, "eval")
    assert logits.shape == (4, 3)
    assert eval_cache is None


def test_backward_after_eval_forward_raises():
    model = build_cratercnn(2, init_rng())
    _, cache = model.forward(np.zeros((2, 1, 15, 15)), "eval")
    with pytest.raises(ValueError, match="train-mode forward"):
        model.backward(cache, np.array([0, 1]))
