"""Architecture builders: shapes, parameter registry, filter groups."""

import tracemalloc

import numpy as np
import pytest

from randomout.config import ModelCfg, TrainConfig
from randomout.data import Dataset
from randomout.experiments import build_for
from randomout.layers import BatchNorm2d, Branches, Conv2d, Dense
from randomout.model import LayerSpec, build_model, filter_groups
from randomout.models import ARCHITECTURES, build_cratercnn, build_mini_inception
from randomout.rng import derive_stream


def init_rng(seed=0):
    return derive_stream(seed, "init")


def test_cratercnn_shape_pipeline():
    # [N,1,15,15] -4x4-> [N,w,12,12] -4x4-> [N,w,9,9] -> dense (rows read flat) -> [N,2]
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
        assert len(filter_groups(model)) == 2 * width
        assert [conv.out_channels for conv in model.convs] == [width, width]


def test_filter_groups_cover_conv_params_disjointly():
    for model in (build_cratercnn(4, init_rng()), build_mini_inception(3, init_rng(), input_shape=(3, 12, 12))):
        seen = set()
        for conv, k in filter_groups(model):
            for param in (conv.kernel, conv.bias):
                assert (param.offset, k) not in seen
                seen.add((param.offset, k))
            assert conv.kernel.value[k].shape == (conv.in_channels, conv.kernel_size, conv.kernel_size)
        # every element of every conv kernel and bias lies in exactly one filter's slab or bias
        covered = sum(conv.kernel.value[k].size + 1 for conv, k in filter_groups(model))
        conv_elems = sum(conv.kernel.value.size + conv.bias.value.size for conv in model.convs)
        assert covered == conv_elems


def test_groups_ordered_by_layer_then_filter():
    model = build_mini_inception(2, init_rng(), input_shape=(3, 12, 12))
    order = [(conv.layer_id, k) for conv, k in filter_groups(model)]
    assert order == sorted(order)
    assert len({layer_id for layer_id, _ in order}) == 5  # stem + two blocks of two branches
    ids = [conv.layer_id for conv in model.convs]
    assert ids == sorted(ids)


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
    norms = [l for l in bn.layers if isinstance(l, BatchNorm2d)]
    assert len(plain.params) == 6 and len(bn.params) == 6 + 2 * len(norms)
    assert all(any(p is l.gamma for p in bn.params) for l in norms)


def test_mini_inception_shapes_and_groups():
    model = build_mini_inception(2, init_rng(), input_shape=(3, 12, 12))
    x = np.random.default_rng(1).uniform(size=(2, 3, 12, 12))
    logits, _ = model.forward(x)
    assert logits.shape == (2, 10)
    # stem + 2 blocks x (1x1 branch + 3x3 branch), base_width filters each
    assert len(filter_groups(model)) == 5 * 2


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
    with pytest.raises(ValueError, match="unknown model"):
        ModelCfg(name="resnet", width=4)


def test_build_for_dispatch():
    def train_set(shape, num_classes):
        return Dataset(np.zeros((num_classes,) + shape), np.arange(num_classes), num_classes)

    crater = build_for(TrainConfig(model=ModelCfg("cratercnn", 2)), train_set((1, 15, 15), 2))
    assert crater.input_shape == (1, 15, 15) and crater.num_classes == 2
    assert len(filter_groups(crater)) == 2 * 2
    cfg = TrainConfig(model=ModelCfg("mini_inception", 2), condition="batchnorm")
    mini = build_for(cfg, train_set((3, 12, 12), 10))
    assert mini.input_shape == (3, 12, 12) and mini.num_classes == 10
    assert len(filter_groups(mini)) == 5 * 2
    assert len(mini.params) == 5 * 4 + 2  # conv kernel and bias, batchnorm gamma and beta; the dense head


def test_rejects_wrong_input_shape():
    model = build_cratercnn(2, init_rng())
    with pytest.raises(ValueError, match="input shape"):
        model.forward(np.zeros((1, 1, 14, 14)))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_rejects_integer_and_bool_inputs(dtype, mode):
    # raw uint8 pixels would otherwise train unscaled, 255 times too bright
    model = build_cratercnn(2, init_rng())
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype).name}"):
        model.forward(np.ones((1, 1, 15, 15), dtype=dtype), mode)
    model.forward(np.ones((1, 1, 15, 15), dtype=np.float32), mode)  # floats of any width pass


def test_conv2d_input_validation():
    # the conv layer trusts its input: the builder and Model.forward reject bad shapes
    head = [LayerSpec("dense", units=2)]
    model = build_model([LayerSpec("conv2d", out_channels=3, kernel_size=2)] + head, (2, 5, 5), init_rng())
    with pytest.raises(ValueError, match="input shape"):  # channel count differs from the kernel's
        model.forward(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ValueError, match="input shape"):  # not 4-d
        model.forward(np.zeros((2, 5, 5)))
    with pytest.raises(ValueError, match="larger than input"):
        build_model([LayerSpec("conv2d", out_channels=3, kernel_size=6)] + head, (2, 5, 5), init_rng())
    with pytest.raises(ValueError, match=r"^layer 0 \(avgpool\): window 6 larger than input 5x4$"):
        build_model([LayerSpec("avgpool", window=6)] + head, (2, 5, 4), init_rng())
    # the bias is built from out_channels, so it cannot mismatch the kernel
    assert model.layers[0].bias.value.shape == (3,)


@pytest.mark.parametrize(
    "spec",
    [
        LayerSpec("conv2d", out_channels=3, kernel_size=1),
        LayerSpec("batchnorm"),
        LayerSpec("avgpool"),
        LayerSpec("concat", branches=[[LayerSpec("relu")]]),
    ],
    ids=lambda spec: spec.kind,
)
def test_build_model_rejects_a_spatial_layer_after_flatten(spec):
    head = [LayerSpec("dense", units=2)]
    with pytest.raises(ValueError, match=rf"^layer 1 \({spec.kind}\): needs \[C,H,W\] input, got \(50,\)$"):
        build_model([LayerSpec("dense", units=50), spec] + head, (2, 5, 5), init_rng())


@pytest.mark.parametrize(
    "specs",
    [
        [],
        [LayerSpec("conv2d", out_channels=2, kernel_size=2)],
        [LayerSpec("dense", units=4), LayerSpec("relu")],
        [LayerSpec("dense", units=1)],
        [LayerSpec("dense")],
    ],
    ids=["empty", "conv2d-last", "relu-last", "one-unit", "no-units"],
)
def test_build_model_rejects_specs_without_a_dense_class_head(specs):
    with pytest.raises(ValueError, match=r"^model specs must end with a dense layer of >= 2 units, one per class$"):
        build_model(specs, (2, 5, 5), init_rng())


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
    model = ARCHITECTURES[name](2, init_rng(), with_batchnorm=True, input_shape=(2, 9, 9), num_classes=3)
    x = np.random.default_rng(0).uniform(size=(4, 2, 9, 9))
    train_logits, cache = model.forward(x, "train")
    assert cache[0] is train_logits
    assert len(cache[1]) == len(model.layers)
    assert all(c is not None for c in cache[1])
    logits, eval_cache = model.forward(x, "eval")
    assert logits.shape == (4, 3)
    assert eval_cache is None


def conv_caches(layers, caches):
    """(conv, cache) for every conv in a train forward's caches, branches included."""
    for layer, c in zip(layers, caches):
        if isinstance(layer, Conv2d):
            yield layer, c
        elif isinstance(layer, Branches):
            for seq, seq_caches in zip(layer.branches, c[0]):
                yield from conv_caches(seq, seq_caches)


# tracemalloc peak of one mini_inception w4 train step at batch 16: 5.21 MB
# with per-block patches, 22.16 MB when every conv kept whole-batch patches
STEP_PEAK_BOUND = 6_000_000


def test_mini_inception_train_step_keeps_no_whole_batch_patches(monkeypatch):
    model = build_mini_inception(4, init_rng())
    x = np.random.default_rng(0).uniform(size=(16, 3, 32, 32))
    labels = np.arange(16) % 10
    inputs = {}  # layer_id -> the input each conv's forward received
    forward = Conv2d.forward

    def recording_forward(conv, x_in, mode):
        inputs[conv.layer_id] = x_in
        return forward(conv, x_in, mode)

    monkeypatch.setattr(Conv2d, "forward", recording_forward)
    tracemalloc.start()
    try:
        _, cache = model.forward(x)
        convs = list(conv_caches(model.layers, cache[1]))
        model.backward(cache, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [conv.kernel_size for conv, _ in convs] == [3, 1, 3, 1, 3]
    for conv, c in convs:
        # no conv caches patches: its train cache is its input
        assert c is inputs[conv.layer_id]
    assert peak < STEP_PEAK_BOUND, peak


# tracemalloc peak of one cratercnn w4 batchnorm train step at batch 16 plus
# one eval chunk of 16: 1.09 MB
BN_STEP_PEAK_BOUND = 1_250_000


def test_cratercnn_batchnorm_step_and_eval_chunk_stay_small():
    model = build_cratercnn(4, init_rng(), with_batchnorm=True)
    rng = np.random.default_rng(0)
    x, x_eval = rng.uniform(size=(2, 16, 1, 15, 15))
    labels = np.arange(16) % 2
    tracemalloc.start()
    try:
        _, cache = model.forward(x)
        model.backward(cache, labels)
        del cache
        model.forward(x_eval, "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(isinstance(layer, BatchNorm2d) for layer in model.layers) == 2
    assert peak < BN_STEP_PEAK_BOUND, peak


def test_forward_takes_a_strided_input():
    model = build_cratercnn(2, init_rng())
    every_other = np.random.default_rng(1).normal(size=(8, 1, 15, 15))[::2]
    for mode in ("train", "eval"):
        want = model.forward(every_other.copy(), mode)[0]
        assert model.forward(every_other, mode)[0].tobytes() == want.tobytes()


def test_backward_after_eval_forward_raises():
    model = build_cratercnn(2, init_rng())
    _, cache = model.forward(np.zeros((2, 1, 15, 15)), "eval")
    with pytest.raises(ValueError, match="train-mode forward"):
        model.backward(cache, np.array([0, 1]))
