"""Model assembly: declarative layer specs, shape checking, one layer walk.

A model is a static feed-forward stack of layers (with optional parallel
branch stages that concatenate channel-wise) ending in a dense layer with
one unit per class, under the softmax cross-entropy head every model has.
Shapes are inferred and validated when the model is built; weights are
drawn from a single init stream in declaration order, so a (seed, spec)
pair always yields bit-identical parameters.

A built model owns its structure and its parameter layout. ``Model``
walks its layer tree once, branches included, into ``params`` and
``convs``. Layer ids are numbered in that walk's order, so ``convs`` is
in layer_id order; the filter scores, the reset scan and the filter count
all read it. Then ``layers.pack`` moves every ParamNode's value and grad
into two flat buffers, ``Model.values`` and ``Model.grads``, back to back
in ``params`` order. A param is its ``offset`` in them: its value and
grad are its ``view``s of the two buffers, in its own shape. Layers
update those views in place, and nothing rebinds a node's ``value`` or
``grad`` after that, so a pass over a buffer (zeroing the grads, an
optimizer step, a snapshot's copy) covers the whole model at once.
Optimizers are built on the model, step its buffers, and read a param's
slice of their own buffers through the same ``view``.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor
from .layers import AvgPool2d, BatchNorm2d, Branches, Conv2d, Dense, ReLU, SoftmaxCrossEntropy
from .layers import backward_sequence, pack, run_sequence

LAYER_KINDS = ("conv2d", "relu", "dense", "batchnorm", "avgpool", "concat")


@dataclass
class LayerSpec:
    """One layer declaration; dimension fields apply per kind.

    conv2d: out_channels and kernel_size. dense: units; it reads its input
    flat, so it may follow a spatial layer, and nothing spatial may follow
    it. avgpool: window (None means global). concat: branches, a list of
    LayerSpec sequences run in parallel on the same input. Every conv and
    windowed pool is valid and stride 1: a k x k window over H x W gives
    H-k+1 x W-k+1. A model's specs end with a dense layer of one unit per
    class.
    """

    kind: str
    out_channels: Optional[int] = None
    kernel_size: Optional[int] = None
    units: Optional[int] = None
    window: Optional[int] = None
    branches: Optional[list] = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


class Model:
    """A built layer stack with its loss head and parameter arena.

    ``params`` lists every ParamNode in layer order and ``convs`` every
    conv layer, branch layers included; ``values`` and ``grads`` are the
    flat buffers the params' values and grads are views of.
    """

    def __init__(self, layers, input_shape, num_classes):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.loss_head = SoftmaxCrossEntropy()
        leaves = list(_leaves(layers))
        self.params = [p for layer in leaves for p in layer.params]
        self.convs = [layer for layer in leaves if isinstance(layer, Conv2d)]
        self.values, self.grads = pack(self.params)
        if layers and isinstance(layers[0], Conv2d):
            layers[0].input_grad = False  # nothing consumes d(loss)/d(model input)

    def forward(self, x, mode="train"):
        """Run all layers; returns (logits, cache).

        A train forward returns the cache that ``backward`` needs: the logits
        and one cache per top-level layer. An eval forward is forward-only:
        it drops each layer's cache as soon as the layer returns and returns
        ``(logits, None)``. Integer and bool inputs raise ValueError.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        x = np.asarray(x)
        if x.dtype.kind in "biu":  # raw pixels would train unscaled: take Dataset.batch's floats
            raise ValueError(f"model input must be floating point in [0, 1], got dtype {x.dtype}")
        x = np.ascontiguousarray(x, dtype=tensor.DTYPE)  # conv patches are views of C-ordered planes
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"model input shape {x.shape[1:]} does not match declared {self.input_shape}")
        logits, caches = run_sequence(self.layers, x, mode)
        return logits, None if caches is None else (logits, caches)

    def backward(self, cache, labels):
        """Mean cross-entropy loss; writes d(loss)/d(param) into every ParamNode."""
        if cache is None:
            raise ValueError("backward needs the cache of a train-mode forward; an eval forward keeps none")
        logits, caches = cache
        loss, dlogits = self.loss_head.loss_and_grad(logits, labels)
        backward_sequence(self.layers, dlogits, caches)
        return loss

    def zero_grads(self):
        self.grads.fill(0.0)


def _leaves(layers):
    """The layers of a tree in order, each ``Branches`` replaced by its branches' layers."""
    for layer in layers:
        if isinstance(layer, Branches):
            for seq in layer.branches:
                yield from _leaves(seq)
        else:
            yield layer


def _build_sequence(specs, in_shape, rng, next_layer_id):
    """Construct layers for a spec list, validating shape compatibility."""
    layers = []
    shape = in_shape
    for spec in specs:
        lid = next_layer_id()
        if spec.kind in ("conv2d", "batchnorm", "avgpool", "concat") and len(shape) != 3:
            raise ValueError(f"layer {lid} ({spec.kind}): needs [C,H,W] input, got {shape}")
        if spec.kind == "conv2d":
            c, h, w = shape
            ks = spec.kernel_size
            if ks > h or ks > w:
                raise ValueError(f"layer {lid} (conv2d): kernel {ks} larger than input {h}x{w}")
            layers.append(Conv2d(lid, c, spec.out_channels, ks, rng))
            shape = (spec.out_channels, h - ks + 1, w - ks + 1)
        elif spec.kind == "relu":
            layers.append(ReLU(lid))
        elif spec.kind == "batchnorm":
            layers.append(BatchNorm2d(lid, shape[0]))
        elif spec.kind == "avgpool":
            c, h, w = shape
            window = spec.window
            if window is None:
                shape = (c, 1, 1)
            elif window > h or window > w:
                raise ValueError(f"layer {lid} (avgpool): window {window} larger than input {h}x{w}")
            else:
                shape = (c, h - window + 1, w - window + 1)
            layers.append(AvgPool2d(lid, window))
        elif spec.kind == "dense":
            layers.append(Dense(lid, int(np.prod(shape)), spec.units, rng))
            shape = (spec.units,)
        else:  # concat
            branch_layers, out_shapes = [], []
            for seq in spec.branches:
                sub, sub_shape = _build_sequence(seq, shape, rng, next_layer_id)
                branch_layers.append(sub)
                out_shapes.append(sub_shape)
            spatial = {s[1:] for s in out_shapes}
            if len(spatial) != 1 or any(len(s) != 3 for s in out_shapes):
                raise ValueError(f"layer {lid} (concat): branch output shapes {out_shapes} do not align")
            layers.append(Branches(lid, branch_layers))
            shape = (sum(s[0] for s in out_shapes),) + out_shapes[0][1:]
    return layers, shape


def build_model(specs, input_shape, rng):
    """Build a Model from LayerSpecs; the last spec must be a dense layer of one unit per class."""
    if not specs or specs[-1].kind != "dense" or specs[-1].units is None or specs[-1].units < 2:
        raise ValueError("model specs must end with a dense layer of >= 2 units, one per class")
    layers, _ = _build_sequence(specs, tuple(input_shape), rng, itertools.count().__next__)
    return Model(layers, input_shape, specs[-1].units)


def filter_groups(model):
    """One (conv, filter_index) pair per conv output channel, in (layer_id, filter) order."""
    return [(conv, k) for conv in model.convs for k in range(conv.out_channels)]
