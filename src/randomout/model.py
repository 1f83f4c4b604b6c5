"""Model assembly: declarative layer specs, shape checking, conv-layer walk.

A model is a static feed-forward stack of layers (with optional parallel
branch stages that concatenate channel-wise) ending in a softmax
cross-entropy head. Shapes are inferred and validated when the model is
built; weights are drawn from a single init stream in declaration order,
so a (seed, spec) pair always yields bit-identical parameters.
``conv_layers`` is the one walk over a model's conv layers, branches
included, in layer_id order; the filter scores, the reset scan and the
filter count all follow it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor
from .layers import AvgPool2d, BatchNorm2d, Branches, Conv2d, Dense, Flatten, ReLU, SoftmaxCrossEntropy, run_sequence

LAYER_KINDS = ("conv2d", "relu", "dense", "softmax_ce", "batchnorm", "flatten", "avgpool", "concat")


@dataclass
class LayerSpec:
    """One layer declaration; dimension fields apply per kind.

    conv2d: out_channels, kernel_size, stride. dense: units.
    avgpool: window (None means global) and stride. concat: branches,
    a list of LayerSpec sequences run in parallel on the same input.
    """

    kind: str
    out_channels: Optional[int] = None
    kernel_size: Optional[int] = None
    stride: int = 1
    units: Optional[int] = None
    window: Optional[int] = None
    branches: Optional[list] = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


class Model:
    """A built layer stack with its loss head and parameter registry."""

    def __init__(self, layers, input_shape, num_classes):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.loss_head = SoftmaxCrossEntropy()
        self.params = []
        for layer in layers:
            self.params.extend(layer.params)
        if layers and isinstance(layers[0], Conv2d):
            layers[0].input_grad = False  # nothing consumes d(loss)/d(model input)

    def forward(self, x, mode="train"):
        """Run all layers; returns (logits, cache).

        A train forward returns the cache that ``backward`` needs: the logits
        and one cache per top-level layer. An eval forward is forward-only:
        it drops each layer's cache as soon as the layer returns and returns
        ``(logits, None)``.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
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
        self.backward_from(dlogits, caches)
        return loss

    def backward_from(self, dout, caches):
        """Backpropagate an arbitrary output gradient through the layer stack.

        Returns the input gradient, or None when the first layer is a conv,
        which skips it.
        """
        for layer, c in zip(reversed(self.layers), reversed(caches)):
            dout = layer.backward(dout, c)
        return dout

    def zero_grads(self):
        for p in self.params:
            p.grad[...] = 0.0


class _Counter:
    def __init__(self):
        self.n = 0

    def __call__(self):
        self.n += 1
        return self.n - 1


def _build_sequence(specs, in_shape, rng, next_layer_id, next_param_id):
    """Construct layers for a spec list, validating shape compatibility."""
    layers = []
    shape = in_shape
    for spec in specs:
        lid = next_layer_id()
        if spec.kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"layer {lid} (conv2d): needs [C,H,W] input, got {shape}")
            c, h, w = shape
            if spec.kernel_size > h or spec.kernel_size > w:
                raise ValueError(f"layer {lid} (conv2d): kernel {spec.kernel_size} larger than input {h}x{w}")
            layers.append(Conv2d(lid, c, spec.out_channels, spec.kernel_size, spec.stride, rng, next_param_id))
            shape = (
                spec.out_channels,
                tensor.conv_output_size(h, spec.kernel_size, spec.stride),
                tensor.conv_output_size(w, spec.kernel_size, spec.stride),
            )
        elif spec.kind == "relu":
            layers.append(ReLU(lid))
        elif spec.kind == "batchnorm":
            if len(shape) != 3:
                raise ValueError(f"layer {lid} (batchnorm): needs [C,H,W] input, got {shape}")
            layers.append(BatchNorm2d(lid, shape[0], next_param_id))
        elif spec.kind == "avgpool":
            if len(shape) != 3:
                raise ValueError(f"layer {lid} (avgpool): needs [C,H,W] input, got {shape}")
            c, h, w = shape
            window = spec.window
            if window is None:
                shape = (c, 1, 1)
            elif window > h or window > w:
                raise ValueError(f"layer {lid} (avgpool): window {window} larger than input {h}x{w}")
            else:
                shape = (c, tensor.conv_output_size(h, window, spec.stride), tensor.conv_output_size(w, window, spec.stride))
            layers.append(AvgPool2d(lid, window, spec.stride))
        elif spec.kind == "flatten":
            layers.append(Flatten(lid))
            shape = (int(np.prod(shape)),)
        elif spec.kind == "dense":
            if len(shape) != 1:
                raise ValueError(f"layer {lid} (dense): needs flat input, got {shape}; add a flatten layer")
            layers.append(Dense(lid, shape[0], spec.units, rng, next_param_id))
            shape = (spec.units,)
        elif spec.kind == "concat":
            if len(shape) != 3:
                raise ValueError(f"layer {lid} (concat): needs [C,H,W] input, got {shape}")
            branch_layers, out_shapes = [], []
            for seq in spec.branches:
                sub, sub_shape = _build_sequence(seq, shape, rng, next_layer_id, next_param_id)
                branch_layers.append(sub)
                out_shapes.append(sub_shape)
            spatial = {s[1:] for s in out_shapes}
            if len(spatial) != 1 or any(len(s) != 3 for s in out_shapes):
                raise ValueError(f"layer {lid} (concat): branch output shapes {out_shapes} do not align")
            layers.append(Branches(lid, branch_layers))
            shape = (sum(s[0] for s in out_shapes),) + out_shapes[0][1:]
        else:
            raise ValueError(f"layer {lid}: kind {spec.kind!r} not buildable here")
    return layers, shape


def build_model(specs, input_shape, rng):
    """Build a Model from LayerSpecs; the last spec must be softmax_ce."""
    if not specs or specs[-1].kind != "softmax_ce":
        raise ValueError("model specs must end with a softmax_ce head")
    if specs[-1].units is None or specs[-1].units < 2:
        raise ValueError("softmax_ce head needs units = number of classes >= 2")
    layers, shape = _build_sequence(specs[:-1], tuple(input_shape), rng, _Counter(), _Counter())
    num_classes = specs[-1].units
    if shape != (num_classes,):
        raise ValueError(f"final layer output {shape} does not match softmax_ce over {num_classes} classes")
    return Model(layers, input_shape, num_classes)


def _iter_layers(layers):
    for layer in layers:
        if isinstance(layer, Branches):
            for seq in layer.branches:
                yield from _iter_layers(seq)
        else:
            yield layer


def conv_layers(model):
    """The model's conv layers, branch layers included, in layer_id order."""
    return sorted((l for l in _iter_layers(model.layers) if isinstance(l, Conv2d)), key=lambda l: l.layer_id)


def filter_groups(model):
    """One (conv, filter_index) pair per conv output channel, in (layer_id, filter) order."""
    return [(conv, k) for conv in conv_layers(model) for k in range(conv.out_channels)]
